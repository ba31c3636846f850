"""Generator: goldens, oracle agreement, invariants, galfs, parsing."""
import pytest

from rectfree import (GeneratorState, IncidenceMatrix, InvalidParameterError,
                      MAX_ORDER, Params, SparseRow, compute_galfs,
                      format_row_line, generate_naive, generate_prefix,
                      is_admissible, length_bound, new_generator, next_row,
                      parse_matrix_text, parse_row_line)

from _dense import dense_rows, find_rectangle_oracle, galfs_oracle
from _kernel_oracle import naive_oracle, new_oracle
from _marks import needs_extended

A1_12 = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
         (7, 8), (7, 9), (8, 9), (10, 11), (10, 12), (11, 12)]
A2_7 = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
        (3, 4, 7), (3, 5, 6)]
A3_8 = [(1, 2, 3, 4), (1, 5, 6, 7), (1, 8, 9, 10), (1, 11, 12, 13),
        (2, 5, 8, 11), (2, 6, 9, 12), (2, 7, 10, 13), (3, 5, 9, 13)]


def ones_of(rows):
    return [r.ones for r in rows]


class TestGoldens:
    def test_first_rows_n1(self):
        assert ones_of(generate_prefix(1, 12)) == A1_12

    def test_first_rows_n2(self):
        assert ones_of(generate_prefix(2, 7)) == A2_7

    def test_first_rows_n3(self):
        assert ones_of(generate_prefix(3, 8)) == A3_8

    def test_row_indices_count_from_one(self):
        rows = generate_prefix(2, 5)
        assert [r.index for r in rows] == [1, 2, 3, 4, 5]


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_square_construction_matches_dense_oracle(self, n):
        assert ones_of(generate_prefix(n, 200)) == \
            dense_rows(n + 1, n + 1, 200)

    @pytest.mark.parametrize("caps", [(2, 3), (3, 2), (4, 4), (2, 5)])
    def test_generic_caps_match_dense_oracle(self, caps):
        k, r = caps
        assert ones_of(generate_naive(k, r, 100)) == dense_rows(k, r, 100)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_rectangle_in_500_row_prefix(self, n):
        assert find_rectangle_oracle(ones_of(generate_prefix(n, 500))) is None


class TestInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_row_weight_length_first_one(self, n):
        gen = new_generator(n)
        bound = length_bound(n)
        prev_frontier = 1
        for _ in range(600):
            frontier_before = gen.frontier_l
            row = gen.next_row()
            assert len(row.ones) == n + 1
            assert row.length < bound
            assert row.first == frontier_before
            assert row.first <= row.index
            assert gen.frontier_l >= prev_frontier
            prev_frontier = gen.frontier_l

    def test_column_weights_never_exceed_cap(self, ):
        gen = new_generator(2)
        for _ in range(300):
            gen.next_row()
            assert all(w <= 3 for w in gen.col_weight.values())

    def test_symmetry_of_determined_prefix(self):
        gen = new_generator(3)
        rows = [gen.next_row() for _ in range(400)]
        frontier = gen.frontier_l
        cells = {(r.index, j) for r in rows for j in r.ones}
        for i, j in list(cells):
            if i < frontier and j < frontier:
                assert (j, i) in cells

    def test_clone_is_independent(self):
        gen = new_generator(2)
        for _ in range(10):
            gen.next_row()
        twin = gen.clone()
        a = [gen.next_row().ones for _ in range(20)]
        b = [twin.next_row().ones for _ in range(20)]
        assert a == b
        assert gen.rows_emitted == twin.rows_emitted

    def test_next_row_function_wraps_method(self):
        gen = new_generator(1)
        assert next_row(gen).ones == (1, 2)


class TestAdmissibility:
    def test_matches_actual_placements(self):
        gen = new_generator(2)
        for _ in range(60):
            probe = gen.clone()
            row = gen.next_row()
            partial = []
            j = probe.frontier_l
            while len(partial) < 3:
                verdict = is_admissible(probe, partial, j)
                assert verdict == (j in row.ones), (row.index, j)
                if verdict:
                    partial.append(j)
                j += 1

    def test_full_partial_row_rejects(self):
        gen = new_generator(1)
        gen.next_row()
        assert not gen.is_admissible((1, 2), 5)


class TestSnapshotRestore:
    def test_round_trip_mid_stream(self):
        gen = new_generator(3)
        for _ in range(123):
            gen.next_row()
        twin = GeneratorState.from_snapshot(
            n=3, next_k=gen.next_k, frontier_l=gen.frontier_l,
            rows_emitted=gen.rows_emitted, live_rows=gen.live_rows)
        assert [gen.next_row().ones for _ in range(200)] == \
               [twin.next_row().ones for _ in range(200)]

    def test_fresh_state(self):
        twin = GeneratorState.from_snapshot(
            n=1, next_k=1, frontier_l=1, rows_emitted=0, live_rows=())
        assert [twin.next_row().ones for _ in range(3)] == A1_12[:3]

    @pytest.mark.parametrize("kwargs", [
        dict(next_k=0, frontier_l=1, rows_emitted=-1, live_rows=()),
        dict(next_k=2, frontier_l=1, rows_emitted=0, live_rows=()),
        dict(next_k=2, frontier_l=1, rows_emitted=1,
             live_rows=((5, (1, 2)),)),                   # beyond next_k
        dict(next_k=3, frontier_l=1, rows_emitted=2,
             live_rows=((1, (2, 1)),)),                   # not ascending
        dict(next_k=3, frontier_l=1, rows_emitted=2,
             live_rows=((1, (1, 2, 3)),)),                # wrong weight
    ])
    def test_rejects_unreachable_states(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GeneratorState.from_snapshot(n=1, **kwargs)


class TestParameters:
    def test_length_bound_values(self):
        assert [length_bound(n) for n in (1, 2, 3)] == [4, 18, 54]

    @pytest.mark.parametrize("bad", [0, -1, MAX_ORDER + 1, True, 2.0, "3"])
    def test_order_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            Params.for_order(bad)

    @pytest.mark.parametrize("bad", [0, -5, True, None])
    def test_prefix_count_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            generate_prefix(1, bad)

    @pytest.mark.parametrize("bad", [(0, 1, 5), (2, -1, 5), (2, 2, 0)])
    def test_naive_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            generate_naive(*bad)


class TestRowLineFormat:
    def test_format_golden(self):
        assert format_row_line(7, (3, 5, 6)) == "7\t3,5,6"

    def test_round_trip(self):
        for row in generate_prefix(3, 50):
            back = parse_row_line(format_row_line(row.index, row.ones))
            assert back == SparseRow(row.index, row.ones)

    @pytest.mark.parametrize("rows, text", [
        ([(1, 2), (), (1, 3)], "1\t1,2\n2\t\n3\t1,3\n"),
        ([(2,), ()], "1\t2\n2\t\n"),
        ([()], "1\t\n")])
    def test_sparse_text_writes_an_empty_row_as_index_and_tab(self, rows,
                                                               text):
        matrix = IncidenceMatrix.from_rows(rows)
        assert matrix.to_sparse_text() == text
        assert parse_matrix_text(text) == matrix

    @pytest.mark.parametrize("bad", ["", "1", "1 2,3", "0\t1,2", "2\t2,1",
                                     "2\t", "x\t1,2", "2\t1,x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_row_line(bad)


class TestGalfs:
    def test_two_by_two(self):
        assert compute_galfs([[1, 1], [1, 0]]) == {(2, 2)}

    def test_zero_matrix(self):
        assert compute_galfs([[0, 0], [0, 0]]) == set()

    def test_matches_oracle_on_construction_prefix(self):
        rows = generate_prefix(2, 7)
        width = max(r.last for r in rows)
        dense = [[1 if j in r.ones else 0 for j in range(1, width + 1)]
                 for r in rows]
        got = compute_galfs(dense)
        assert got == galfs_oracle(dense)
        flags = {(r.index, j) for r in rows for j in r.ones}
        assert not (got & flags)

    def test_matches_oracle_on_small_random(self):
        import random
        rng = random.Random(5)
        for _ in range(25):
            dense = [[rng.randint(0, 1) for _ in range(6)] for _ in range(5)]
            assert compute_galfs(dense) == galfs_oracle(dense)

    @pytest.mark.parametrize("bad", [[[1, 2]], [[1], [1, 0]]])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidParameterError):
            compute_galfs(bad)


def _assert_same_state(state, oracle, where):
    assert state.frontier_l == oracle.frontier_l, where
    assert state.next_k == oracle.next_k, where
    assert state.rows_emitted == oracle.rows_emitted, where
    assert state.col_weight == oracle.col_weight, where
    assert state.live_rows == oracle.live_rows, where


def _assert_supports_well_formed(state, where):
    for c, s in state._sup.items():
        if s != 1:
            assert not s & 1, (where, c)
            assert s.bit_count() < state.col_cap, (where, c)


def _lockstep(state, oracle, rows, *, check_supports=False):
    """Advance both cursors ``rows`` times, comparing after every row."""
    for _ in range(rows):
        got, want = state._advance(), oracle._advance()
        assert got == want, want[0]
        _assert_same_state(state, oracle, want[0])
        if check_supports:
            _assert_supports_well_formed(state, want[0])


def _first_rebase_row(state) -> int:
    """Rows a fresh cursor emits before its first rebase."""
    return 2 * state._keep - 1


class TestKernelOracle:
    """The one-dict kernel against the two-dict kernel it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16])
    def test_square_construction(self, n):
        state, oracle = new_generator(n), new_oracle(n)
        # Past the first rebase for n <= 10; order 16 closes its period
        # (273 rows) long before its first rebase.
        rows = 600 if n == 16 else _first_rebase_row(state) + 400
        _lockstep(state, oracle, rows)

    @pytest.mark.parametrize("caps", [(1, 4), (4, 1), (2, 3), (3, 2),
                                      (5, 3)])
    def test_generic_caps(self, caps):
        k, r = caps
        oracle = naive_oracle(k, r)
        state = GeneratorState(params=None, row_cap=k, col_cap=r,
                               max_len=oracle.max_len)
        _lockstep(state, oracle, 2_000)
        fresh = naive_oracle(k, r)
        assert [row.ones for row in generate_naive(k, r, 300)] == \
            [fresh._advance()[1] for _ in range(300)]

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_clone_and_snapshot_across_a_rebase(self, n):
        state, oracle = new_generator(n), new_oracle(n)
        first = _first_rebase_row(state)
        for fork_at in (first - 2, first, first + 3):
            _lockstep(state, oracle, fork_at - state.rows_emitted)
            twin = state.clone()
            restored = GeneratorState.from_snapshot(
                n=n, next_k=state.next_k, frontier_l=state.frontier_l,
                rows_emitted=state.rows_emitted, live_rows=state.live_rows)
            _assert_same_state(restored, oracle, fork_at)
            for fork in (twin, restored):
                _lockstep(fork, oracle.clone(), state._keep + 5)

    @pytest.mark.parametrize("n", [1, 3, 5, 6])
    def test_supports_leave_bit_zero_to_the_sentinel(self, n):
        state, oracle = new_generator(n), new_oracle(n)
        _lockstep(state, oracle, _first_rebase_row(state) + 200,
                  check_supports=True)

    @pytest.mark.parametrize("caps", [(4, 1), (3, 2), (5, 3)])
    def test_generic_supports_leave_bit_zero_to_the_sentinel(self, caps):
        k, r = caps
        oracle = naive_oracle(k, r)
        state = GeneratorState(params=None, row_cap=k, col_cap=r,
                               max_len=oracle.max_len)
        _lockstep(state, oracle, 700, check_supports=True)

    @needs_extended
    def test_million_rows_of_order_six(self):
        state, oracle = new_generator(6), new_oracle(6)
        for row in range(1, 1_000_001):
            assert state._advance() == oracle._advance(), row
            assert state.frontier_l == oracle.frontier_l, row
            if row % 10_000 == 0:
                _assert_same_state(state, oracle, row)
