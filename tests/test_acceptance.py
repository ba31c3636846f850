"""Frozen end-to-end expectations for the full pipeline.

Each test pins one headline behavior: exact period structure for the
orders where the construction closes into a plane, golden matrices,
rigidity counts, bounded-budget behavior at infeasible orders, crash
safety, large invariant sweeps, and independent re-verification of
every accepted fold.  Expected values are exact integers — no
tolerances anywhere.
"""
import os
import subprocess
import sys
import time

import pytest

from _dense import dense_rows, find_rectangle_oracle
from _invariants import sweep_invariants
from _marks import needs_extended
from rectfree import (
    BudgetExhaustedError,
    Checkpoint,
    Configuration,
    ConstraintViolationError,
    EMPTY_ROW_HASH,
    FoldParams,
    PeriodResult,
    automorphism_count,
    compact_plane,
    detect_period,
    fold,
    generate_prefix,
    hypothesis_status,
    is_projective_plane,
    isomorphic,
    length_bound,
    load_checkpoint,
    log_prefix_hash,
    new_generator,
    reference_plane,
    save_checkpoint,
    verify_configuration,
)


def as_config(matrix, n) -> Configuration:
    outcome = verify_configuration(matrix, n)
    assert isinstance(outcome, Configuration), outcome
    return outcome


class TestPlaneOrders:
    def test_zero_preperiod_orders_close_immediately(self):
        started = time.perf_counter()
        for n in (1, 2, 4, 16):
            result = detect_period(n, 10_000)
            assert (result.pp, result.p) == (0, n * n + n + 1), result
            assert result.case1 is True
            assert result.rows_examined == n * n + n + 1
        assert time.perf_counter() - started < 5.0

    def test_golden_three_by_three(self):
        started = time.perf_counter()
        result = detect_period(1, 100)
        matrix = compact_plane(1, result)
        assert matrix.to_dense() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
        assert time.perf_counter() - started < 1.0

    def test_small_compact_planes_match_references(self):
        started = time.perf_counter()
        for n in (2, 4):
            result = detect_period(n, 1_000)
            matrix = compact_plane(n, result)
            config = as_config(matrix, n)
            assert is_projective_plane(config) is True
            assert isomorphic(config, reference_plane(n)) is True
        assert time.perf_counter() - started < 60.0

    def test_order16_compact_plane_within_budget(self):
        started = time.perf_counter()
        result = detect_period(16, 1_000)
        matrix = compact_plane(16, result)
        config = as_config(matrix, 16)
        assert (config.v, config.k) == (273, 17)
        assert is_projective_plane(config) is True
        # 546-vertex isomorphism against the reference, same budget.
        assert isomorphic(config, reference_plane(16)) is True
        assert time.perf_counter() - started < 60.0

    def test_reference_plane_groups_within_ten_seconds(self):
        # |PGammaL(3, q)|: 168, 5 616, 120 960 (with the Frobenius map of
        # GF(4)) and 372 000.  The search counts them by orbit-stabilizer;
        # a search that counts leaves takes minutes on PG(2, 4) alone.
        started = time.perf_counter()
        for q, order in ((2, 168), (3, 5_616), (4, 120_960), (5, 372_000)):
            assert automorphism_count(reference_plane(q)) == order
        assert time.perf_counter() - started < 10.0


class TestOrderThree:
    def test_period_fold_and_rigidity(self):
        started = time.perf_counter()
        result = detect_period(3, 1_000)
        assert (result.pp, result.p) == (48, 16), result
        params = FoldParams.for_period(result, m=1)
        matrix = fold(3, result, params, allow_unproven=True)
        config = as_config(matrix, 3)
        assert (config.v, config.k) == (16, 4)
        assert is_projective_plane(config) is False
        assert automorphism_count(config) == 2
        assert time.perf_counter() - started < 5.0


class TestOrderFiveExtended:
    @needs_extended
    def test_long_preperiod_plane(self):
        started = time.perf_counter()
        result = detect_period(5, 8_000_000)
        assert (result.pp, result.p) == (5_652_613, 31), result
        params = FoldParams.for_period(result, m=1)
        assert params.p_bar == 31
        breadth_ok, length_ok = hypothesis_status(result, params)
        assert breadth_ok
        matrix = fold(5, result, params, allow_unproven=not length_ok)
        config = as_config(matrix, 5)
        assert is_projective_plane(config) is True
        assert isomorphic(config, reference_plane(5)) is True
        assert time.perf_counter() - started < 1800.0


class TestOrderSixBounded:
    def test_million_row_budget_run(self, tmp_path):
        bound = length_bound(6)
        state = {"prev_first": 0}

        def checker(k, ones):
            assert len(ones) == 7
            assert 1 <= ones[0] <= k
            assert ones[0] >= state["prev_first"]
            assert all(a < b for a, b in zip(ones, ones[1:]))
            assert ones[-1] - ones[0] + 1 < bound
            state["prev_first"] = ones[0]

        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(6, 1_000_000, on_row=checker)
        exhausted = info.value
        assert exhausted.rows_examined == 1_000_000
        assert exhausted.resume is not None

        path = tmp_path / "n6.ckpt"
        checkpoint = Checkpoint.capture(
            exhausted.resume.generator, row_hash=EMPTY_ROW_HASH,
            log_offset=0, detector=exhausted.resume.detector)
        save_checkpoint(checkpoint, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded == checkpoint

        # The restored generator continues exactly like the live one.
        restored = loaded.restore_generator()
        live = exhausted.resume.generator.clone()
        after_restore = [restored.next_row() for _ in range(200)]
        after_live = [live.next_row() for _ in range(200)]
        assert [(r.index, r.ones) for r in after_restore] == \
               [(r.index, r.ones) for r in after_live]

        # The detector state is equally resumable: the next budget slice
        # continues the TOTAL row count rather than starting over.
        with pytest.raises(BudgetExhaustedError) as info2:
            detect_period(6, 1_001_000, resume=loaded.restore_resume())
        assert info2.value.rows_examined == 1_001_000

    def test_kill_safety_row_hash(self, tmp_path):
        def command(log, ckpt):
            return [sys.executable, "-m", "rectfree", "gen", "-n", "3",
                    "--rows", "60000", "--out", str(log),
                    "--checkpoint", str(ckpt),
                    "--checkpoint-every-rows", "2000",
                    "--checkpoint-every-seconds", "9999",
                    "--progress-every", "0"]

        env = {k: v for k, v in os.environ.items()
               if k != "RECTFREE_CHECKPOINT_DIR"}
        reference = subprocess.run(
            command(tmp_path / "ref.rows", tmp_path / "ref.ckpt"),
            capture_output=True, timeout=120, env=env)
        assert reference.returncode == 0, reference.stderr

        log, ckpt = tmp_path / "run.rows", tmp_path / "run.ckpt"
        victim = subprocess.Popen(command(log, ckpt),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, env=env)
        try:
            victim.wait(timeout=0.25)
        except subprocess.TimeoutExpired:
            victim.kill()
            victim.wait()
        resumed = subprocess.run(command(log, ckpt), capture_output=True,
                                 text=True, timeout=120, env=env)
        assert resumed.returncode == 0, resumed.stderr
        assert "rows: 60000" in resumed.stdout

        ref_bytes = (tmp_path / "ref.rows").read_bytes()
        run_bytes = log.read_bytes()
        assert run_bytes == ref_bytes
        assert log_prefix_hash(log, len(run_bytes)) == \
            log_prefix_hash(tmp_path / "ref.rows", len(ref_bytes))
        final = load_checkpoint(str(ckpt))
        assert final.row_hash == log_prefix_hash(log, final.log_offset)


class TestPropertySweeps:
    def test_full_property_set_within_two_minutes(self):
        started = time.perf_counter()
        for n in range(1, 7):
            sweep_invariants(n, 10_000)
        for n in range(1, 7):
            gen = new_generator(n)
            rows = [gen.next_row() for _ in range(2_000)]
            limit = min(gen.frontier_l - 1, len(rows))
            flags = {(row.index, j) for row in rows for j in row.ones}
            inside = {(i, j) for i, j in flags
                      if i <= limit and j <= limit}
            assert inside == {(j, i) for i, j in inside}
        for n in range(1, 5):
            prefix = [row.ones for row in generate_prefix(n, 500)]
            assert find_rectangle_oracle(prefix) is None
        for n in range(1, 4):
            fast = [row.ones for row in generate_prefix(n, 200)]
            assert fast == dense_rows(n + 1, n + 1, 200)
        assert time.perf_counter() - started < 120.0


class TestFoldReverification:
    @staticmethod
    def reverify_independently(matrix, n: int) -> None:
        """Weights, symmetry and rectangle-freeness checked from the
        dense form with test-local code only."""
        dense = matrix.to_dense()
        k = n + 1
        assert all(sum(row) == k for row in dense)
        assert all(sum(col) == k for col in zip(*dense))
        assert [list(col) for col in zip(*dense)] == dense
        sparse = [tuple(j for j, x in enumerate(row, 1) if x)
                  for row in dense]
        assert find_rectangle_oracle(sparse) is None

    def test_every_accepted_fold_reverifies(self):
        started = time.perf_counter()
        period1 = detect_period(1, 100)
        period2 = detect_period(2, 100)
        period3 = detect_period(3, 1_000)
        accepted = [
            (compact_plane(1, period1), 1),
            (compact_plane(2, period2), 2),
            (fold(1, period1, FoldParams.for_period(period1, m=2)), 1),
            (fold(2, period2, FoldParams.for_period(period2)), 2),
            (fold(3, period3, FoldParams.for_period(period3, m=1),
                  allow_unproven=True), 3),
            (fold(3, period3, FoldParams.for_period(period3)), 3),
        ]
        for matrix, n in accepted:
            self.reverify_independently(matrix, n)
        assert time.perf_counter() - started < 10.0

    def test_below_safe_length_multiplier_rejected(self):
        period = PeriodResult(n=1, pp=0, p=10, b_breadth=2, l_max=8,
                              case1=False, rows_examined=0)
        params = FoldParams.for_period(period, m=1)
        assert params.p_bar <= 2 * (period.l_max - 2)
        with pytest.raises(ConstraintViolationError,
                           match="far below the provably safe"):
            fold(1, period, params)
