"""Configuration axioms, plane recognition, isomorphism, automorphisms."""
import hashlib
import random
from itertools import combinations

import _dense
import pytest
from _dense import automorphism_count_oracle, isomorphic_oracle
from _marks import needs_extended

from rectfree import (
    Configuration,
    ConfigurationViolation,
    FoldParams,
    IncidenceMatrix,
    InvalidParameterError,
    InvariantViolationError,
    SizeLimitError,
    automorphism_count,
    canonical_form,
    compact_plane,
    detect_period,
    find_rectangle,
    fold,
    generate_prefix,
    is_desarguesian,
    is_projective_plane,
    isomorphic,
    levi_dot,
    reference_plane,
    regenerate_rows,
    verify_configuration,
)
from rectfree.verify import (DEFAULT_VERTEX_BUDGET, _canon_search,
                             _levi_adjacency, _levi_search, _refine)

TRIANGLE = [(1, 2), (1, 3), (2, 3)]
HEXAGON = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
TWO_TRIANGLES = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
        (3, 4, 7), (3, 5, 6)]
E3_16 = [(1, 2, 4, 14), (1, 3, 5, 15), (2, 5, 6, 16), (1, 6, 7, 8),
         (2, 3, 7, 9), (3, 4, 6, 10), (4, 5, 7, 11), (4, 8, 9, 12),
         (5, 8, 10, 13), (6, 9, 11, 13), (7, 10, 12, 14), (8, 11, 14, 15),
         (9, 10, 15, 16), (1, 11, 12, 16), (2, 12, 13, 15), (3, 13, 14, 16)]

SQUARE = [(1, 2), (2, 3), (3, 4), (1, 4)]
HEPTAGON = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7)]
# Lines {i, i+1, i+3} mod 8, points renumbered 1..8.
MOBIUS_KANTOR = [tuple(sorted((i + d) % 8 + 1 for d in (0, 1, 3)))
                 for i in range(8)]
# An 11_3 configuration with two automorphisms that is not self-dual.
NON_SELF_DUAL = [(1, 4, 6), (6, 8, 11), (9, 10, 11), (2, 5, 10), (3, 7, 9),
                 (5, 6, 7), (1, 5, 8), (1, 3, 10), (2, 4, 7), (2, 8, 9),
                 (3, 4, 11)]

ALL_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def as_config(rows, n):
    result = verify_configuration(IncidenceMatrix.from_rows(rows), n)
    assert isinstance(result, Configuration), result
    return result


@pytest.fixture(scope="module")
def triangle():
    return as_config(TRIANGLE, 1)


@pytest.fixture(scope="module")
def fano():
    return as_config(FANO, 2)


@pytest.fixture(scope="module")
def e3_16():
    return as_config(E3_16, 3)


@pytest.fixture(scope="module")
def e3_32():
    period = detect_period(3, 1000)
    matrix = fold(3, period, FoldParams.for_period(period),
                  regenerate_rows(3, 81, 112))
    return verify_configuration(matrix, 3)


@pytest.fixture(scope="module")
def fold_160():
    """The 160_4 fold that ``rectfree fold -n 3 -m 10`` prints."""
    period = detect_period(3, 1000)
    params = FoldParams.for_period(period, m=10)
    matrix = fold(3, period, params,
                  regenerate_rows(3, params.v + 1, params.v + params.p_bar))
    return verify_configuration(matrix, 3)


def relabel(c: Configuration, seed: int) -> Configuration:
    """Apply a seeded random point and line permutation."""
    rng = random.Random(seed)
    perm_p = list(range(1, c.v + 1))
    rng.shuffle(perm_p)
    order = list(range(c.v))
    rng.shuffle(order)
    return Configuration(c.v, c.k, tuple(
        tuple(sorted(perm_p[p - 1] for p in c.incidence[i]))
        for i in order))


def dual(c: Configuration) -> Configuration:
    """Swap the roles of points and lines."""
    return Configuration(c.v, c.k, tuple(c.lines_through()))


def disjoint_union(a: Configuration, b: Configuration) -> Configuration:
    """a beside b, b's points renumbered after a's."""
    return Configuration(a.v + b.v, a.k, a.incidence + tuple(
        tuple(p + a.v for p in line) for line in b.incidence))


def random_configuration(v: int, k: int, seed: int) -> Configuration:
    """A seeded random v_k configuration: random admissible lines, one at
    a time, restarting whenever no admissible line is left."""
    rng = random.Random(seed)
    while True:
        degree = [0] * (v + 1)
        pairs: set[tuple[int, int]] = set()
        lines = []
        for _ in range(v):
            free = [p for p in range(1, v + 1) if degree[p] < k]
            options = [t for t in combinations(free, k)
                       if pairs.isdisjoint(combinations(t, 2))]
            if not options:
                break
            line = rng.choice(options)
            lines.append(line)
            pairs.update(combinations(line, 2))
            for p in line:
                degree[p] += 1
        else:
            return as_config(lines, k - 1)


class TestFindRectangle:
    def test_clean_prefix(self):
        rows = [row.ones for row in generate_prefix(3, 300)]
        assert find_rectangle(rows) is None

    def test_first_witness_reported(self):
        assert find_rectangle([(1, 2), (3, 4), (1, 2, 5)]) == (1, 3, 1, 2)

    def test_empty(self):
        assert find_rectangle([]) is None


class TestVerifyConfiguration:
    def test_triangle_accepted(self, triangle):
        assert (triangle.v, triangle.k) == (3, 2)
        assert triangle.incidence == tuple(TRIANGLE)

    def test_fano_accepted(self, fano):
        assert (fano.v, fano.k) == (7, 3)

    def test_lines_through(self, triangle):
        assert triangle.lines_through() == [(1, 2), (1, 3), (2, 3)]

    def test_matrix_round_trip(self, fano):
        assert fano.matrix().rows == tuple(FANO)

    def test_shared_pair_is_axiom_i(self):
        # All weights correct, but lines 1 and 2 share two points.
        result = verify_configuration(
            IncidenceMatrix.from_dense([[1, 1, 1]] * 3), 2)
        assert isinstance(result, ConfigurationViolation)
        assert result.axiom == "i"
        assert result.witness == (1, 2, 1, 2)
        assert str(result) == "lines 1 and 2 share points 1 and 2"

    def test_wrong_line_size_is_axiom_ii(self):
        bad = [list(row) for row in
               IncidenceMatrix.from_rows(FANO).to_dense()]
        bad[0][0] = 0  # drop a one from line 1
        result = verify_configuration(IncidenceMatrix.from_dense(bad), 2)
        assert isinstance(result, ConfigurationViolation)
        assert result.axiom == "ii"
        assert result.witness == (1, 2)
        assert str(result) == "line 1 has 2 points, expected 3"

    def test_wrong_point_degree_is_axiom_iii(self):
        rows = list(FANO)
        rows[3] = (2, 4, 7)  # was (2, 4, 6): line sizes stay right
        result = verify_configuration(IncidenceMatrix.from_rows(rows), 2)
        assert isinstance(result, ConfigurationViolation)
        assert result.axiom == "iii"
        assert result.witness == (6, 2)
        assert str(result) == "point 6 lies on 2 lines, expected 3"

    @pytest.mark.parametrize("bad_n", [0, -1, True, 2.0, "2"])
    def test_bad_order_rejected(self, bad_n):
        with pytest.raises(InvalidParameterError):
            verify_configuration(IncidenceMatrix.from_rows(TRIANGLE), bad_n)

    def test_non_square_rejected(self):
        matrix = IncidenceMatrix.from_rows([(1, 2)], n_cols=3)
        with pytest.raises(InvalidParameterError, match="square"):
            verify_configuration(matrix, 1)

    def test_too_many_points_rejected(self):
        huge = IncidenceMatrix(10_001, 10_001, ((),) * 10_001)
        with pytest.raises(SizeLimitError):
            verify_configuration(huge, 1)


class TestProjectivePlane:
    def test_fano_is_a_plane(self, fano):
        assert is_projective_plane(fano) is True

    def test_triangle_is_not(self, triangle):
        assert is_projective_plane(triangle) is False

    def test_sixteen_point_fold_is_not(self, e3_16):
        assert is_projective_plane(e3_16) is False

    def test_compact_order4_is_a_plane(self):
        period = detect_period(4, 100)
        matrix = compact_plane(4, period, generate_prefix(4, 21))
        config = verify_configuration(matrix, 4)
        assert isinstance(config, Configuration)
        assert (config.v, config.k) == (21, 5)
        assert is_projective_plane(config) is True

    def test_plane_parameters_without_joins_raise(self):
        # Not a real configuration: right counts, broken join property.
        fake = Configuration(7, 3, ((1, 2, 3),) * 7)
        with pytest.raises(InvariantViolationError, match="joined"):
            is_projective_plane(fake)


class TestReferencePlanes:
    @pytest.mark.parametrize("q", ALL_PRIME_POWERS)
    def test_reference_is_a_verified_plane(self, q):
        ref = reference_plane(q)
        assert ref.v == q * q + q + 1
        checked = verify_configuration(ref.matrix(), q)
        assert isinstance(checked, Configuration)
        assert is_projective_plane(checked) is True

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, True])
    def test_unsupported_order_rejected(self, q):
        with pytest.raises(InvalidParameterError):
            reference_plane(q)


class TestDesarguesian:
    @pytest.mark.parametrize("q", ALL_PRIME_POWERS)
    def test_references_are_desarguesian(self, q):
        assert is_desarguesian(reference_plane(q)) is True

    def test_non_planes_are_not(self, triangle, e3_16):
        assert is_desarguesian(triangle) is False
        assert is_desarguesian(e3_16) is False

    def test_relabel_invariant(self):
        assert is_desarguesian(relabel(reference_plane(9), 31)) is True


class TestIsomorphic:
    def test_compact_fano_matches_reference(self):
        period = detect_period(2, 100)
        config = verify_configuration(
            compact_plane(2, period, generate_prefix(2, 7)), 2)
        assert isomorphic(config, reference_plane(2)) is True

    def test_relabel_invariance(self, fano):
        assert isomorphic(fano, relabel(fano, 7)) is True

    def test_different_sizes_differ(self, triangle, fano):
        assert isomorphic(triangle, fano) is False

    def test_same_size_non_isomorphic_pair(self):
        two = as_config(TWO_TRIANGLES, 1)
        hexagon = as_config(HEXAGON, 1)
        assert isomorphic(two, hexagon) is False
        assert isomorphic(two, relabel(two, 3)) is True

    def test_plane_versus_degenerate_same_size(self, fano):
        fake = Configuration(7, 3, ((1, 2, 3),) * 7)
        assert isomorphic(fano, fake) is False
        assert isomorphic(fake, fano) is False

    def test_identity(self, e3_16):
        assert isomorphic(e3_16, e3_16) is True

    def test_vertex_budget_enforced(self, e3_16):
        with pytest.raises(SizeLimitError):
            isomorphic(e3_16, e3_16, vertex_budget=10)


class TestAutomorphismCount:
    def test_triangle(self, triangle):
        assert automorphism_count(triangle) == 6

    def test_two_disjoint_triangles(self):
        assert automorphism_count(as_config(TWO_TRIANGLES, 1)) == 72

    def test_fano(self, fano):
        assert automorphism_count(fano) == 168

    def test_sixteen_point_fold_is_nearly_rigid(self, e3_16):
        assert automorphism_count(e3_16) == 2

    def test_thirty_two_point_fold_is_nearly_rigid(self, e3_32):
        assert automorphism_count(e3_32) == 2

    def test_relabel_invariant(self, fano):
        assert automorphism_count(relabel(fano, 11)) == 168

    def test_vertex_budget_enforced(self, e3_16):
        with pytest.raises(SizeLimitError):
            automorphism_count(e3_16, vertex_budget=5)

    def test_desarguesian_plane_is_not_charged(self, fano):
        # Answered by theorem before the search and its charge, as in
        # isomorphic.
        assert automorphism_count(fano, vertex_budget=5) == 168

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_pgammal_order_matches_the_search(self, q):
        # 168, 5 616, 120 960 (e = 2) and 372 000: the theorem's
        # e q^3 (q^3 - 1)(q^2 - 1) against the search it skips.
        plane = relabel(reference_plane(q), q)
        assert automorphism_count(plane) == \
            _levi_search(plane, 0, DEFAULT_VERTEX_BUDGET)[1]

    @needs_extended
    def test_pgammal_order_matches_the_search_for_order_7(self):
        plane = reference_plane(7)
        assert automorphism_count(plane) == 5_630_688 == \
            _levi_search(plane, 0, DEFAULT_VERTEX_BUDGET)[1]


class TestCanonicalForm:
    def test_relabel_equality(self, fano):
        form = canonical_form(fano)
        assert form.startswith(b"7:3:")
        assert canonical_form(relabel(fano, 13)) == form

    def test_distinguishes_non_isomorphic(self):
        two = as_config(TWO_TRIANGLES, 1)
        hexagon = as_config(HEXAGON, 1)
        assert canonical_form(two) != canonical_form(hexagon)

    def test_fold_base_offset_invisible(self, e3_32):
        period = detect_period(3, 1000)
        shifted = fold(3, period, FoldParams.for_period(period, v=85),
                       regenerate_rows(3, 86, 117))
        other = verify_configuration(shifted, 3)
        assert shifted.rows != e3_32.incidence  # genuinely different labels
        assert canonical_form(other) == canonical_form(e3_32)

    def test_vertex_budget_enforced(self, triangle):
        with pytest.raises(SizeLimitError):
            canonical_form(triangle, vertex_budget=5)


class TestLeviDot:
    def test_triangle_golden(self, triangle):
        assert levi_dot(triangle) == (
            "graph levi {\n"
            "  p1 -- l1;\n"
            "  p2 -- l1;\n"
            "  p1 -- l2;\n"
            "  p3 -- l2;\n"
            "  p2 -- l3;\n"
            "  p3 -- l3;\n"
            "}\n")


ORACLE_CASES = {
    "triangle": (TRIANGLE, 1),
    "square": (SQUARE, 1),
    "hexagon": (HEXAGON, 1),
    "two_triangles": (TWO_TRIANGLES, 1),
    "heptagon": (HEPTAGON, 1),
    "fano": (FANO, 2),
    "mobius_kantor": (MOBIUS_KANTOR, 2),
}
# (v, k, seed): two triangles, a triangle and a square, a heptagon, a
# triangle and a pentagon, an octagon, relabeled Fano and Mobius-Kantor.
RANDOM_CASES = [(6, 2, 4), (7, 2, 2), (7, 2, 1), (8, 2, 1), (8, 2, 2),
                (7, 3, 1), (8, 3, 1)]


class TestAgainstBruteForce:
    """The one canonical search against trying every point permutation."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_named_automorphism_counts(self, name):
        rows, n = ORACLE_CASES[name]
        assert automorphism_count(as_config(rows, n)) \
            == automorphism_count_oracle(rows)

    @pytest.mark.parametrize("v,k,seed", RANDOM_CASES)
    def test_random_automorphism_counts(self, v, k, seed):
        c = random_configuration(v, k, seed)
        assert automorphism_count(c) == automorphism_count_oracle(c.incidence)

    def test_isomorphism_of_every_same_size_pair(self):
        configs = [as_config(rows, n) for rows, n in ORACLE_CASES.values()]
        configs += [random_configuration(*case) for case in RANDOM_CASES]
        answers = set()
        for a, b in combinations(configs, 2):
            if (a.v, a.k) == (b.v, b.k):
                expected = isomorphic_oracle(a.incidence, b.incidence)
                assert isomorphic(a, b) is expected
                assert (canonical_form(a) == canonical_form(b)) is expected
                answers.add(expected)
        assert answers == {True, False}

    def test_dual_has_the_same_group_but_is_not_isomorphic(self):
        c = as_config(NON_SELF_DUAL, 2)
        assert automorphism_count(c) == automorphism_count(dual(c)) == 2
        assert isomorphic(c, dual(c)) is False
        assert isomorphic(dual(c), relabel(dual(c), 17)) is True


# sha256(canonical_form(c)).hexdigest()[:16], as the full-tree search
# gave them.
CANONICAL_FORM_PINS = {
    "triangle": "b0dd8b557871b491",
    "fano": "e965a6af60f07d9f",
    "e3_16": "85dcc5e4e5cff59f",
    "e3_32": "e5c88672e9806b91",
    "fold_160": "7a440983d9edf8d5",
}


@pytest.mark.parametrize("name", CANONICAL_FORM_PINS)
def test_canonical_form_bytes_are_pinned(name, request):
    c = request.getfixturevalue(name)
    digest = hashlib.sha256(canonical_form(c)).hexdigest()[:16]
    assert digest == CANONICAL_FORM_PINS[name]


def test_fold_160_group_order(fold_160):
    assert automorphism_count(fold_160) == 10


@pytest.fixture(scope="module")
def slow_path_runs():
    """The full-tree search of tests/_dense.py on seeded random 10_3 to
    15_3 configurations, their duals, X + X and X + dual(X): per input
    the Levi graph, the root colors, the oracle's (certificate, count),
    and every (colors in, colors out) of its refinement calls."""
    xs = [random_configuration(v, 3, seed)
          for v in range(10, 16) for seed in (1, 2, 3)]
    inputs = (xs + [dual(x) for x in xs]
              + [disjoint_union(x, x) for x in xs[:2]]
              + [disjoint_union(x, dual(x)) for x in xs[:2]])
    oracle_refine = _dense._refine
    runs = []
    try:
        for c in inputs:
            adj = _levi_adjacency(c)
            visited = []

            def spy(adj, colors):
                out = oracle_refine(adj, colors)
                visited.append((colors, out))
                return out

            _dense._refine = spy
            root = [0] * c.v + [1] * c.v
            runs.append((adj, root, _dense._canon_search(adj, root),
                         visited))
    finally:
        _dense._refine = oracle_refine
    return runs


class TestAgainstSlowPath:
    """The pruned search and the incremental refinement against the
    full-tree search and whole-graph refinement they replaced."""

    def test_certificates_and_group_orders(self, slow_path_runs):
        counts = set()
        for adj, root, expected, _ in slow_path_runs:
            assert _canon_search(adj, root) == expected
            counts.add(expected[1])
        assert {1, 2, 18, 72} <= counts

    def test_refinement_at_every_oracle_node(self, slow_path_runs):
        nodes = 0
        for adj, _, _, visited in slow_path_runs:
            for colors, expected in visited:
                assert _refine(adj, colors) == expected
                # Below the root, one vertex holds the fresh color.
                fresh = [u for u, col in enumerate(colors) if col == len(adj)]
                if fresh:
                    assert _refine(adj, colors, fresh) == expected
                    nodes += 1
        assert nodes > 1000
