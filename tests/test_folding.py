"""Wrapping the periodic tail into finite square matrices."""
import dataclasses
from array import array
from pathlib import Path

import pytest

from rectfree import (
    BudgetExhaustedError,
    ConstraintViolationError,
    FoldParams,
    InvalidParameterError,
    InvariantViolationError,
    PeriodResult,
    ResumeState,
    SizeLimitError,
    compact_plane,
    detect_period,
    fold,
    generate_prefix,
    hypothesis_status,
    load_checkpoint,
    regenerate_rows,
)
from rectfree import period as period_module

# Frozen expected outputs (verified independently by hand / dense oracle).
TWO_TRIANGLES = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
        (3, 4, 7), (3, 5, 6)]
E3_16 = [(1, 2, 4, 14), (1, 3, 5, 15), (2, 5, 6, 16), (1, 6, 7, 8),
         (2, 3, 7, 9), (3, 4, 6, 10), (4, 5, 7, 11), (4, 8, 9, 12),
         (5, 8, 10, 13), (6, 9, 11, 13), (7, 10, 12, 14), (8, 11, 14, 15),
         (9, 10, 15, 16), (1, 11, 12, 16), (2, 12, 13, 15), (3, 13, 14, 16)]
E3_32_HEAD = [(1, 2, 4, 30), (1, 3, 5, 31), (2, 5, 6, 32)]


@pytest.fixture(scope="module")
def period1():
    return detect_period(1, 100)


@pytest.fixture(scope="module")
def period2():
    return detect_period(2, 100)


@pytest.fixture(scope="module")
def period3():
    return detect_period(3, 1000)


class TestFoldParams:
    def test_defaults_pick_smallest_proven_multiplier(self, period3):
        params = FoldParams.for_period(period3)
        assert (params.m, params.p_bar, params.r, params.v) == (2, 32, 16, 80)

    def test_explicit_multiplier(self, period3):
        params = FoldParams.for_period(period3, m=1)
        assert (params.m, params.p_bar, params.r, params.v) == (1, 16, 8, 64)

    def test_explicit_base_offset(self, period3):
        params = FoldParams.for_period(period3, m=1, v=100)
        assert params.v == 100

    def test_base_offset_below_minimum_rejected(self, period3):
        with pytest.raises(InvalidParameterError, match="pp \\+ p_bar"):
            FoldParams.for_period(period3, m=1, v=63)

    @pytest.mark.parametrize("bad_m", [0, -1, True, "2", 1.5])
    def test_bad_multiplier_rejected(self, period3, bad_m):
        with pytest.raises(InvalidParameterError):
            FoldParams.for_period(period3, m=bad_m)

    def test_bool_base_offset_rejected(self, period3):
        with pytest.raises(InvalidParameterError):
            FoldParams.for_period(period3, m=8, v=True)


class TestHypothesisStatus:
    def test_gray_zone_multiplier(self, period3):
        params = FoldParams.for_period(period3, m=1)
        assert hypothesis_status(period3, params) == (True, False)

    def test_proven_multiplier(self, period3):
        params = FoldParams.for_period(period3, m=2)
        assert hypothesis_status(period3, params) == (True, True)

    def test_breadth_failure(self):
        period = PeriodResult(n=1, pp=0, p=4, b_breadth=5, l_max=2,
                              case1=False, rows_examined=50)
        params = FoldParams(m=1, p_bar=4, r=2, v=8)
        assert hypothesis_status(period, params) == (False, True)


def with_offsets(period, rows):
    """``period`` carrying the given diagonal offsets, one tuple per row
    from row pp + 1 on."""
    return dataclasses.replace(
        period, offsets=array("q", [e for row in rows for e in row]))


class TestFoldRefusals:
    # These hand-made results carry no offsets, so each refusal comes
    # from the parameter checks, which run before the offsets are read.

    def test_breadth_too_large_for_wrap(self):
        period = PeriodResult(n=1, pp=0, p=4, b_breadth=5, l_max=3,
                              case1=False, rows_examined=50)
        params = FoldParams(m=1, p_bar=4, r=2, v=8)
        with pytest.raises(ConstraintViolationError,
                           match="does not exceed the breadth"):
            fold(1, period, params)

    def test_far_below_safe_length_refused_by_default(self):
        # p_bar = 10 <= 2*(l_max-2) = 12: refused unless explicitly waived.
        period = PeriodResult(n=1, pp=0, p=10, b_breadth=2, l_max=8,
                              case1=False, rows_examined=100)
        params = FoldParams(m=1, p_bar=10, r=5, v=10)
        with pytest.raises(ConstraintViolationError,
                           match="far below the provably safe"):
            fold(1, period, params)

    def test_below_bound_wrap_with_rectangle_reported(self):
        # Two duplicated row patterns wrap cleanly (weights, symmetry) but
        # share two columns; the always-run exhaustive check must name it
        # a constraint problem, not an internal bug.  Rows 5..8 have their
        # ones at (5, 6), (5, 6), (7, 8), (7, 8).
        period = with_offsets(
            PeriodResult(n=1, pp=0, p=4, b_breadth=1, l_max=4,
                         case1=False, rows_examined=0),
            [(0, 1), (-1, 0), (0, 1), (-1, 0)])
        params = FoldParams(m=1, p_bar=4, r=2, v=4)
        assert params.p_bar <= 2 * (period.l_max - 2)
        with pytest.raises(ConstraintViolationError,
                           match="below the proven threshold"):
            fold(1, period, params, allow_unproven=True)

    def test_below_bound_wrap_can_still_be_clean(self):
        # A 5-cycle band wraps rectangle-free even though p_bar = 5 is
        # below 2*(l_max-2) = 6 — shortness alone decides nothing, which
        # is exactly how the order-5 construction yields its 31x31 plane.
        period = with_offsets(
            PeriodResult(n=1, pp=0, p=5, b_breadth=1, l_max=5,
                         case1=False, rows_examined=0),
            [(-1, 1)] * 5)
        params = FoldParams(m=1, p_bar=5, r=2, v=5)
        assert params.p_bar <= 2 * (period.l_max - 2)
        matrix = fold(1, period, params, allow_unproven=True)
        assert matrix.rows == ((2, 5), (1, 3), (2, 4), (3, 5), (1, 4))

    def test_gray_zone_requires_explicit_opt_in(self, period3):
        params = FoldParams.for_period(period3, m=1)
        with pytest.raises(ConstraintViolationError, match="allow_unproven"):
            fold(3, period3, params)

    def test_side_not_multiple_of_period(self, period3):
        params = FoldParams(m=1, p_bar=15, r=7, v=80)
        with pytest.raises(InvalidParameterError, match="p\\*m"):
            fold(3, period3, params)

    def test_base_offset_below_minimum(self, period3):
        params = FoldParams(m=1, p_bar=16, r=8, v=50)
        with pytest.raises(InvalidParameterError, match="below"):
            fold(3, period3, params)

    def test_oversized_fold_refused(self):
        period = PeriodResult(n=1, pp=0, p=200_000, b_breadth=10, l_max=50,
                              case1=False, rows_examined=10)
        params = FoldParams(m=1, p_bar=200_000, r=100_000, v=200_000)
        with pytest.raises(SizeLimitError):
            fold(1, period, params)


class TestFoldGoldens:
    def test_order1_two_triangles(self, period1):
        params = FoldParams.for_period(period1, m=2)
        assert (params.p_bar, params.r, params.v) == (6, 3, 6)
        matrix = fold(1, period1, params)
        assert list(matrix.rows) == TWO_TRIANGLES
        assert matrix.n_rows == matrix.n_cols == 6
        assert matrix.is_symmetric

    def test_order3_unproven_16x16(self, period3):
        params = FoldParams.for_period(period3, m=1)
        matrix = fold(3, period3, params, allow_unproven=True)
        assert list(matrix.rows) == E3_16
        assert matrix.is_symmetric
        assert matrix.column_weights() == [4] * 16

    def test_order3_default_32x32(self, period3):
        params = FoldParams.for_period(period3)
        matrix = fold(3, period3, params)
        assert matrix.n_rows == matrix.n_cols == 32
        assert list(matrix.rows[:3]) == E3_32_HEAD
        assert matrix.is_symmetric
        assert matrix.column_weights() == [4] * 32

    def test_base_offset_shift_by_period_is_invisible(self, period1):
        at_six = fold(1, period1, FoldParams.for_period(period1, m=2))
        at_nine = fold(1, period1, FoldParams.for_period(period1, m=2, v=9))
        assert at_six == at_nine

    @pytest.mark.parametrize("cut", [1, 4, 64])
    def test_wrong_length_offsets_rejected(self, period3, cut):
        params = FoldParams.for_period(period3)
        short = dataclasses.replace(period3, offsets=period3.offsets[cut:])
        with pytest.raises(InvalidParameterError, match="p\\*\\(n\\+1\\)"):
            fold(3, short, params)
        with pytest.raises(InvalidParameterError, match="p\\*\\(n\\+1\\)"):
            fold(2, period3, params)  # the result of another order


class TestFoldTamperDetection:
    # Order 1 has p = 3; the fold at m = 2 wraps rows 7..12, and row r
    # takes the offsets of row (r - 1) mod 3 + 1: (0, 1), (-1, 1), (-1, 0).

    def test_out_of_band_one_detected(self, period1):
        params = FoldParams.for_period(period1, m=2)
        # Row 7 gets a one at column 14, outside every wrap band.
        bad = with_offsets(period1, [(0, 7), (-1, 1), (-1, 0)])
        with pytest.raises(InvariantViolationError, match="band"):
            fold(1, bad, params)

    def test_wrong_weight_detected(self, period1):
        params = FoldParams.for_period(period1, m=2)
        # Rows 7 and 10 move their second one to column 9 and 12, so
        # wrapped columns 3 and 6 gain a one that columns 2 and 5 lose.
        bad = with_offsets(period1, [(0, 2), (-1, 1), (-1, 0)])
        with pytest.raises(InvariantViolationError, match="weight"):
            fold(1, bad, params)

    @pytest.mark.parametrize("build", [
        lambda period: fold(1, period, FoldParams(m=1, p_bar=4, r=2, v=4)),
        lambda period: compact_plane(1, period),
    ], ids=["fold", "compact"])
    def test_rectangle_in_a_proven_matrix_is_a_bug(self, build):
        # The rows of test_below_bound_wrap_with_rectangle_reported under
        # a false l_max = 2, which makes p_bar = 4 >= 2*l_max provably safe.
        period = with_offsets(
            PeriodResult(n=1, pp=0, p=4, b_breadth=1, l_max=2,
                         case1=False, rows_examined=0),
            [(0, 1), (-1, 0), (0, 1), (-1, 0)])
        with pytest.raises(InvariantViolationError, match="has a rectangle"):
            build(period)


class TestCompactPlane:
    def test_order1_three_by_three(self, period1):
        matrix = compact_plane(1, period1)
        assert list(matrix.rows) == [(1, 2), (1, 3), (2, 3)]
        assert matrix.to_dense() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]

    def test_order2_fano(self, period2):
        matrix = compact_plane(2, period2)
        assert list(matrix.rows) == FANO

    def test_nonzero_preperiod_rejected(self, period3):
        with pytest.raises(InvalidParameterError, match="preperiod"):
            compact_plane(3, period3)

    @pytest.mark.parametrize("cut", [1, 3, 21])
    def test_wrong_length_offsets_rejected(self, period2, cut):
        short = dataclasses.replace(period2, offsets=period2.offsets[cut:])
        with pytest.raises(InvalidParameterError, match="p\\*\\(n\\+1\\)"):
            compact_plane(2, short)

    def test_row_reaching_past_side_rejected(self, period1):
        # Rows (1, 2), (1, 4), (2, 3): row 2 reaches column 4 > p = 3.
        bad = with_offsets(period1, [(0, 1), (-1, 2), (-1, 0)])
        with pytest.raises(InvariantViolationError, match="zero-preperiod"):
            compact_plane(1, bad)

    def test_oversized_compact_refused(self):
        period = PeriodResult(n=1, pp=0, p=200_000, b_breadth=1, l_max=3,
                              case1=True, rows_examined=200_000)
        with pytest.raises(SizeLimitError):
            compact_plane(1, period)


# -- fold from the result against the slow path it replaced ------------------

ORACLE_ORDERS = (1, 2, 3, 4, 16)
FAR_V = 10_007


@pytest.fixture(scope="module")
def oracle():
    """Per order: its detected period and rows 1..FAR_V + 3p, regenerated
    from scratch (index 0 unused)."""
    table = {}
    for n in ORACLE_ORDERS:
        result = detect_period(n, 10_000)
        rows = regenerate_rows(n, 1, FAR_V + 3 * result.p)
        table[n] = (result, [None] + [row.ones for row in rows])
    return table


def wrapped_rows(ones_of, params):
    """Rows v+1..v+p_bar wrapped onto p_bar columns, as the fold of
    regenerated rows built them."""
    v, p_bar = params.v, params.p_bar
    return tuple(tuple(sorted((c - v - 1) % p_bar + 1 for c in ones_of[k]))
                 for k in range(v + 1, v + p_bar + 1))


def offsets_oracle(ones_of, pp, p):
    """Diagonal offsets of rows pp+1..pp+p, flat."""
    return [c - k for k in range(pp + 1, pp + p + 1) for c in ones_of[k]]


class TestFoldFromTheResult:
    """Folds and compact forms built from ``PeriodResult.offsets`` are
    the ones built from regenerated rows."""

    @pytest.mark.parametrize("n", ORACLE_ORDERS)
    def test_offsets_are_one_period_of_rows(self, oracle, n):
        result, ones_of = oracle[n]
        assert list(result.offsets) == \
            offsets_oracle(ones_of, result.pp, result.p)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", ORACLE_ORDERS)
    def test_fold_matches_regenerated_rows(self, oracle, n, m):
        result, ones_of = oracle[n]
        smallest = result.pp + result.p * m
        for v in (smallest, smallest + 5, FAR_V):
            params = FoldParams.for_period(result, m=m, v=v)
            breadth_ok, length_ok = hypothesis_status(result, params)
            if not breadth_ok:
                with pytest.raises(ConstraintViolationError,
                                   match="breadth"):
                    fold(n, result, params, allow_unproven=True)
                continue
            matrix = fold(n, result, params, allow_unproven=not length_ok)
            assert matrix.rows == wrapped_rows(ones_of, params), (n, m, v)

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_compact_plane_matches_the_prefix(self, oracle, n):
        result, _ = oracle[n]
        assert compact_plane(n, result).rows == tuple(
            row.ones for row in generate_prefix(n, result.p))


class TestOffsetsAfterAResume:
    """A resumed run carries the offsets a fresh run carries."""

    @pytest.mark.parametrize("n, rows", [(2, 5), (4, 15), (16, 200)])
    def test_restart_shortcut_from_a_ring_after_row_1(self, n, rows):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(n, rows)
        resume = info.value.resume
        snap = resume.detector
        cut = 2  # the ring now starts at row 3
        trimmed = dataclasses.replace(
            snap, ring_first=snap.ring_first + cut,
            ring=snap.ring[cut * (n + 1):])
        res = detect_period(n, 10_000, resume=ResumeState(
            resume.generator, trimmed))
        fresh = detect_period(n, 10_000)
        assert res.case1
        assert list(res.offsets) == list(fresh.offsets)
        assert compact_plane(n, res) == compact_plane(n, fresh)

    def test_resumed_mid_verification_pp_from_the_fresh_pass(
            self, monkeypatch):
        # A format-2 checkpoint cut mid-verification of the candidate
        # (55, 16): its ring starts at k0 = 55, past the last mismatch at
        # row 48, so pp comes from _minimize_pp when the anchor at row
        # 112 returns at row 144 (p = 32, shrunk to 16).
        cp = load_checkpoint(str(Path(__file__).parent / "fixtures"
                                 / "period-n3-w16-r130-v2.ckpt"))
        assert cp.detector.ring_first == 55
        calls = []
        minimize_pp = period_module._minimize_pp
        monkeypatch.setattr(period_module, "_minimize_pp",
                            lambda *a: calls.append(a) or minimize_pp(*a))
        res = detect_period(3, 10_000, window=16,
                            resume=cp.restore_resume())
        assert calls == [(3, 113, 16)]
        fresh = detect_period(3, 10_000, window=16)
        assert list(res.offsets) == list(fresh.offsets)
        params = FoldParams.for_period(res)
        assert fold(3, res, params) == fold(3, fresh, params)


class TestRegenerateRows:
    def test_matches_full_prefix(self):
        tail = regenerate_rows(1, 7, 12)
        assert [row.index for row in tail] == list(range(7, 13))
        full = generate_prefix(1, 12)
        assert [row.ones for row in tail] == [row.ones for row in full[6:]]

    @pytest.mark.parametrize("first,last", [(0, 5), (3, 2)])
    def test_bad_range_rejected(self, first, last):
        with pytest.raises(InvalidParameterError):
            regenerate_rows(1, first, last)
