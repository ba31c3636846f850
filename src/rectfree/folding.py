"""Folding the periodic tail of the construction into finite matrices.

Rows v+1 .. v+p_bar of the infinite matrix (v at least the preperiod
plus p_bar, p_bar a multiple of the period) are wrapped cyclically into
p_bar columns: a one at absolute column c becomes column
((c-v-1) mod p_bar) + 1.  Because every one sits within b_breadth of
the diagonal and floor(p_bar/2) exceeds b_breadth, each one lands in
exactly one of three bands — unshifted, wrapped up by p_bar, or wrapped
down by p_bar — and the result is a square symmetric matrix with all
row and column weights n+1.

Rectangle-freeness of the wrap is guaranteed once p_bar >= 2*l_max
(l_max the longest row in the periodic part).  Any shorter wrap is
refused by default, because the guarantee no longer applies — and below
2*(l_max-2) even the safety argument's case analysis works against it.
Yet shortness alone does not decide the outcome: the order-5
construction wraps to a rectangle-free 31 x 31 square (the projective
plane of order 5) with l_max = 22, deep inside the refused range.  So
``allow_unproven=True`` builds any well-defined wrap and the exhaustive
rectangle check — always run — becomes the arbiter.

When the preperiod is zero there is also the compact form: the p x p
leading principal submatrix of the construction itself.

All stated properties (weights, symmetry, rectangle-freeness) are
re-verified exhaustively on every produced matrix, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (ConstraintViolationError, InvalidParameterError,
                     InvariantViolationError, SizeLimitError)
from .generator import SparseRow, new_generator
from .matrix import IncidenceMatrix
from .period import PeriodResult, minimal_fold_multiplier
from .verify import find_rectangle

#: Folds beyond this side length are refused (dense verification cost).
MAX_FOLD_SIZE = 100_000


@dataclass(frozen=True)
class FoldParams:
    """Wrap geometry: multiplier m, side p_bar = p*m, half-width
    r = floor(p_bar/2), and base offset v >= pp + p_bar."""

    m: int
    p_bar: int
    r: int
    v: int

    @classmethod
    def for_period(cls, period: PeriodResult, m: int | None = None,
                   v: int | None = None) -> "FoldParams":
        """Parameters for ``period``; m defaults to the smallest
        multiplier meeting both fold hypotheses, v to pp + p_bar."""
        if m is None:
            m = minimal_fold_multiplier(period)
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InvalidParameterError(f"multiplier m must be >= 1, got {m!r}")
        p_bar = period.p * m
        if v is None:
            v = period.pp + p_bar
        if not isinstance(v, int) or isinstance(v, bool) or v < period.pp + p_bar:
            raise InvalidParameterError(
                f"base offset v must be >= pp + p_bar = "
                f"{period.pp + p_bar}, got {v!r}")
        return cls(m=m, p_bar=p_bar, r=p_bar // 2, v=v)


def hypothesis_status(period: PeriodResult, params: FoldParams
                      ) -> tuple[bool, bool]:
    """(breadth_ok, length_ok) for the two fold hypotheses:
    floor(p_bar/2) > b_breadth and p_bar >= 2*l_max."""
    return (params.r > period.b_breadth,
            params.p_bar >= 2 * period.l_max)


def _check_fold(period: PeriodResult, params: FoldParams,
                allow_unproven: bool) -> bool:
    """Validate params against the period; returns whether
    rectangle-freeness is guaranteed in advance."""
    if params.p_bar != period.p * params.m:
        raise InvalidParameterError(
            f"p_bar {params.p_bar} is not p*m = {period.p * params.m}")
    if params.p_bar > MAX_FOLD_SIZE:
        raise SizeLimitError(
            f"fold side {params.p_bar} exceeds the limit {MAX_FOLD_SIZE}")
    if params.v < period.pp + params.p_bar:
        raise InvalidParameterError(
            f"base offset v = {params.v} is below pp + p_bar = "
            f"{period.pp + params.p_bar}")
    breadth_ok, length_ok = hypothesis_status(period, params)
    if not breadth_ok:
        raise ConstraintViolationError(
            f"floor(p_bar/2) = {params.r} does not exceed the breadth "
            f"{period.b_breadth}; the wrap is not well-defined — "
            f"increase m")
    if length_ok:
        return True
    if not allow_unproven:
        if params.p_bar <= 2 * (period.l_max - 2):
            raise ConstraintViolationError(
                f"p_bar = {params.p_bar} <= 2*(l_max-2) = "
                f"{2 * (period.l_max - 2)}: far below the provably safe "
                f"length 2*l_max = {2 * period.l_max} — increase m, or "
                f"pass allow_unproven to rely on the exhaustive check")
        raise ConstraintViolationError(
            f"p_bar = {params.p_bar} < 2*l_max = {2 * period.l_max}: "
            f"rectangle-freeness is not guaranteed at this multiplier; "
            f"increase m or pass allow_unproven to rely on the "
            f"exhaustive check")
    return False


def _period_offsets(n: int, period: PeriodResult):
    """``period.offsets``, refused unless it holds p*(n+1) offsets."""
    if len(period.offsets) != period.p * (n + 1):
        raise InvalidParameterError(
            f"the period result holds {len(period.offsets)} offsets, not "
            f"p*(n+1) = {period.p * (n + 1)}")
    return period.offsets


def fold(n: int, period: PeriodResult, fold_params: FoldParams, *,
         allow_unproven: bool = False) -> IncidenceMatrix:
    """Wrap rows v+1..v+p_bar into a p_bar x p_bar incidence matrix.

    The rows come from ``period.offsets``.

    Raises a constraint violation when the fold hypotheses fail (see
    module docstring for the ``allow_unproven`` escape hatch) and an
    invariant violation — a bug signal, not an input problem — if the
    wrapped matrix misses any of its proven properties.
    """
    guaranteed = _check_fold(period, fold_params, allow_unproven)
    offsets, w = _period_offsets(n, period), n + 1
    p_bar, r, v = fold_params.p_bar, fold_params.r, fold_params.v

    out_rows = []
    for i in range(1, p_bar + 1):
        start = (v + i - period.pp - 1) % period.p * w
        wrapped = []
        for e in offsets[start:start + w]:
            c_off = i + e  # the one's column minus v
            j = (c_off - 1) % p_bar + 1
            shift = j - c_off
            in_band = ((shift == 0 and abs(j - i) <= r)
                       or (shift == p_bar and j > i + r)
                       or (shift == -p_bar and j < i - r))
            if not in_band:
                raise InvariantViolationError(
                    f"one at row {v + i}, column {v + c_off} falls outside "
                    f"every wrap band (got column {j}, shift {shift})")
            wrapped.append(j)
        wrapped.sort()
        if any(wrapped[t] == wrapped[t + 1] for t in range(len(wrapped) - 1)):
            raise InvariantViolationError(
                f"two ones of row {v + i} collide at one wrapped column")
        out_rows.append(tuple(wrapped))

    matrix = IncidenceMatrix(p_bar, p_bar, tuple(out_rows))
    _verify_matrix(matrix, n, what=f"fold (m={fold_params.m}, v={v})")
    rect = find_rectangle(matrix.rows)
    if rect is not None:
        message = (f"wrapped matrix has a rectangle: rows {rect[0]},{rect[1]} "
                   f"columns {rect[2]},{rect[3]}")
        if guaranteed:
            raise InvariantViolationError(message)
        raise ConstraintViolationError(
            f"{message} (m={fold_params.m} is below the proven threshold)")
    return matrix


def compact_plane(n: int, period: PeriodResult) -> IncidenceMatrix:
    """The p x p leading principal submatrix, defined when pp = 0.

    Rows 1..p come from ``period.offsets``.
    For these zero-preperiod orders no one of rows 1..p lies beyond
    column p, so the submatrix simply reads off the rows; weights and
    symmetry are still checked, and rectangle-freeness — inherited from
    the infinite matrix — is re-verified anyway.
    """
    if period.pp != 0:
        raise InvalidParameterError(
            f"compact form needs preperiod 0, but pp = {period.pp}")
    p = period.p
    if p > MAX_FOLD_SIZE:
        raise SizeLimitError(
            f"compact side {p} exceeds the limit {MAX_FOLD_SIZE}")
    offsets, w = _period_offsets(n, period), n + 1
    rows = tuple(tuple(k + e for e in offsets[(k - 1) * w:k * w])
                 for k in range(1, p + 1))
    for k, ones in enumerate(rows, 1):
        if ones[-1] > p:
            raise InvariantViolationError(
                f"row {k} has a one at column {ones[-1]} > p = {p}; "
                f"the offsets cannot be a zero-preperiod prefix")
    matrix = IncidenceMatrix(p, p, rows)
    _verify_matrix(matrix, n, what="compact form")
    rect = find_rectangle(matrix.rows)
    if rect is not None:
        raise InvariantViolationError(
            f"compact form has a rectangle: rows {rect[0]},{rect[1]} "
            f"columns {rect[2]},{rect[3]}")
    return matrix


def _verify_matrix(matrix: IncidenceMatrix, n: int, what: str) -> None:
    """Exhaustive weight and symmetry checks shared by both builders."""
    k = n + 1
    for i, ones in enumerate(matrix.rows, 1):
        if len(ones) != k:
            raise InvariantViolationError(
                f"{what}: row {i} has weight {len(ones)}, expected {k}")
    for j, w in enumerate(matrix.column_weights(), 1):
        if w != k:
            raise InvariantViolationError(
                f"{what}: column {j} has weight {w}, expected {k}")
    if not matrix.is_symmetric:
        raise InvariantViolationError(f"{what}: matrix is not symmetric")


def regenerate_rows(n: int, first: int, last: int) -> list[SparseRow]:
    """Rows first..last of the order-``n`` construction, from scratch.

    Streams a fresh generator and keeps only the requested range, so
    memory stays proportional to the range even for huge ``first``.
    Folding never calls it; it is the slow oracle for fold output.
    """
    if first < 1 or last < first:
        raise InvalidParameterError(
            f"need 1 <= first <= last, got {first}..{last}")
    gen = new_generator(n)
    out = []
    for k in range(1, last + 1):
        _, ones = gen._advance()
        if k >= first:
            out.append(SparseRow(index=k, ones=ones))
    return out
