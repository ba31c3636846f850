"""Streaming greedy construction of rectangle-free 0-1 matrices.

The matrix is built row by row, scanning cells left to right.  A one is
placed at the current cell exactly when three conditions hold: the row
still has fewer than its cap of ones, the column still has fewer than its
cap of ones, and placing the one would not complete an axis-aligned
rectangle with three ones already present.  A row is finished once it
reaches its cap.

The engine keeps only a sliding band of state near the diagonal:

* one dict of column supports for the columns at or right of the
  leftmost incomplete column (the *frontier*) that hold a one, and
* the recent rows whose ones could still take part in a rectangle check
  (``live_rows``).

A support is an integer bitmask over recent row indices, so a column's
weight is its popcount.  No row takes bit 0, and a complete column holds
the sentinel support ``1``.  The union of the supports of the ones
already placed in the row being built starts with bit 0 set, so one
lookup and one AND reject a column that is complete or would close a
rectangle.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvalidParameterError, InvariantViolationError

#: Largest supported order for the square construction.
MAX_ORDER = 64


def length_bound(n: int) -> int:
    """Strict upper bound ``2n^3 - n(n-3)`` on the length of any row."""
    return 2 * n ** 3 - n * (n - 3)


@dataclass(frozen=True)
class Params:
    """Derived constants for the order-``n`` construction."""

    n: int
    sigma: int

    @classmethod
    def for_order(cls, n: int) -> "Params":
        if not isinstance(n, int) or isinstance(n, bool):
            raise InvalidParameterError(f"order must be an int, got {n!r}")
        if n < 1 or n > MAX_ORDER:
            raise InvalidParameterError(
                f"order must be in 1..{MAX_ORDER}, got {n}")
        return cls(n=n, sigma=length_bound(n))


@dataclass(frozen=True)
class SparseRow:
    """One emitted row: its 1-based index and ascending one-columns."""

    index: int
    ones: tuple[int, ...]

    @property
    def first(self) -> int:
        return self.ones[0]

    @property
    def last(self) -> int:
        return self.ones[-1]

    @property
    def length(self) -> int:
        """Distance from first to last one, inclusive."""
        return self.ones[-1] - self.ones[0] + 1


_ROW_FORMATS: dict[int, bytes] = {}  # ones per row -> b"%d\t%d,...,%d\n"


def row_line(index: int, ones) -> bytes:
    """The row-log line of a row, ``k<TAB>j1,j2,...`` and its newline,
    as ASCII bytes; a row without ones is ``k<TAB>``."""
    fmt = _ROW_FORMATS.get(len(ones))
    if fmt is None:
        fmt = _ROW_FORMATS[len(ones)] = \
            b"%d\t" + b",".join([b"%d"] * len(ones)) + b"\n"
    return fmt % (index, *ones)


def format_row_line(index: int, ones: tuple[int, ...]) -> str:
    """Row-log text form: ``k<TAB>j1,j2,...`` (ascending columns)."""
    return row_line(index, ones)[:-1].decode("ascii")


def parse_row_line(line: str) -> SparseRow:
    """Parse one row-log line back into a :class:`SparseRow`."""
    try:
        idx_text, cols_text = line.rstrip("\n").split("\t")
        index = int(idx_text)
        ones = tuple(int(c) for c in cols_text.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"bad row-log line: {line!r}") from exc
    if index < 1 or not ones or any(b <= a for a, b in zip(ones, ones[1:])):
        raise InvalidParameterError(f"bad row-log line: {line!r}")
    return SparseRow(index, ones)


class GeneratorState:
    """Mutable cursor over the infinite construction.

    Public read-only attributes follow the documented contract:
    ``params`` (None for generic row/column caps), ``next_k``,
    ``frontier_l``, ``rows_emitted``, plus ``live_rows`` / ``col_weight``
    accessors.  Use :meth:`clone` to fork an independent cursor; clones
    share nothing and may be advanced on another thread.
    """

    __slots__ = ("params", "row_cap", "col_cap", "max_len", "next_k",
                 "frontier_l", "rows_emitted", "_live", "_sup", "_base",
                 "_keep")

    def __init__(self, *, params: Params | None, row_cap: int, col_cap: int,
                 max_len: int):
        self.params = params
        self.row_cap = row_cap
        self.col_cap = col_cap
        # Strict bound on (last - first + 1) for any row; exceeding it is
        # an internal invariant violation, never a data condition.
        self.max_len = max_len
        self.next_k = 1
        self.frontier_l = 1
        self.rows_emitted = 0
        # Live rows: deque of (index, ones) in increasing index order.
        self._live: deque[tuple[int, tuple[int, ...]]] = deque()
        # col -> support bitmask (bit i-_base >= 1 set when row i has a
        # one there) of each column at or right of the frontier holding a
        # one; a complete column holds the sentinel 1 (bit 0, no row).
        self._sup: dict[int, int] = {}
        self._base = 0
        self._keep = max_len + 2

    # -- bookkeeping -------------------------------------------------

    def clone(self) -> "GeneratorState":
        other = GeneratorState.__new__(GeneratorState)
        other.params = self.params
        other.row_cap = self.row_cap
        other.col_cap = self.col_cap
        other.max_len = self.max_len
        other.next_k = self.next_k
        other.frontier_l = self.frontier_l
        other.rows_emitted = self.rows_emitted
        other._live = deque(self._live)
        other._sup = dict(self._sup)
        other._base = self._base
        other._keep = self._keep
        return other

    @property
    def live_rows(self) -> tuple[SparseRow, ...]:
        return tuple(SparseRow(i, ones) for i, ones in self._live)

    @property
    def col_weight(self) -> dict[int, int]:
        """Weights of columns not yet left behind by the frontier."""
        cap = self.col_cap
        return {c: cap if s == 1 else s.bit_count()
                for c, s in self._sup.items()}

    @classmethod
    def from_snapshot(cls, *, n: int, next_k: int, frontier_l: int,
                      rows_emitted: int,
                      live_rows) -> "GeneratorState":
        """Rebuild a square-construction cursor from its semantic fields.

        Every one in a column at or right of the frontier belongs to a
        live row (a row is evicted only once its last one falls left of
        the frontier), so the column supports, and with them the weights,
        are recomputed from ``live_rows`` exactly.  Raises
        :class:`InvalidParameterError` when the fields cannot describe a
        reachable state.
        """
        params = Params.for_order(n)
        st = cls(params=params, row_cap=n + 1, col_cap=n + 1,
                 max_len=params.sigma - 1)
        for name, value in (("next_k", next_k), ("frontier_l", frontier_l)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise InvalidParameterError(
                    f"{name} must be a positive int, got {value!r}")
        if rows_emitted != next_k - 1:
            raise InvalidParameterError(
                f"rows_emitted {rows_emitted} inconsistent with "
                f"next_k {next_k}")
        live: list[tuple[int, tuple[int, ...]]] = []
        prev = 0
        for item in live_rows:
            i, ones = (item.index, item.ones) if isinstance(item, SparseRow) \
                else (item[0], tuple(item[1]))
            if i <= prev or i >= next_k:
                raise InvalidParameterError(
                    f"live row {i} out of order or beyond next_k {next_k}")
            if len(ones) != st.row_cap or \
                    any(b <= a for a, b in zip(ones, ones[1:])) or ones[0] < 1:
                raise InvalidParameterError(f"live row {i} malformed")
            if ones[-1] - ones[0] + 1 > st.max_len:
                raise InvalidParameterError(
                    f"live row {i} exceeds the length bound")
            prev = i
            live.append((i, ones))
        st.next_k = next_k
        st.frontier_l = frontier_l
        st.rows_emitted = rows_emitted
        st._live = deque(live)
        st._base = live[0][0] - 1 if live else next_k - 1
        sup = st._sup
        for i, ones in live:
            bit = 1 << (i - st._base)
            for c in ones:
                if c >= frontier_l:
                    sup[c] = sup.get(c, 0) | bit
        for c, s in sup.items():
            w = s.bit_count()
            if w > st.col_cap:
                raise InvalidParameterError(
                    f"column {c} weight {w} exceeds the cap {st.col_cap}")
            if w == st.col_cap:
                sup[c] = 1
        if sup.get(frontier_l) == 1:
            raise InvalidParameterError(
                f"frontier column {frontier_l} is already complete")
        return st

    def _rebase(self) -> None:
        # No row below next_k - _keep may support an incomplete column;
        # the base sits one below, so every other row keeps a bit >= 1.
        new_base = self.next_k - self._keep - 1
        if new_base <= self._base:
            return
        shift = new_base - self._base
        low = (2 << shift) - 1
        sup = self._sup
        for c, s in sup.items():
            if s != 1:
                if s & low:
                    raise InvariantViolationError(
                        f"column {c} supported below the live horizon")
                sup[c] = s >> shift
        self._base = new_base

    # -- the greedy scan ----------------------------------------------

    def _advance(self) -> tuple[int, tuple[int, ...]]:
        """Construct and emit the next row; returns (index, ones)."""
        k = self.next_k
        if k - self._base >= 2 * self._keep:
            self._rebase()
        kbit = 1 << (k - self._base)
        sup = self._sup
        get = sup.get
        col_cap = self.col_cap
        need = self.row_cap - 1
        # The first one always lands on the frontier: it is incomplete and
        # nothing blocks it yet.
        l = self.frontier_l
        s = get(l, 0) | kbit
        sup[l] = 1 if s.bit_count() == col_cap else s
        ones = [l]
        blocked = s | 1  # bit 0 rejects complete columns
        if need:
            for l in range(l + 1, l + self.max_len):
                s = get(l, 0)
                if not s & blocked:
                    ones.append(l)
                    s |= kbit
                    blocked |= s
                    sup[l] = 1 if s.bit_count() == col_cap else s
                    need -= 1
                    if not need:
                        break
            else:
                raise InvariantViolationError(
                    f"row {k} exceeded the length bound {self.max_len}")
        row = tuple(ones)
        live = self._live
        live.append((k, row))
        # Advance the frontier over completed columns.
        f = self.frontier_l
        while get(f) == 1:
            del sup[f]
            f += 1
        self.frontier_l = f
        # Evict rows whose ones all sit in completed columns left of the
        # frontier; they can never appear in a rectangle check again.
        while live and live[0][1][-1] < f:
            live.popleft()
        self.next_k = k + 1
        self.rows_emitted += 1
        return k, row

    def next_row(self) -> SparseRow:
        k, ones = self._advance()
        return SparseRow(k, ones)

    def is_admissible(self, partial_row, l: int) -> bool:
        """Would a one at column ``l`` of row ``next_k`` be admissible?

        ``partial_row`` holds the columns of ones already placed in the
        row under construction, all < ``l``.  Pure: the state is not
        modified.  Columns in ``partial_row`` must have been admissible
        themselves (in particular they are not complete in this state).
        """
        if len(partial_row) >= self.row_cap:
            return False
        sup = self._sup
        s = sup.get(l, 0)
        if s == 1:
            return False  # complete
        if not s:
            return True
        blocked = 0
        for j in partial_row:
            blocked |= sup.get(j, 0)
        return not (s & blocked)


# -- public operations ----------------------------------------------------

def new_generator(n: int) -> GeneratorState:
    """Fresh cursor for the order-``n`` square construction (caps n+1)."""
    params = Params.for_order(n)
    return GeneratorState(params=params, row_cap=n + 1, col_cap=n + 1,
                          max_len=params.sigma - 1)


def next_row(state: GeneratorState) -> SparseRow:
    """Emit the next completed row of ``state``."""
    return state.next_row()


def is_admissible(state: GeneratorState, partial_row, l: int) -> bool:
    """Pure admissibility test; see :meth:`GeneratorState.is_admissible`."""
    return state.is_admissible(partial_row, l)


def generate_prefix(n: int, count: int) -> list[SparseRow]:
    """First ``count`` rows of the order-``n`` construction."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidParameterError(f"count must be a positive int, got {count!r}")
    state = new_generator(n)
    return [state.next_row() for _ in range(count)]


def generate_naive(k: int, r: int, rows: int) -> list[SparseRow]:
    """First ``rows`` rows with row cap ``k`` and column cap ``r``.

    Same greedy scan as the square construction but with independent
    caps.  With ``k = r = n+1`` this reproduces the order-``n`` matrix.
    No periodicity is claimed for general caps; rows are just streamed.
    """
    for name, value in (("k", k), ("r", r), ("rows", rows)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidParameterError(
                f"{name} must be a positive int, got {value!r}")
    cap = max(k, r)
    # Generous scan guard; hitting it would be an internal bug, not data.
    state = GeneratorState(params=None, row_cap=k, col_cap=r,
                           max_len=2 * cap ** 3 + 4 * cap)
    return [state.next_row() for _ in range(rows)]


def compute_galfs(matrix) -> set[tuple[int, int]]:
    """Cells (i, j) completing a rectangle with an existing flag.

    ``matrix`` is a finite rectangular 0-1 matrix (sequence of rows).
    A cell (i, j) is returned when there is a flag (k, l), k != i,
    l != j, with ones at (k, l), (k, j) and (i, l).  Indices are 1-based.
    """
    rows_ones: list[frozenset[int]] = []
    width = None
    for row in matrix:
        cells = list(row)
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InvalidParameterError("matrix rows have unequal widths")
        for x in cells:
            if x not in (0, 1):
                raise InvalidParameterError(f"matrix entries must be 0/1, got {x!r}")
        rows_ones.append(frozenset(j + 1 for j, x in enumerate(cells) if x))
    galfs: set[tuple[int, int]] = set()
    m = len(rows_ones)
    for i in range(1, m + 1):
        oi = rows_ones[i - 1]
        for kk in range(1, m + 1):
            if kk == i:
                continue
            ok = rows_ones[kk - 1]
            common = oi & ok
            if not common:
                continue
            if len(common) > 1:
                for j in ok:
                    galfs.add((i, j))
            else:
                (only,) = common
                for j in ok:
                    if j != only:
                        galfs.add((i, j))
    return galfs
