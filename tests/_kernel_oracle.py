"""The row kernel as it stood before supports absorbed the column weights.

Kept verbatim as a test oracle, the way ``_dense`` keeps the earlier
canonical search: two dicts, ``_colw`` (column weights, kept until the
frontier passes a column) and ``_sup`` (support bitmasks, dropped as soon
as a column completes).  Only the class name differs, and the
constructors at the end mirror ``new_generator`` and ``generate_naive``.
"""
from collections import deque

from rectfree.errors import InvalidParameterError, InvariantViolationError
from rectfree.generator import Params, SparseRow


class TwoDictState:
    """Mutable cursor over the infinite construction.

    Public read-only attributes follow the documented contract:
    ``params`` (None for generic row/column caps), ``next_k``,
    ``frontier_l``, ``rows_emitted``, plus ``live_rows`` / ``col_weight``
    accessors.  Use :meth:`clone` to fork an independent cursor; clones
    share nothing and may be advanced on another thread.
    """

    __slots__ = ("params", "row_cap", "col_cap", "max_len", "next_k",
                 "frontier_l", "rows_emitted", "_live", "_colw", "_sup",
                 "_base", "_keep")

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
        # col -> number of ones, kept until the frontier passes the column.
        self._colw: dict[int, int] = {}
        # col -> bitmask of supporting rows (bit i-_base == row i has a
        # one here); dropped as soon as the column completes.
        self._sup: dict[int, int] = {}
        self._base = 0
        self._keep = max_len + 2

    # -- bookkeeping -------------------------------------------------

    def clone(self) -> "TwoDictState":
        other = TwoDictState.__new__(TwoDictState)
        other.params = self.params
        other.row_cap = self.row_cap
        other.col_cap = self.col_cap
        other.max_len = self.max_len
        other.next_k = self.next_k
        other.frontier_l = self.frontier_l
        other.rows_emitted = self.rows_emitted
        other._live = deque(self._live)
        other._colw = dict(self._colw)
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
        return dict(self._colw)

    @classmethod
    def from_snapshot(cls, *, n: int, next_k: int, frontier_l: int,
                      rows_emitted: int,
                      live_rows) -> "TwoDictState":
        """Rebuild a square-construction cursor from its semantic fields.

        Every one in a column at or right of the frontier belongs to a
        live row (a row is evicted only once its last one falls left of
        the frontier), so the column weights and supports are recomputed
        from ``live_rows`` exactly.  Raises
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
        colw = st._colw
        sup = st._sup
        for i, ones in live:
            bit = 1 << (i - st._base)
            for c in ones:
                if c >= frontier_l:
                    colw[c] = colw.get(c, 0) + 1
                    sup[c] = sup.get(c, 0) | bit
        for c, w in colw.items():
            if w > st.col_cap:
                raise InvalidParameterError(
                    f"column {c} weight {w} exceeds the cap {st.col_cap}")
            if w == st.col_cap:
                del sup[c]
        if colw.get(frontier_l, 0) >= st.col_cap:
            raise InvalidParameterError(
                f"frontier column {frontier_l} is already complete")
        return st

    def _rebase(self) -> None:
        new_base = self.next_k - self._keep
        if new_base <= self._base:
            return
        shift = new_base - self._base
        low = (1 << shift) - 1
        sup = self._sup
        for c, s in sup.items():
            if s & low:
                raise InvariantViolationError(
                    f"column {c} supported by a row below the live horizon")
            sup[c] = s >> shift
        self._base = new_base

    # -- the greedy scan ----------------------------------------------

    def _advance(self) -> tuple[int, tuple[int, ...]]:
        """Construct and emit the next row; returns (index, ones)."""
        k = self.next_k
        if k - self._base >= 2 * self._keep:
            self._rebase()
        kbit = 1 << (k - self._base)
        colw = self._colw
        sup = self._sup
        row_cap = self.row_cap
        col_cap = self.col_cap
        l = self.frontier_l
        stop = l + self.max_len  # first one always lands on the frontier
        blocked = 0
        ones: list[int] = []
        placed = 0
        while placed < row_cap:
            if l >= stop:
                raise InvariantViolationError(
                    f"row {k} exceeded the length bound {self.max_len}")
            w = colw.get(l, 0)
            if w != col_cap:
                s = sup.get(l, 0)
                if not (s & blocked):
                    ones.append(l)
                    placed += 1
                    w += 1
                    colw[l] = w
                    s |= kbit
                    blocked |= s
                    if w == col_cap:
                        sup.pop(l, None)
                    else:
                        sup[l] = s
            l += 1
        row = tuple(ones)
        live = self._live
        live.append((k, row))
        # Advance the frontier over completed columns, dropping their
        # weight entries (their supports are already gone).
        f = self.frontier_l
        while colw.get(f, 0) == col_cap:
            del colw[f]
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
        if self._colw.get(l, 0) >= self.col_cap:
            return False
        s = self._sup.get(l, 0)
        if not s:
            return True
        sup = self._sup
        blocked = 0
        for j in partial_row:
            blocked |= sup.get(j, 0)
        return not (s & blocked)


# -- public operations ----------------------------------------------------


def new_oracle(n: int) -> TwoDictState:
    """Fresh two-dict cursor for the order-``n`` square construction."""
    params = Params.for_order(n)
    return TwoDictState(params=params, row_cap=n + 1, col_cap=n + 1,
                        max_len=params.sigma - 1)


def naive_oracle(k: int, r: int) -> TwoDictState:
    """Fresh two-dict cursor with row cap ``k`` and column cap ``r``."""
    cap = max(k, r)
    return TwoDictState(params=None, row_cap=k, col_cap=r,
                        max_len=2 * cap ** 3 + 4 * cap)
