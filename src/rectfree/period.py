"""Period and preperiod detection for the streaming construction.

The state after row k is the frontier column l, the leftmost column
still short of its cap, and the live rows, the rows that still hold a
one at or right of l.  Rows leave the live window only from its front,
so the live rows are the consecutive rows k - L + 1 .. k (none at all
when the construction restarts).  :meth:`GeneratorState.from_snapshot`
rebuilds the whole generator from exactly these fields, and the greedy
scan only compares columns with each other, so shifting every row index
and every column of a state by d shifts every later row by d.  In
diagonal form a state is its lag k + 1 - l, its count L, and each live
row's one-columns minus the row's index.  When the state after row k
equals, in that form, the state after an earlier row a, the generator
after row k is the one after row a shifted by p = k - a, and every later
row repeats: ones(row i + p) = ones(row i) + p for all i > a.  An
element-by-element comparison of the two states proves the period: no
hash is trusted, and nothing is left to verify.  An anchor read from a
snapshot is only as sound as the file, so a resumed detector refuses
one off the spacing grid or disagreeing with the ring's rows, and one
confirms a period only after a fresh cursor has reached its state.

The detector stores the state after every S-th row as an anchor, keyed
by the newest row's offsets, the lag and L; each row costs one key and
one dict lookup, and a hit compares the anchor's window with the live
one.  At most :data:`MAX_ANCHORS` anchors are kept: when the set is full,
every other anchor goes and S doubles.  This is the thinning of
stack-based cycle finding (Nivasch, "Cycle detection using a stack",
IPL 90, 2004) and a keyed form of distinguished points (van Oorschot and
Wiener, J. Cryptology 12, 1999), with an exact comparison in place of a
hash.  An anchor whose live rows all lie past the preperiod returns p
rows later, so a period of any length is confirmed at most S + sigma + p
rows after pp.

A return shows that the rows after the anchor repeat with period p; p
is then shrunk to its smallest divisor that still shifts one period onto
the next, and the preperiod is the last row i <= a where the row-shift
identity fails.  It is read from the detector's ring of recent rows when
the ring reaches back to that row (or to row 1); otherwise a second
cursor regenerates the rows from row 1.  The period's rows come from the
ring too, or, for a period longer than the ring, from the anchor's state.

Special case: when the frontier column of the state about to build row
k has no ones at all, the construction restarts from scratch shifted by
k-1, so pp = 0 and p = k-1 immediately (``case1`` in the result).
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, sub
from time import monotonic

from .errors import (BudgetExhaustedError, CorruptCheckpointError,
                     InvalidParameterError, InvariantViolationError)
from .generator import GeneratorState, Params, new_generator

#: Default number of recent rows the ring keeps, beyond sigma + 1, for
#: the preperiod and the period's rows.  It does not bound the period.
DEFAULT_WINDOW = 1 << 17

#: Most anchors a detector keeps.
MAX_ANCHORS = 1024
#: Rows between anchors at the start of a run; the spacing doubles each
#: time the anchor set fills.
SPACING = 16

_INF = float("inf")
_NEVER = 1 << 62  # a row count no run reaches


@dataclass(frozen=True)
class DefiningMatrix:
    """The cropped window that determines all rows from ``anchor_k`` on.

    ``bits`` is the d x b 0-1 window in sparse form: one tuple per window
    row, holding 0-based column offsets from the window's left edge.
    Equality and hashing use (d, b, bits) only; the anchors record where
    the window was cut out and never influence comparison.
    """

    d: int
    b: int
    bits: tuple[tuple[int, ...], ...]
    anchor_k: int = field(compare=False)
    anchor_l: int = field(compare=False)

    @property
    def is_empty(self) -> bool:
        """True when the frontier column holds no ones (restart state)."""
        return self.d == 0


def defining_matrix(state: GeneratorState) -> DefiningMatrix:
    """Window of ``state`` about to build row ``state.next_k``.

    This is the paper's defining matrix: the live rows cut at the
    frontier, as a 0-1 window whose columns count from the frontier.  It
    differs from the detector's anchor state, which keeps each live row
    whole in diagonal offsets beside the lag and the live count.  The
    ones left of the frontier sit in complete columns and cannot change
    a later row, so equal anchor states have equal defining matrices, but
    not conversely; the detector compares the finer form because it is
    what :meth:`GeneratorState.from_snapshot` takes and can be read from
    the ring without cropping.

    Requires at least one emitted row.  When the frontier column has no
    ones the window is empty (d = b = 0) — the construction restarts.
    """
    if state.rows_emitted < 1:
        raise InvalidParameterError("defining_matrix needs >= 1 emitted row")
    k = state.next_k
    l = state.frontier_l
    if l not in state._sup:
        return DefiningMatrix(0, 0, (), anchor_k=k, anchor_l=l)
    live = list(state._live)
    f = live[0][0]
    c = max(r[-1] for _, r in live)
    if not (k - f < state.max_len + 1 and c - l < state.max_len + 1):
        raise InvariantViolationError("window exceeds the length bound")
    by_index = {i: ones for i, ones in live}
    bits = tuple(
        tuple(j - l for j in by_index.get(i, ()) if j >= l)
        for i in range(f, k)
    )
    return DefiningMatrix(k - f, c - l + 1, bits, anchor_k=k, anchor_l=l)


@dataclass(frozen=True)
class PeriodResult:
    """Verified minimal period/preperiod and fold-relevant measurements.

    ``b_breadth`` is the largest |column - row| over ones in rows
    (pp, pp+p]; ``l_max`` the largest row length there.  ``case1`` marks
    the restart shortcut.  ``rows_examined`` counts the rows generated by
    the detection cursor, resumed runs included.  Rows that a run
    regenerates are not counted: rows 1 .. a to check a snapshot's anchor
    a before it confirms a period, rows 1..p for the restart shortcut
    when the ring starts after row 1, rows 1 through a + p for pp when the
    ring no longer reaches back to the last row-shift mismatch, and the
    period's rows from the anchor's state when the period is longer than
    the ring.  ``offsets`` is one period, in the ring's flat layout: the
    diagonal offsets (one-columns minus the row index, n + 1 per row) of
    rows pp+1..pp+p.  Row r > pp has its ones at r plus the offsets of
    row pp + 1 + (r - pp - 1) mod p.
    """

    n: int
    pp: int
    p: int
    b_breadth: int
    l_max: int
    case1: bool
    rows_examined: int
    offsets: array = field(default_factory=lambda: array("b"),
                           compare=False, repr=False)


def minimal_fold_multiplier(result: PeriodResult) -> int:
    """Smallest m with floor(p*m/2) > b_breadth and p*m >= 2*l_max."""
    m = 1
    p = result.p
    while not (p * m // 2 > result.b_breadth and p * m >= 2 * result.l_max):
        m += 1
    return m


#: One anchor: the row a it follows, the lag a + 1 - l of its state, and
#: the diagonal offsets of its live rows, n + 1 per row, oldest first.
Anchor = tuple[int, int, array]


@dataclass(frozen=True)
class DetectorSnapshot:
    """Plain-data image of the detector, for checkpointing.

    ``ring`` is one flat array of the diagonal offsets (one-columns
    minus the row index, n + 1 per row) of the rows from ``ring_first``
    through the last row generated: at most ``window + sigma + 1`` of
    them, the same packed layout the detector keeps in memory, as a
    signed array of any width.  ``anchors`` are the stored states, in
    row order, and ``spacing`` the current S.  Anchors are placed at rows
    fixed by the row count alone, so a snapshot at a given row does not
    depend on where earlier runs were cut.

    :func:`detect_period` takes snapshots from its live detector, both
    for in-loop checkpoints and when the budget runs out, and goes on
    detecting.  Resuming copies the ring and indexes at most
    :data:`MAX_ANCHORS` anchors; nothing is replayed, and one snapshot
    can seed any number of runs.
    """

    window: int
    ring_first: int
    ring: array
    spacing: int = SPACING
    anchors: tuple[Anchor, ...] = ()


@dataclass
class ResumeState:
    """Everything needed to continue an interrupted detection run."""

    generator: GeneratorState
    detector: DetectorSnapshot


#: Signed array typecodes by element width in bytes.
TYPECODES = {array(code).itemsize: code for code in "qlihb"}


def narrowest(values: array, more=()) -> array:
    """``values`` followed by ``more`` in the narrowest signed array of
    width 1, 2, 4 or 8 that holds them all: ``values`` itself when
    ``more`` is empty and ``values`` has that width already."""
    for width in (1, 2, 4, 8):
        code = TYPECODES[width]
        if not more and values.typecode == code:
            return values
        try:
            packed = array(code, values)
            packed.extend(more)
        except OverflowError:
            continue
        return packed
    raise OverflowError("a detector value does not fit in 8 bytes")


class _Ring:
    """Diagonal offsets of the last ~maxlen rows, packed.

    ``offs`` holds ``width`` offsets per row in a signed array that
    starts one byte wide and widens (2, 4, then 8 bytes) when a value
    does not fit, keeping every row.  Row i starts at
    ``offs[(i - first) * width]``.  :meth:`trim` cuts the oldest rows
    back to ``maxlen``: the owner decides when.
    """

    __slots__ = ("maxlen", "width", "first", "offs")

    def __init__(self, maxlen: int, width: int, first: int = 1,
                 offs: array | None = None):
        self.maxlen = maxlen
        self.width = width
        self.first = first  # row index of the first row held
        self.offs = array("b") if offs is None else offs

    def append(self, offs: list[int]) -> None:
        try:
            self.offs.fromlist(offs)  # all or nothing
        except OverflowError:
            self.offs = narrowest(self.offs, offs)

    def trim(self) -> None:
        cut = len(self.offs) // self.width - self.maxlen
        if cut > 0:
            del self.offs[:cut * self.width]
            self.first += cut

    def covers(self, row: int) -> bool:
        return self.first <= row < self.first + len(self.offs) // self.width

    def rows(self, lo: int, hi: int) -> array:
        """The offsets of rows lo .. hi - 1, as one flat array."""
        w = self.width
        return self.offs[(lo - self.first) * w:(hi - self.first) * w]


class _Detector:
    """The ring of recent rows and the anchors of one detection run.

    ``anchors`` maps an anchor's row a to its lag and live window, in row
    order; ``keys`` maps each key (the newest row's offsets, the lag, L)
    to the rows of every anchor that has it, so two states that share a
    key both stay findable.  An anchor takes the window's offsets (n + 1
    bytes a row at n = 6) plus about 400 bytes of Python objects.
    """

    __slots__ = ("window", "width", "sigma", "ring", "spacing", "anchors",
                 "keys")

    def __init__(self, window: int, params: Params):
        self.window = window
        self.width = params.n + 1
        self.sigma = params.sigma
        self.ring = _Ring(window + self.sigma + 1, self.width)
        self.spacing = SPACING
        self.anchors: dict[int, tuple[int, array]] = {}
        self.keys: dict[tuple, list[int]] = {}

    def place(self, a: int, lag: int, window: array) -> None:
        """Store the state after row a, with its lag and live window.  A
        full set first loses every anchor off the doubled spacing, and
        then row a too unless it lies on it."""
        anchors = self.anchors
        if len(anchors) >= MAX_ANCHORS:
            self.spacing = spacing = 2 * self.spacing
            for row in [row for row in anchors if row % spacing]:
                del anchors[row]
            self.keys.clear()
            for row, kept in anchors.items():
                self._index(row, *kept)
            if a % spacing:
                return
        anchors[a] = (lag, window)
        self._index(a, lag, window)

    def _index(self, a: int, lag: int, window: array) -> None:
        w = self.width
        key = (tuple(window[-w:]), lag, len(window) // w)
        self.keys.setdefault(key, []).append(a)

    def snapshot(self) -> DetectorSnapshot:
        ring = self.ring
        cut = max(0, len(ring.offs) // ring.width - ring.maxlen)
        return DetectorSnapshot(
            window=self.window,
            ring_first=ring.first + cut,
            ring=ring.offs[cut * ring.width:],
            spacing=self.spacing,
            anchors=tuple((a, lag, window)
                          for a, (lag, window) in self.anchors.items()),
        )

    @classmethod
    def resume(cls, snap: DetectorSnapshot,
               gen: GeneratorState) -> "_Detector":
        """The detector of ``snap``, continuing ``gen``; raises
        :class:`CorruptCheckpointError` when the snapshot cannot be the
        detector of ``gen``."""
        if snap.window < 4:
            raise CorruptCheckpointError(
                f"detector window {snap.window} is below 4")
        det = cls(snap.window, gen.params)
        w = det.width
        k = gen.rows_emitted
        first, offs = snap.ring_first, snap.ring
        if len(offs) % w or first + len(offs) // w != k + 1:
            raise CorruptCheckpointError(
                f"detector ring of {len(offs)} offsets from row {first} "
                f"does not hold {w} offsets per row through the "
                f"generator's row {k}")
        det.ring = ring = _Ring(det.ring.maxlen, w, first,
                                array(offs.typecode, offs))
        both = max(first, k - len(gen._live) + 1)  # rows ring and live share
        if list(ring.rows(both, k + 1)) != [j - i for i, ones in gen._live
                                            if i >= both for j in ones]:
            raise CorruptCheckpointError(
                "detector ring disagrees with the generator's live rows")
        det.spacing = spacing = snap.spacing
        if spacing < SPACING or spacing & (spacing - 1) or \
                len(snap.anchors) > MAX_ANCHORS:
            raise CorruptCheckpointError(
                f"{len(snap.anchors)} anchors at spacing {spacing}: not "
                f"{MAX_ANCHORS} at most, at a power of two from {SPACING}")
        last = 0
        for a, lag, window in snap.anchors:
            if not last < a <= k or a % spacing:
                raise CorruptCheckpointError(
                    f"anchor rows must rise to row {k} at most on the "
                    f"spacing-{spacing} grid; row {a} follows row {last}")
            rows, rest = divmod(len(window), w)
            if rest or not 1 <= rows <= min(a, det.sigma):
                raise CorruptCheckpointError(
                    f"anchor at row {a} holds {len(window)} offsets, not "
                    f"1 to {min(a, det.sigma)} rows of {w}")
            if ring.covers(a - rows + 1) and \
                    ring.rows(a - rows + 1, a + 1) != window:
                raise CorruptCheckpointError(
                    f"anchor at row {a} disagrees with the ring's rows")
            det.anchors[a] = (lag, window)
            det._index(a, lag, window)
            last = a
        return det


def anchors_from_ring(n: int, first: int, ring: array, lags: array
                      ) -> tuple[int, tuple[Anchor, ...]]:
    """The spacing and anchors of a detector whose ring holds rows
    ``first`` onwards, with ``lags[t]`` the lag of the state after row
    ``first + t``: the format-2 detector record, which stored no live
    counts.

    A row j is live after row a when some row up to j reaches column
    l(a) = a + 1 - lag: rows leave the live window only from its front,
    and only once their last one falls left of the frontier.  So the
    first live row is found in the running maximum of the rows' last
    columns.  That maximum omits the rows before ``first``; a live window
    spans fewer than sigma rows (the length bound of
    :func:`defining_matrix`), so it is exact for every state after row
    ``first + sigma - 2``, or from row 1 when the ring starts there.  The
    anchors are those states on the spacing grid, thinned as a run thins
    them.
    """
    params = Params.for_order(n)
    w = n + 1
    det = _Detector(4, params)
    det.ring = _Ring(len(lags), w, first, ring)
    reach = list(accumulate(map(add, range(first, first + len(lags)),
                                ring[w - 1::w]), max))
    lo = first if first == 1 else first + params.sigma - 1
    for a in range(-(-lo // SPACING) * SPACING, first + len(lags), SPACING):
        if a % det.spacing:
            continue
        lag = lags[a - first]
        start = first + bisect_left(reach, a + 1 - lag)
        if start <= a and (start > first or first == 1):
            det.place(a, lag, det.ring.rows(start, a + 1))
    return det.spacing, tuple((a, lag, window)
                              for a, (lag, window) in det.anchors.items())


def anchor_state(n: int, anchor: Anchor) -> GeneratorState:
    """The generator after the anchor's row, rebuilt from its state."""
    a, lag, window = anchor
    w = n + 1
    top = a - len(window) // w + 1
    return GeneratorState.from_snapshot(
        n=n, next_k=a + 1, frontier_l=a + 1 - lag, rows_emitted=a,
        live_rows=[(i, tuple([o + i for o in window[(i - top) * w:
                                                     (i - top + 1) * w]]))
                   for i in range(top, a + 1)])


def _measure(ring: _Ring, lo: int, hi: int) -> tuple[int, int]:
    """(b_breadth, l_max) over rows lo .. hi - 1 of ``ring`` (lo < hi)."""
    w = ring.width
    offs = ring.rows(lo, hi)
    firsts, lasts = offs[::w], offs[w - 1::w]
    b = max(max(firsts), -min(firsts), max(lasts), -min(lasts))
    return b, max(map(sub, lasts, firsts)) + 1


def _minimize_p(ring: _Ring, k0: int, p: int) -> int:
    """Shrink p to its smallest divisor that already shifts the window
    of rows k0 + 1 .. k0 + p; the ring must hold rows through k0 + 2p."""
    while True:
        for cand in [d for d in range(1, p) if p % d == 0]:
            if ring.rows(k0 + 1, k0 + p + 1) == \
                    ring.rows(k0 + 1 + cand, k0 + p + 1 + cand):
                p = cand
                break
        else:
            return p


class Cadence:
    """When a long row loop saves its state and prints progress.

    The loop calls :meth:`start` with its row count, then :meth:`check`
    before a row once its row count reaches ``next_row``: one compare per
    row.  Only a check reads the clock.  It calls the ``save`` hook once
    ``checkpoint_every_rows`` rows or ``checkpoint_every_seconds``
    seconds (None: never) have passed since the last save or the start,
    and prints ``label: <rows> rows, <rate> rows/s`` on standard error
    every ``progress_every`` seconds (0: never), at the rate of this
    run's rows.  The next check comes at the row the next save is due at
    or, sooner, where the measured rate reaches the next due time, at
    most twice the last step on.  Errors name the command-line options.
    """

    __slots__ = ("label", "save", "every_rows", "every_seconds", "interval",
                 "next_row", "saved", "_rows0", "_t0", "_save_at",
                 "_show_at", "_step")

    def __init__(self, *, checkpoint_every_rows: int | None = None,
                 checkpoint_every_seconds: float | None = None,
                 progress_every: float = 0.0, label: str = "rows",
                 save=None):
        if checkpoint_every_rows is not None and checkpoint_every_rows < 1:
            raise InvalidParameterError(
                f"--checkpoint-every-rows must be >= 1, got "
                f"{checkpoint_every_rows}")
        if checkpoint_every_seconds is not None and \
                not checkpoint_every_seconds > 0:
            raise InvalidParameterError(
                f"--checkpoint-every-seconds must be > 0, got "
                f"{checkpoint_every_seconds}")
        if not progress_every >= 0:
            raise InvalidParameterError(
                f"--progress-every must be >= 0, got {progress_every}")
        self.label, self.save = label, save
        self.every_rows = checkpoint_every_rows or _NEVER
        self.every_seconds = checkpoint_every_seconds or _INF
        self.interval = progress_every or _INF

    def start(self, rows: int) -> None:
        """Begin a run at ``rows`` rows, which count as saved; the first
        check comes one row on."""
        self._rows0 = self.saved = rows
        self.next_row = rows + 1
        self._t0 = now = monotonic()
        self._save_at = _INF if self.save is None else now + self.every_seconds
        self._show_at = now + self.interval
        self._step = 1

    def check(self, rows: int, make_state=None) -> None:
        """Save and print what is due at ``rows`` rows, and set
        ``next_row``.  The save hook gets ``make_state()`` when it is
        given, so that a state is built only to be saved."""
        now = monotonic()
        save = self.save
        if save is not None and (rows - self.saved >= self.every_rows or
                                 now >= self._save_at):
            if make_state is None:
                save()
            else:
                save(make_state())
            self.saved = rows
            now = monotonic()
            self._save_at = now + self.every_seconds
        ran = now - self._t0
        rate = (rows - self._rows0) / ran if ran > 0 else 0.0
        if now >= self._show_at:
            print(f"{self.label}: {rows} rows, {rate:.0f} rows/s",
                  file=sys.stderr, flush=True)
            self._show_at = now + self.interval
        self.next_row = _NEVER if save is None else \
            self.saved + self.every_rows
        due = min(self._save_at, self._show_at)
        if due < _INF:
            self._step = max(1, min(2 * self._step, int((due - now) * rate)))
            self.next_row = min(self.next_row, rows + self._step)


def detect_period(n: int, max_rows: int, *, window: int | None = None,
                  resume: ResumeState | None = None, on_row=None,
                  cadence: Cadence | None = None) -> PeriodResult:
    """Minimal (preperiod, period) of the order-``n`` construction.

    ``max_rows`` bounds the rows generated by the detection cursor
    (resumed runs continue the count); exceeding it raises
    :class:`BudgetExhaustedError` carrying a :class:`ResumeState`.
    ``on_row(k, ones)`` is invoked for every detection-cursor row.

    ``window`` sets a fresh run's ring: the last ``window + sigma + 1``
    rows (None: the default window), from which pp and the period's rows
    are read without regenerating.  It does not bound the period.  A
    resumed run keeps its snapshot's window and refuses another one.

    ``cadence`` is checked between rows.  Its save hook gets a
    :class:`ResumeState` (its own copy of the generator), and detection
    goes on with the same detector.  No save falls at the budget row,
    whose state the error carries.

    The result is exact: a period is confirmed by two equal states (see
    the module docstring), p is minimal among all its divisors, and pp
    is the last row where the row-shift identity fails.  pp is read from
    the detector's ring; a second cursor regenerates rows from row 1
    only when the ring starts after that row.  The period's rows, read
    from the ring or regenerated from the anchor, go into ``offsets``.
    """
    if max_rows < 1:
        raise InvalidParameterError(f"max_rows must be >= 1, got {max_rows}")
    if window is not None and window < 4:
        raise InvalidParameterError(f"window must be >= 4, got {window}")
    if cadence is None:
        cadence = Cadence()
    if resume is None:
        gen = new_generator(n)
        det = _Detector(window or DEFAULT_WINDOW, gen.params)
        restored = 0
    else:
        if window not in (None, resume.detector.window):
            raise InvalidParameterError(
                f"--window {window} differs from the window "
                f"{resume.detector.window} of the resumed run")
        gen = resume.generator.clone()
        if gen.params is None or gen.params.n != n:
            raise InvalidParameterError("resume state is for a different order")
        det = _Detector.resume(resume.detector, gen)
        restored = gen.rows_emitted  # anchors up to here are the snapshot's
        # The detector holds copies: keep no reference to the snapshot,
        # so that it is freed if the caller holds none either.
        resume = None
    ring, anchors = det.ring, det.anchors
    live_rows, sup = gen._live, gen._sup

    k = gen.rows_emitted
    cadence.start(k)
    get, add = det.keys.get, ring.offs.fromlist
    spacing = det.spacing
    due = (k // spacing + 1) * spacing  # the next anchor row
    half = ring.maxlen >> 1
    trim_at = k + half
    while True:
        # Bookkeeping between rows, then rows up to the next event.
        if k == due:
            det.place(k, k + 1 - gen.frontier_l, _window(live_rows, ring))
            spacing = det.spacing
            due = (k // spacing + 1) * spacing
        if k >= trim_at:
            ring.trim()
            trim_at = k + half
        if k >= max_rows:
            raise BudgetExhaustedError(
                f"no period confirmed within {max_rows} rows",
                resume=ResumeState(generator=gen, detector=det.snapshot()),
                rows_examined=k)
        if k >= cadence.next_row:
            cadence.check(k, lambda: ResumeState(
                gen.clone(), det.snapshot()))
        stop = min(due, trim_at, max_rows, cadence.next_row)
        while k < stop:
            k, ones = gen._advance()
            if on_row is not None:
                on_row(k, ones)
            enc = [j - k for j in ones]
            try:
                add(enc)
            except OverflowError:
                ring.append(enc)  # widens the array
                add = ring.offs.fromlist
            frontier = gen.frontier_l
            if frontier not in sup:  # a restart: rows 1 .. k repeat
                return _finish(gen, ring, 0, k)
            hit = get((tuple(enc), k + 1 - frontier, len(live_rows)))
            if hit is not None:
                now = _window(live_rows, ring)
                for a in hit:
                    if anchors[a][1] == now:
                        anchor = (a, k + 1 - frontier, now)
                        if a <= restored:
                            _vouch(n, anchor)
                        return _finish(gen, ring, a, k - a, anchor)


def _vouch(n: int, anchor: Anchor) -> None:
    """Raise :class:`CorruptCheckpointError` unless a fresh cursor's state
    after the anchor's row is the anchor's."""
    a, lag, window = anchor
    gen = new_generator(n)
    for _ in range(a):
        gen._advance()
    if a + 1 - gen.frontier_l != lag or _window(gen._live) != window:
        raise CorruptCheckpointError(
            f"anchor at row {a} is not the state after row {a}")


def _finish(gen: GeneratorState, ring: _Ring, a: int, p: int,
            anchor: Anchor | None = None) -> PeriodResult:
    """The result when rows a + 1 .. a + p of ``gen``'s construction are
    one period: the anchor's state has returned after p rows, or, with
    no anchor, the construction restarts after row p (a = 0, pp = 0).
    The period's rows come from the ring, or, when it does not hold
    them, from a fresh cursor or the anchor's state."""
    n, lo = gen.params.n, a + 1
    if ring.covers(lo):
        once = ring.rows(lo, lo + p)
    else:
        source = new_generator(n) if anchor is None else \
            anchor_state(n, anchor)
        flat = []
        for _ in range(p):
            k, ones = source._advance()
            flat.extend([j - k for j in ones])
        once = narrowest(array("q", flat))
    held = _Ring(2 * p, n + 1, lo, once + once)
    p = _minimize_p(held, a, p)
    pp = 0 if anchor is None else _pp_from_ring(ring, lo, p)
    if pp is None:
        pp = _minimize_pp(n, lo, p)
    # Rows lo .. lo + p - 1 of ``held``: one period, from row pp + 1 on.
    b, lm = _measure(held, lo, lo + p)
    once = held.rows(lo, lo + p)
    cut = (pp + 1 - lo) % p * (n + 1)
    return PeriodResult(n=n, pp=pp, p=p, b_breadth=b, l_max=lm,
                        case1=anchor is None, rows_examined=gen.rows_emitted,
                        offsets=once[cut:] + once[:cut])


def _window(live, ring: _Ring | None = None) -> array:
    """The diagonal offsets of the live rows ``live``, oldest first: a
    slice of ``ring`` when it holds them, ending at its last row."""
    if ring is not None:
        top = ring.first + len(ring.offs) // ring.width - len(live)
        if top >= ring.first:
            return ring.rows(top, top + len(live))
    flat = [j - i for i, ones in live for j in ones]
    try:
        return array("b", flat)
    except OverflowError:
        return narrowest(array("q", flat))


def _pp_from_ring(ring: _Ring, k0: int, p: int) -> int | None:
    """Largest i < k0 where the row-shift identity fails (0 if none),
    read from the ring, which must hold rows ``ring.first`` through
    k0 - 1 + p; None when the ring starts after row 1 and shows no
    failure."""
    offs, w, first = ring.offs, ring.width, ring.first
    shift = p * w
    for i in range(k0 - 1, first - 1, -1):
        a = (i - first) * w
        if offs[a:a + w] != offs[a + shift:a + shift + w]:
            return i
    return 0 if first == 1 else None


def _minimize_pp(n: int, k0: int, p: int) -> int:
    """Largest i < k0 where the row-shift identity fails (0 if none),
    from a fresh cursor: the fallback of :func:`_pp_from_ring`."""
    gen = new_generator(n)
    recent = deque(maxlen=p)  # rows k - p .. k - 1
    last_fail = 0
    for k in range(1, k0 + p):
        _, ones = gen._advance()
        enc = [j - k for j in ones]
        if k > p and recent[0] != enc:
            last_fail = k - p
        recent.append(enc)
    return last_fail
