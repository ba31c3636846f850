"""Period and preperiod detection for the streaming construction.

The state about to build row k — the live rows cropped at the frontier
column, plus the frontier's offset from the diagonal — determines every
later row.  The detector fingerprints that window per row in a
translation-invariant way (one-positions encoded as offsets from the
diagonal, combined by a rolling polynomial hash) and keeps fingerprints
of the most recent ``window`` rows, so the first recurrence of a state
is found in a single pass whenever the cycle length fits in the window.

The fingerprint key holds the diagonal offset k - l(k) exactly, beside
the hash, so two states with the same key are diagonally aligned: a hit
at rows (k0, k0+p) always has l(k0+p) = l(k0) + p.  The hash part is
never trusted.  A candidate period p is verified bit-exactly: the
row-shift identity ones(row i+p) = ones(row i) + p must hold for
p + sigma consecutive rows from k0 — enough that the identity then
sustains itself forever, because every later window consists of rows
already known to repeat.

The preperiod is then the last row i < k0 where the row-shift identity
fails.  It is read from the detector's ring of recent rows when the ring
reaches back to that row (or to row 1); otherwise a second cursor
regenerates the rows from row 1.  Minimality of p is confirmed against
every proper divisor over one full period window.

Special case: when the frontier column of the state about to build row
k has no ones at all, the construction restarts from scratch shifted by
k-1, so pp = 0 and p = k-1 immediately (``case1`` in the result).
"""
from __future__ import annotations

import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import sub
from time import monotonic

from .errors import (BudgetExhaustedError, CorruptCheckpointError,
                     InvalidParameterError, InvariantViolationError)
from .generator import GeneratorState, Params, new_generator

#: Default number of recent states kept for recurrence detection.  A
#: cycle is only detectable while it fits in the window; raise via the
#: ``window`` argument to hunt for longer periods at more memory.
DEFAULT_WINDOW = 1 << 17

_MOD = (1 << 61) - 1
_INF = float("inf")
_NEVER = 1 << 62  # a row count no run reaches
_B = 0x2545F4914F6CDD1D % _MOD


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
    the detection cursor, resumed runs included.  Rows that a resumed run
    regenerates from row 1 are not counted: rows 1..p for the restart
    shortcut when the ring starts after row 1, and rows 1 through
    k0 - 1 + p for pp when the ring no longer reaches back to the last
    row-shift mismatch.  ``offsets`` is one period, in the ring's flat
    layout: the diagonal offsets (one-columns minus the row index, n + 1
    per row) of rows pp+1..pp+p.  Row r > pp has its ones at r plus the
    offsets of row pp + 1 + (r - pp - 1) mod p.
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


@dataclass(frozen=True)
class DetectorSnapshot:
    """Plain-data image of the detector, for checkpointing.

    ``ring`` is one flat array of the diagonal offsets (one-columns
    minus the row index, n + 1 per row) of the rows from ``ring_first``
    through the last row generated, and ``lags[t]`` is k - l(k) for the
    state k after row ``ring_first + t``: the same packed layout the
    detector keeps in memory, as signed arrays of any width.  The
    fingerprint table is not stored: restoring replays the ring, which
    reaches back ``window + sigma + 1`` rows so that every state inside
    the table's horizon gets its full live window.  At n = 6 a ring row
    takes 8 bytes here and on disk, and the detector rebuilt from it
    about 41 bytes per window row in memory.

    :func:`detect_period` takes snapshots from its live detector, both
    for in-loop checkpoints and when the budget runs out, and goes on
    detecting; a process replays a snapshot only once, when it resumes
    from one.  Restoring copies the arrays, so one snapshot can seed any
    number of runs.

    ``candidate`` preserves an in-flight verification — the ``(k0, p)``
    recurrence being checked when the budget ran out — so that resuming
    continues the bit-exact comparison instead of discarding it.  The
    ring then reaches back to row k0 as well.  Without this, a run
    checkpointed in slices shorter than the ``2p + sigma`` verification
    span would restart verification every slice and never confirm a
    period.
    """

    window: int
    ring_first: int
    ring: array
    lags: array
    candidate: tuple[int, int] | None = None  # (k0, p) mid-verification


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
    """Diagonal offsets and state lags of the last ~maxlen rows, packed.

    ``offs`` holds ``width`` offsets per row and ``lags`` one lag per
    row, each in a signed array that starts one byte wide and widens
    (2, 4, then 8 bytes) when a value does not fit, keeping every row.
    Row i starts at ``offs[(i - first) * width]``.  Rows at or after
    ``pin`` are never trimmed: they hold the verification in flight.
    """

    __slots__ = ("maxlen", "width", "first", "offs", "lags", "pin")

    def __init__(self, maxlen: int, width: int, first: int = 1,
                 offs: array | None = None, lags: array | None = None):
        self.maxlen = maxlen
        self.width = width
        self.first = first  # row index of the first row held
        self.offs = offs or array("b")
        self.lags = lags or array("b")
        self.pin: int | None = None

    def append(self, offs: list[int], lag: int) -> None:
        try:
            self.offs.fromlist(offs)  # all or nothing
        except OverflowError:
            self.offs = narrowest(self.offs, offs)
        lags = self.lags
        try:
            lags.append(lag)
        except OverflowError:
            self.lags = lags = narrowest(lags, [lag])
        if len(lags) > self.maxlen + (self.maxlen >> 1):
            cut = len(lags) - self.maxlen
            if self.pin is not None:
                cut = min(cut, self.pin - self.first)
            del self.offs[:cut * self.width]
            del lags[:cut]
            self.first += cut

    def covers(self, row: int) -> bool:
        return self.first <= row < self.first + len(self.lags)

    def rows(self, lo: int, hi: int) -> array:
        """The offsets of rows lo .. hi - 1, as one flat array."""
        w = self.width
        return self.offs[(lo - self.first) * w:(hi - self.first) * w]


class _Table:
    """The recurrence table: for each fingerprint key among the last
    ``window`` states, the newest state row k that had it.

    A key is a pair of ints, ``poly`` (the rolling hash, below 2**61) and
    ``tag``, ``live | lag << 20`` (the live row count, below 2**20, and
    the frontier lag k - l).  ``polys`` and ``tags`` form a circular key
    ring of ``window + 1`` cells, filled in state order from cell 0;
    ``cell`` is the cell of the next state.  So state k never shares a
    cell with state k - window, which it expires.  ``slots`` is a
    linear-probing hash table of key ring cells, home slot
    ``poly & (len(slots) - 1)``, -1 for empty: a state's row is the
    newest row minus its distance back in the ring.  A cell takes four
    bytes (eight for a window of 2**31 or more), so four slots per entry
    cost what two row numbers would, and keep probe runs short.
    Deletion shifts later entries of the probe run back into the hole
    (Knuth, TAOCP vol. 3, 6.4, Algorithm R), so there are no tombstones.
    The key ring grows by appending and ``slots`` by doubling, keeping at
    least four slots per entry, so a new table holds nothing sized by its
    window.  States must be recorded in consecutive order.

    This is 16 bytes per window row in the key ring and 16 to 32 in
    ``slots``, against about 84 for a dict and a deque of int keys.
    """

    __slots__ = ("window", "span", "polys", "tags", "cell", "slots")

    def __init__(self, window: int):
        self.window = window
        self.span = window + 1
        self.polys = array("q")
        self.tags = array("q")
        self.cell = 0
        self.slots = array("i" if window < 1 << 31 else "q", [-1]) * 8

    def reserve(self, states: int) -> None:
        """Size ``slots`` for ``states`` more states at once, so that
        recording them rehashes nothing."""
        size = len(self.slots)
        while 4 * min(len(self.polys) + states, self.window) > size:
            size *= 2
        if size > len(self.slots):
            self._grow(size)

    def record(self, k: int, poly: int, live: int, lag: int) -> int | None:
        """Enter state k, the state after the last recorded one, with
        its rolling hash, live row count and frontier lag; return the
        state row k0 its key held before, then expire state k - window.
        The key fixes the lag, so l0 = k0 - lag."""
        tag = live | lag << 20
        polys, tags, slots = self.polys, self.tags, self.slots
        c = self.cell
        mask = len(slots) - 1
        i = poly & mask
        hit = slots[i]
        while hit >= 0:
            if polys[hit] == poly and tags[hit] == tag:
                break
            i = (i + 1) & mask
            hit = slots[i]
        slots[i] = c
        span = self.span
        if c < len(polys):
            polys[c] = poly
            tags[c] = tag
            c += 1
            if c == span:
                c = 0
        else:
            polys.append(poly)
            tags.append(tag)
            c += 1
            if c < span:  # nothing to expire yet
                self.cell = c
                if 4 * c > mask + 1:  # one entry at most per state
                    self._grow(2 * (mask + 1))
                return None if hit < 0 else k - (c - 1 - hit) % span
            c = 0
        self.cell = c
        # State k - window is in cell c: find its slot, unless a newer
        # state with its key took it over.
        i = polys[c] & mask
        s = slots[i]
        while s != c:
            if s < 0:
                break
            i = (i + 1) & mask
            s = slots[i]
        else:
            slots[i] = -1
            j = (i + 1) & mask
            s = slots[j]
            while s >= 0:
                # The entry at j may fill the hole at i unless its home
                # lies cyclically in (i, j].
                h = polys[s] & mask
                if (h <= i or h > j) if i < j else (j < h <= i):
                    slots[i] = s
                    slots[j] = -1
                    i = j
                j = (j + 1) & mask
                s = slots[j]
        return None if hit < 0 else k - (c - 1 - hit) % span

    def _grow(self, size: int) -> None:
        polys = self.polys
        slots = array(self.slots.typecode, [-1]) * size
        mask = size - 1
        for s in self.slots:
            if s >= 0:
                i = polys[s] & mask
                while slots[i] >= 0:
                    i = (i + 1) & mask
                slots[i] = s
        self.slots = slots


class _Detector:
    """Rolling window-state fingerprints plus the recurrence table.

    Every state is recorded, so the table is a pure function of the
    rows in the ring: :meth:`restore` rebuilds it by replaying them.
    A state's key is the rolling hash (below 2**61), the live row count
    (at most sigma + 1, below 2**20) and the frontier lag, so two states
    with the same key have the same lag.  The :class:`_Table` maps a key
    to the last state row k that had it over the last ``window`` states;
    the state after each row is recorded in it once the row is pushed.
    At n = 6 the detector holds about 41 bytes per window row: 8 for the
    packed ring row, the rest the table's key ring and slots.
    """

    __slots__ = ("window", "sigma", "table", "ring", "deq", "poly", "pows")

    def __init__(self, window: int, params: Params):
        self.window = window
        self.sigma = params.sigma
        self.table = _Table(window)
        # sigma extra rows give the oldest state in the table its window.
        self.ring = _Ring(window + 1 + self.sigma, params.n + 1)
        # live-window mirror: (last one-column, hash term) per live row;
        # poly = sum of term * B^(rows after it), pows[d] = B^d.
        self.deq: deque[tuple[int, int]] = deque()
        self.poly = 0
        self.pows = [1]

    def push_row(self, ones_last: int, enc: tuple[int, ...],
                 frontier: int) -> None:
        """Add a row to the live window, then evict rows left of
        ``frontier``, the frontier of the state after the row."""
        h = hash(enc) % _MOD
        deq = self.deq
        pows = self.pows
        poly = (self.poly * _B + h) % _MOD
        deq.append((ones_last, h))
        if len(deq) > len(pows):
            pows.append(pows[-1] * _B % _MOD)
        while deq and deq[0][0] < frontier:
            poly = (poly - deq.popleft()[1] * pows[len(deq)]) % _MOD
        self.poly = poly

    def snapshot(self, candidate: tuple[int, int] | None = None
                 ) -> DetectorSnapshot:
        ring = self.ring
        start = ring.first + len(ring.lags) - 1 - self.window - self.sigma
        if candidate is not None:
            start = min(start, candidate[0])
        cut = max(0, start - ring.first)
        return DetectorSnapshot(
            window=self.window,
            ring_first=ring.first + cut,
            ring=ring.offs[cut * ring.width:],
            lags=ring.lags[cut:],
            candidate=candidate,
        )

    @classmethod
    def restore(cls, snap: DetectorSnapshot,
                gen: GeneratorState) -> "_Detector":
        """Rebuild the detector; raises :class:`CorruptCheckpointError`
        when the snapshot disagrees with ``gen``."""
        if snap.window < 4:
            raise CorruptCheckpointError(
                f"detector window {snap.window} is below 4")
        det = cls(snap.window, gen.params)
        lo = det._replay(snap, gen.next_k)
        # The replayed window must be the generator's, from row lo on.
        if list(det.deq) != [(ones[-1], hash(tuple([j - i for j in ones]))
                              % _MOD) for i, ones in gen._live if i >= lo]:
            raise CorruptCheckpointError(
                "detector ring disagrees with the generator's live rows")
        det.deq.clear()
        det.poly = 0
        for i, ones in gen._live:
            det.push_row(ones[-1], tuple([j - i for j in ones]), 0)
        return det

    def _replay(self, snap: DetectorSnapshot, end: int) -> int:
        """Rebuild ring, window and table from ``snap``; returns the
        first replayed row."""
        first, offs, lags = snap.ring_first, snap.ring, snap.lags
        w = self.ring.width
        if len(offs) != len(lags) * w or first + len(lags) != end:
            raise CorruptCheckpointError(
                f"detector ring of {len(offs)} offsets and {len(lags)} "
                f"lags from row {first} does not hold {w} offsets per row "
                f"through the generator's row {end - 1}")
        if snap.candidate is not None:
            k0, p = snap.candidate
            if not (first <= k0 and 1 <= p <= self.window and k0 + p <= end):
                raise CorruptCheckpointError(
                    f"candidate ({k0}, {p}) lies outside the detector ring")
        self.ring = _Ring(self.ring.maxlen, w, first,
                          array(offs.typecode, offs),
                          array(lags.typecode, lags))
        sigma = self.sigma
        lo = max(first, end - 1 - self.window - sigma)
        # A state's live window lies within sigma rows before it, so it is
        # complete once sigma rows have been replayed (or from row 1).
        rec = max(end - self.window + 1, lo + sigma if lo > 1 else 2)
        push_row = self.push_row
        record = self.table.record
        deq = self.deq
        self.table.reserve(end + 1 - rec)
        flat = islice(offs, (lo - first) * w, None)
        for i, enc, lag in zip(range(lo, end), zip(*[flat] * w),
                               islice(lags, lo - first, None)):
            k = i + 1
            l = k - lag
            push_row(i + enc[-1], enc, l)
            if k >= rec:
                record(k, self.poly, len(deq), lag)
        return lo


def _proper_divisors(p: int) -> list[int]:
    return [d for d in range(1, p) if p % d == 0]


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
        for cand in _proper_divisors(p):
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

    ``window`` is a fresh run's recurrence window (None: the default);
    a resumed run keeps its snapshot's window and refuses another one.

    ``cadence`` is checked between rows.  Its save hook gets a
    :class:`ResumeState` (its own copy of the generator), and detection
    goes on with the same detector; so a run rebuilds a detector from a
    snapshot only when it resumes.  No save falls at the budget row,
    whose state the error carries.

    The result is exact: row-shift identities are checked bit-for-bit
    over p + sigma consecutive rows, p is minimal among all divisors,
    and pp is the last row before k0 where the identity fails.  pp is
    read from the detector's ring; a second cursor regenerates rows from
    row 1 only when the ring starts after that row (after a resume
    mid-verification, whose ring starts at k0).  The verified period's
    rows, also read from the ring, go into ``offsets``.
    """
    if max_rows < 1:
        raise InvalidParameterError(f"max_rows must be >= 1, got {max_rows}")
    if window is not None and window < 4:
        raise InvalidParameterError(f"window must be >= 4, got {window}")
    if cadence is None:
        cadence = Cadence()
    candidate = None  # (k0, p) in verification; the ring is pinned at k0
    if resume is None:
        gen = new_generator(n)
        det = _Detector(window or DEFAULT_WINDOW, gen.params)
    else:
        if window not in (None, resume.detector.window):
            raise InvalidParameterError(
                f"--window {window} differs from the window "
                f"{resume.detector.window} of the resumed run")
        gen = resume.generator.clone()
        if gen.params is None or gen.params.n != n:
            raise InvalidParameterError("resume state is for a different order")
        det = _Detector.restore(resume.detector, gen)
        candidate = resume.detector.candidate
        # The detector holds copies: keep no reference to the snapshot,
        # so that it is freed if the caller holds none either.
        resume = None
    sigma = gen.params.sigma
    ring = det.ring
    record, deq = det.table.record, det.deq

    def finish(pp: int, p: int, held: _Ring, lo: int, case1: bool
               ) -> PeriodResult:
        # Rows lo .. lo + p - 1 of ``held``: one period, from row pp + 1 on.
        b, lm = _measure(held, lo, lo + p)
        once = held.rows(lo, lo + p)
        cut = (pp + 1 - lo) % p * (n + 1)
        return PeriodResult(n=n, pp=pp, p=p, b_breadth=b, l_max=lm,
                            case1=case1, rows_examined=gen.rows_emitted,
                            offsets=once[cut:] + once[:cut])

    if candidate is not None:
        # Continue an interrupted verification; its rows k0 .. last row
        # are in the ring, or the restore above refused the snapshot.
        ring.pin = candidate[0]
    cadence.start(gen.rows_emitted)
    while True:
        rows = gen.rows_emitted
        if rows >= max_rows:
            raise BudgetExhaustedError(
                f"no period confirmed within {max_rows} rows",
                resume=ResumeState(generator=gen,
                                   detector=det.snapshot(candidate)),
                rows_examined=rows)
        if rows >= cadence.next_row:
            cadence.check(rows, lambda: ResumeState(
                gen.clone(), det.snapshot(candidate)))
        k, ones = gen._advance()
        if on_row is not None:
            on_row(k, ones)
        state_k = gen.next_k
        frontier = gen.frontier_l
        lag = state_k - frontier
        enc = [j - k for j in ones]
        ring.append(enc, lag)
        det.push_row(ones[-1], tuple(enc), frontier)
        hit = record(state_k, det.poly, len(deq), lag)

        # Restart shortcut: the frontier column has no ones at all, so
        # rows p + 1 .. 2p repeat rows 1 .. p, which the ring holds
        # unless it starts after row 1.
        if frontier not in gen._sup:
            p = state_k - 1
            if ring.first == 1:
                once = ring.rows(1, p + 1)
            else:  # a resumed ring: regenerate rows 1 .. p
                fresh = new_generator(n)
                once = array("q")
                for _ in range(p):
                    fk, fones = fresh._advance()
                    once.extend([j - fk for j in fones])
            encs = _Ring(2 * p, n + 1, offs=once + once)  # lags unused
            return finish(0, _minimize_p(encs, 0, p), encs, 1, True)

        if candidate is not None:
            k0, p = candidate
            if state_k < k0 + 2 * p + sigma:
                continue
            candidate = None
            ring.pin = None
            # Rows k0 .. k0 + p + sigma - 1 against the rows p later.
            if ring.rows(k0, k0 + p + sigma) == \
                    ring.rows(k0 + p, k0 + 2 * p + sigma):
                p = _minimize_p(ring, k0, p)
                pp = _pp_from_ring(ring, k0, p)
                if pp is None:
                    pp = _minimize_pp(n, k0, p)
                return finish(pp, p, ring, k0 + 1, False)
            continue  # fingerprint collision; keep scanning

        if hit is None:
            continue
        if not ring.covers(hit):
            continue  # too old to verify; a later recurrence will do
        candidate = (hit, state_k - hit)
        ring.pin = hit


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
    recent = _Ring(p, n + 1)  # at least rows k - p .. k - 1; lags unused
    last_fail = 0
    for k in range(1, k0 + p):
        _, ones = gen._advance()
        enc = [j - k for j in ones]
        if k > p and recent.rows(k - p, k - p + 1).tolist() != enc:
            last_fail = k - p
        recent.append(enc, 0)
    return last_fail
