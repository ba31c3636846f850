"""The fingerprint detector that exact-state anchors replaced, kept as
a test oracle the way ``_kernel_oracle`` keeps the earlier row kernel.

``DictTable`` is the recurrence table as it stood before it was packed
into arrays: a dict from the one-int key ``poly | live << 61 | lag <<
81`` to the last state row k that had it, and a deque of the keys of the
last ``window`` states.  ``PackedTable`` is the packed table that
replaced it, and ``packed_entries`` reads a packed table back into the
dict's form.  ``fingerprint_period`` is the detection loop around them:
it trusts no hash, but confirms each hit over a verification span, so
it is an independent way to reach (pp, p).
"""
from array import array
from collections import deque

from rectfree import new_generator

class DictTable:
    """Fingerprint key -> last state row k, over the last ``window``
    states; ``ages`` holds their keys in order."""

    def __init__(self, window: int):
        self.window = window
        self.table: dict[int, int] = {}
        self.ages: deque[int] = deque()

    def record(self, k: int, poly: int, live: int, lag: int) -> int | None:
        key = poly | live << 61 | lag << 81
        table = self.table
        hit = table.get(key)
        table[key] = k
        ages = self.ages
        ages.append(key)
        if len(ages) > self.window:
            old = ages.popleft()  # the key of state k - window
            if table[old] == k - self.window:
                del table[old]
        return hit



class PackedTable:
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


def fingerprint_period(n: int, max_rows: int, window: int):
    """(pp, p) of the order-``n`` construction as the fingerprint
    detector found it within ``max_rows`` rows, or None.

    The state after each row k is keyed by a hash of its live rows'
    diagonal offsets, its live count and its lag in a
    :class:`PackedTable` of ``window`` states.  A hit (k0, p) must then
    show ones(row i + p) = ones(row i) + p for the p + sigma rows after
    k0; p shrinks to its smallest divisor that shifts one period onto
    the next, and pp is the last row where the shift fails.  A restart
    (an empty frontier column) gives pp = 0 at once.
    """
    gen = new_generator(n)
    sigma = gen.params.sigma
    table = PackedTable(window)
    rows = [()]  # the diagonal offsets of row i, at index i
    candidate = None
    while gen.rows_emitted < max_rows:
        k, ones = gen._advance()
        rows.append(tuple([j - k for j in ones]))
        if gen.frontier_l not in gen._sup:
            return 0, min(d for d in range(1, k + 1) if k % d == 0 and
                          rows[1:k + 1 - d] == rows[1 + d:k + 1])
        live = len(gen._live)
        poly = hash(tuple(rows[k - live + 1:]))
        hit = table.record(k, poly & (1 << 61) - 1, live,
                           k + 1 - gen.frontier_l)
        if candidate is None and hit is not None:
            candidate = (hit, k - hit)
        if candidate is None or k < candidate[0] + 2 * candidate[1] + sigma:
            continue
        k0, p = candidate
        candidate = None
        if rows[k0 + 1:k0 + p + sigma + 1] != \
                rows[k0 + p + 1:k0 + 2 * p + sigma + 1]:
            continue  # a hash collision
        p = min(d for d in range(1, p + 1) if p % d == 0 and
                rows[k0 + 1:k0 + p + 1] == rows[k0 + d + 1:k0 + p + d + 1])
        return max([i for i in range(1, k0 + 1) if rows[i] != rows[i + p]],
                   default=0), p
    return None


def packed_entries(table, newest: int) -> tuple[dict[int, int], deque]:
    """The ``(table, ages)`` of a :class:`DictTable` fed what the packed
    ``table`` was fed, ``newest`` the last state recorded.

    Also checks the probing invariant, that every entry is reached from
    its home slot without crossing an empty slot, and that at least four
    slots are kept per entry.
    """
    polys, tags, slots = table.polys, table.tags, table.slots
    span = table.window + 1
    mask = len(slots) - 1

    def state(cell):  # the row of the state in a key ring cell
        return newest - (table.cell - 1 - cell) % span

    entries = {}
    for i, cell in enumerate(slots):
        if cell < 0:
            continue
        j = polys[cell] & mask
        while j != i:
            assert slots[j] >= 0, f"cell {cell} in slot {i} is cut off at {j}"
            j = (j + 1) & mask
        key = polys[cell] | tags[cell] << 61
        assert key not in entries, f"two slots hold key {key}"
        entries[key] = state(cell)
    assert 4 * len(entries) <= len(slots)
    cells = [c for c in range(len(polys)) if state(c) > newest - table.window]
    ages = sorted(cells, key=state)
    return entries, deque(polys[c] | tags[c] << 61 for c in ages)
