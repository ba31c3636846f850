"""The recurrence table as it stood before it was packed into arrays.

Kept as a test oracle, the way ``_kernel_oracle`` keeps the earlier row
kernel: a dict from the one-int key ``poly | live << 61 | lag << 81``
to the last state row k that had it, and a deque of the keys of the last
``window`` states.  ``record`` is ``_Detector.record`` of that version
with the key's parts passed in, as ``_Table.record`` takes them.
``packed_entries`` reads a packed table back into this form.
"""
from collections import deque


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
