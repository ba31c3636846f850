"""Independent dense reference implementations used as test oracles.

Nothing here shares code or data structures with the package: the greedy
scan keeps the whole matrix as explicit per-row column sets, the
rectangle check walks every earlier row, the galf listing is the
quadruple loop straight from the definition, and automorphisms and
isomorphisms are found by trying every point permutation.
"""
from itertools import combinations, permutations


def dense_rows(row_cap: int, col_cap: int, count: int) -> list[tuple[int, ...]]:
    """First ``count`` greedy rows for the given caps, the slow way."""
    placed: list[set[int]] = []
    col_w: dict[int, int] = {}
    out: list[tuple[int, ...]] = []
    for _ in range(count):
        ones: list[int] = []
        j = 0
        while len(ones) < row_cap:
            j += 1
            if col_w.get(j, 0) >= col_cap:
                continue
            ok = True
            for prev in placed:
                if j in prev and any(c in prev for c in ones):
                    ok = False
                    break
            if ok:
                ones.append(j)
        for j in ones:
            col_w[j] = col_w.get(j, 0) + 1
        placed.append(set(ones))
        out.append(tuple(ones))
    return out


def find_rectangle_oracle(rows) -> tuple[int, int] | None:
    """0-based indices of the first two rows sharing two columns."""
    seen: dict[tuple[int, int], int] = {}
    for idx, ones in enumerate(rows):
        for pair in combinations(sorted(ones), 2):
            if pair in seen:
                return seen[pair], idx
            seen[pair] = idx
    return None


def galfs_oracle(dense) -> set[tuple[int, int]]:
    """All cells (i, j), 1-based, completing a rectangle with a flag."""
    grid = [list(row) for row in dense]
    m = len(grid)
    w = len(grid[0]) if m else 0
    cells: set[tuple[int, int]] = set()
    for i in range(1, m + 1):
        for j in range(1, w + 1):
            for k in range(1, m + 1):
                if k == i:
                    continue
                for l in range(1, w + 1):
                    if l == j:
                        continue
                    if grid[k - 1][l - 1] and grid[k - 1][j - 1] \
                            and grid[i - 1][l - 1]:
                        cells.add((i, j))
    return cells


def _carrying_permutations(a_lines, b_lines):
    """Every permutation of a's points that carries each line of a onto
    a line of b.  With distinct lines and equal line counts, each one
    maps the line set of a onto that of b."""
    points = sorted({p for line in a_lines for p in line})
    target = {frozenset(line) for line in b_lines}
    for image in permutations(points):
        relabel = dict(zip(points, image))
        if all(frozenset(relabel[p] for p in line) in target
               for line in a_lines):
            yield relabel


def automorphism_count_oracle(lines) -> int:
    """Point permutations mapping the line set onto itself (small v only)."""
    return sum(1 for _ in _carrying_permutations(lines, lines))


def isomorphic_oracle(a_lines, b_lines) -> bool:
    """Whether some point permutation carries a's line set onto b's."""
    return (len(a_lines) == len(b_lines)
            and {p for line in a_lines for p in line}
            == {p for line in b_lines for p in line}
            and next(_carrying_permutations(a_lines, b_lines), None)
            is not None)
