"""Independent dense reference implementations used as test oracles.

Nothing here shares code or data structures with the package: the greedy
scan keeps the whole matrix as explicit per-row column sets, the
rectangle check walks every earlier row, the galf listing is the
quadruple loop straight from the definition, and automorphisms and
isomorphisms are found by trying every point permutation.  The
canonical search at the end is the package's earlier one, kept verbatim:
it refines every vertex in every round and visits every leaf, counting
|Aut| as the number of leaves that reach the smallest certificate.
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


def _refine(adj: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Stable 1-dimensional color refinement with deterministic ids.

    New color ids are ranks of the sorted (old color, sorted neighbor
    colors) signatures, so the result depends only on the colored graph,
    never on hashing or platform.
    """
    n_classes = len(set(colors))
    while True:
        sigs = [(colors[u], tuple(sorted(colors[w] for w in adj[u])))
                for u in range(len(adj))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == n_classes:
            return colors
        n_classes = len(rank)


def _cells_of(colors: list[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for u, col in enumerate(colors):
        cells.setdefault(col, []).append(u)
    return cells


def _canon_search(adj, colors) -> tuple[bytes, int]:
    """Smallest leaf certificate below this node and how many leaves
    reach it; a certificate is the full adjacency relabeled by colors."""
    colors = _refine(adj, colors)
    cells = _cells_of(colors)
    target = None
    for col in sorted(cells):
        cell = cells[col]
        if len(cell) > 1 and (target is None or len(cell) < len(target)):
            target = cell
    if target is None:
        inv = [0] * len(adj)
        for u, col in enumerate(colors):
            inv[col] = u
        cert = repr([sorted(colors[w] for w in adj[inv[i]])
                     for i in range(len(adj))]).encode()
        return cert, 1
    # The count of best leaves is |Aut| only because the tree is explored
    # in full, with no pruning, and the target cell and the fresh color
    # are chosen invariantly: Aut then acts freely on the leaves, and the
    # best ones form one orbit.
    fresh = len(adj)  # ids are < len(adj) after _refine's reranking
    best, count = None, 0
    for u in target:
        child = list(colors)
        child[u] = fresh
        cert, n = _canon_search(adj, child)
        if best is None or cert < best:
            best, count = cert, n
        elif cert == best:
            count += n
    return best, count
