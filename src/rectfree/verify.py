"""Verification and identification of finite incidence structures.

Given a square 0-1 matrix read as lines (rows) over points (columns),
this module checks the symmetric-configuration axioms, recognizes
projective planes, builds reference desarguesian planes over small
finite fields, and answers isomorphism, automorphism and canonical-form
questions with one search: color refinement with individualization
backtracking on the bipartite point/line incidence (Levi) graph.  Its
smallest leaf certificate is the canonical form.  Two leaves with equal
certificates give an automorphism; the search skips every subtree that
a found automorphism maps onto one already searched, and the group order
is the product of orbit sizes along the first path (orbit-stabilizer;
McKay and Piperno, "Practical graph isomorphism, II", 2014), so the
cost does not grow with the group order.

Convention: automorphisms and isomorphisms map points to points and
lines to lines; dualities (point/line swaps) are never counted.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations

from .errors import (InvalidParameterError, InvariantViolationError,
                     SizeLimitError)
from .matrix import IncidenceMatrix

#: verify_configuration refuses structures with more points than this.
MAX_POINTS = 10_000
#: Default cap on search-graph vertices for isomorphism/automorphism work.
DEFAULT_VERTEX_BUDGET = 10_000


def find_rectangle(rows) -> tuple[int, int, int, int] | None:
    """First two rows sharing two columns, as (row1, row2, col1, col2).

    ``rows`` is a sequence of ascending column tuples (row i+1 at index
    i).  Returns None when no such quadruple exists (rectangle-free).
    Cost is O(total ones * row weight) using a pair-first-seen table.
    """
    seen: dict[tuple[int, int], int] = {}
    for i, ones in enumerate(rows, 1):
        for pair in combinations(ones, 2):
            first = seen.get(pair)
            if first is not None:
                return (first, i, pair[0], pair[1])
            seen[pair] = i
    return None


@dataclass(frozen=True)
class ConfigurationViolation:
    """A failed configuration axiom, with the first witness found.

    ``axiom`` is "i" (two lines share two points), "ii" (a line of
    wrong size, or no line at all), or "iii" (a point of wrong degree).
    Violations are ordinary data returned by
    :func:`verify_configuration`, not raised.
    """

    axiom: str
    witness: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class Configuration:
    """A verified symmetric configuration: v lines of k points each.

    Points are 1..v (matrix columns), lines 1..v (matrix rows);
    ``incidence[i]`` lists line i+1's points ascending.
    """

    v: int
    k: int
    incidence: tuple[tuple[int, ...], ...]

    def lines_through(self) -> list[tuple[int, ...]]:
        """Ascending line indices through each point (index 0 = point 1)."""
        through: list[list[int]] = [[] for _ in range(self.v)]
        for i, pts in enumerate(self.incidence, 1):
            for p in pts:
                through[p - 1].append(i)
        return [tuple(t) for t in through]

    def matrix(self) -> IncidenceMatrix:
        return IncidenceMatrix(self.v, self.v, self.incidence)


def verify_configuration(matrix: IncidenceMatrix, n: int
                         ) -> Configuration | ConfigurationViolation:
    """Check the symmetric-configuration axioms for k = n+1 exhaustively.

    Returns the :class:`Configuration` on success, or the first
    violation found: line sizes first (axiom ii), then point degrees
    (axiom iii), then pairwise line intersections (axiom i).  The empty
    matrix, which meets every axiom vacuously, is refused under axiom ii
    with witness ``(0,)``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"order n must be a positive int, got {n!r}")
    v = matrix.size  # raises on non-square input
    if v > MAX_POINTS:
        raise SizeLimitError(
            f"{v} points exceeds the verification limit {MAX_POINTS}")
    k = n + 1
    if v == 0:
        # Vacuous otherwise; for v >= 1 the axioms force v >= k(k-1) + 1.
        return ConfigurationViolation(
            axiom="ii", witness=(0,),
            message=f"the matrix has no lines; a configuration with k = {k} "
                    f"has at least {k * (k - 1) + 1} lines")
    for i, ones in enumerate(matrix.rows, 1):
        if len(ones) != k:
            return ConfigurationViolation(
                axiom="ii", witness=(i, len(ones)),
                message=f"line {i} has {len(ones)} points, expected {k}")
    for j, w in enumerate(matrix.column_weights(), 1):
        if w != k:
            return ConfigurationViolation(
                axiom="iii", witness=(j, w),
                message=f"point {j} lies on {w} lines, expected {k}")
    rect = find_rectangle(matrix.rows)
    if rect is not None:
        l1, l2, p1, p2 = rect
        return ConfigurationViolation(
            axiom="i", witness=rect,
            message=f"lines {l1} and {l2} share points {p1} and {p2}")
    return Configuration(v=v, k=k, incidence=matrix.rows)


def is_projective_plane(c: Configuration) -> bool:
    """True iff c is a projective plane: v = q^2+q+1 for q = k-1 >= 2.

    The point count criterion decides; the join property (any two
    points on a common line) is then verified exhaustively anyway, and
    a discrepancy — impossible for a valid configuration — is raised
    as an internal error.
    """
    q = c.k - 1
    if q < 2 or c.v != q * q + q + 1:
        return False
    through = c.lines_through()
    for p in range(1, c.v + 1):
        joined: set[int] = set()
        for line in through[p - 1]:
            joined.update(c.incidence[line - 1])
        if len(joined) != c.v:  # every other point, plus p itself
            raise InvariantViolationError(
                f"point {p} joined to {len(joined) - 1} of {c.v - 1} "
                f"points despite plane parameters")
    return True


# ---------------------------------------------------------------------
# Reference desarguesian planes over small finite fields.

_SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# Irreducible polynomials for the non-prime orders, as ascending
# coefficient tuples (c0, c1, ..., c_{e-1}) of x^e = -(c0 + c1 x + ...):
#   q=4:  x^2 + x + 1 over GF(2)      q=8:  x^3 + x + 1 over GF(2)
#   q=9:  x^2 + 1     over GF(3)      q=16: x^4 + x + 1 over GF(2)
_FIELD_POLY = {
    4: (2, (1, 1)),
    8: (2, (1, 1, 0)),
    9: (3, (1, 0)),
    16: (2, (1, 1, 0, 0)),
}


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables for the q-element field.

    Elements are 0..q-1; for prime powers p^e, element x encodes the
    coefficient vector of a degree-<e polynomial in base p, least
    significant digit first.
    """
    if q not in _FIELD_POLY:  # prime order: plain modular arithmetic
        add = [[(a + b) % q for b in range(q)] for a in range(q)]
        mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        return add, mul
    p, reduction = _FIELD_POLY[q]
    e = len(reduction)

    def digits(x: int) -> list[int]:
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return out

    def undigits(d: list[int]) -> int:
        x = 0
        for c in reversed(d):
            x = x * p + c
        return x

    add = [[undigits([(xa + xb) % p for xa, xb in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]

    def polymul(a: int, b: int) -> int:
        da, db = digits(a), digits(b)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        for deg in range(2 * e - 2, e - 1, -1):  # reduce x^deg
            c = prod[deg]
            if c:
                prod[deg] = 0
                for t, rc in enumerate(reduction):
                    prod[deg - e + t] = (prod[deg - e + t] - c * rc) % p
        return undigits(prod[:e])

    mul = [[polymul(a, b) for b in range(q)] for a in range(q)]
    return add, mul


def reference_plane(q: int) -> Configuration:
    """The desarguesian projective plane of order q as a Configuration.

    Points and lines are the normalized nonzero triples over the
    q-element field (first nonzero coordinate 1), both enumerated in
    the same deterministic order; point x lies on line u iff the dot
    product x.u vanishes.  Supported q: 2, 3, 4, 5, 7, 8, 9, 11, 13, 16.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q not in _SUPPORTED_Q:
        raise InvalidParameterError(
            f"unsupported plane order {q!r}; supported: {_SUPPORTED_Q}")
    add, mul = _field_tables(q)
    triples = ([(1, a, b) for a in range(q) for b in range(q)]
               + [(0, 1, a) for a in range(q)]
               + [(0, 0, 1)])
    v = q * q + q + 1
    incidence = []
    for u in triples:
        pts = tuple(
            i for i, x in enumerate(triples, 1)
            if add[mul[x[0]][u[0]]][add[mul[x[1]][u[1]]][mul[x[2]][u[2]]]] == 0)
        if len(pts) != q + 1:
            raise InvariantViolationError(
                f"reference line holds {len(pts)} points, expected {q + 1}")
        incidence.append(pts)
    return Configuration(v=v, k=q + 1, incidence=tuple(incidence))


# ---------------------------------------------------------------------
# Desarguesian-plane recognition by coordinatization.
#
# Projective planes are pathologically regular: color refinement cannot
# tell their vertices apart, so the generic isomorphism search below
# degrades badly on them.  Planes admit a classical shortcut instead: fix
# a frame (four points, no three collinear), coordinatize the plane by
# its planar ternary ring, and check that the ring is a finite field
# with T(x, m, b) = x*m + b.  That holds for some (equivalently every)
# frame precisely when the plane is desarguesian, and finite
# desarguesian planes of equal order are unique up to isomorphism — so
# two same-order planes that both pass are isomorphic, and a pair where
# exactly one passes is not.


def is_desarguesian(c: Configuration) -> bool:
    """Whether c is a desarguesian projective plane.

    Total: returns False when c is not a projective plane at all.  The
    decision coordinatizes one frame and verifies the ternary ring is a
    field acting linearly, which is frame-independent.
    """
    q = c.k - 1
    if q < 2 or c.v != q * q + q + 1:
        return False
    # Join map: the line of point pair a < b at a*(v+1) + b, 0 if none.
    stride = c.v + 1
    join = array("i", [0]) * (stride * stride)
    for li, pts in enumerate(c.incidence, 1):
        for a, b in combinations(pts, 2):
            if join[a * stride + b]:
                return False  # two lines share two points
            join[a * stride + b] = li
    if sum(len(pts) * (len(pts) - 1) for pts in c.incidence) \
            != c.v * (c.v - 1):
        return False  # some point pair is not joined
    line_pts = [frozenset(pts) for pts in c.incidence]

    def joi(a: int, b: int) -> int:
        return join[a * stride + b if a < b else b * stride + a]

    def meet(l1: int, l2: int) -> int:
        common = line_pts[l1 - 1] & line_pts[l2 - 1]
        (p,) = common
        return p

    # Frame: X, Y on the line at infinity; O the origin; I the unit.
    x_inf = 1
    y_inf = 2
    l_inf = joi(x_inf, y_inf)
    on_inf = line_pts[l_inf - 1]
    origin = next(p for p in range(1, c.v + 1) if p not in on_inf)
    x_axis = joi(x_inf, origin)
    y_axis = joi(y_inf, origin)
    blocked = on_inf | line_pts[x_axis - 1] | line_pts[y_axis - 1]
    unit = next(p for p in range(1, c.v + 1) if p not in blocked)
    diag = joi(origin, unit)
    e_inf = meet(diag, l_inf)

    # The ring elements are the affine diagonal points, 0 = origin,
    # 1 = unit, the rest in ascending point order.
    ring = [origin, unit] + sorted(
        p for p in line_pts[diag - 1] if p not in (origin, unit, e_inf))
    idx = {p: i for i, p in enumerate(ring)}

    def ycoord(p: int) -> int:
        # project from X onto the diagonal
        return idx[meet(joi(x_inf, p), diag) if p not in line_pts[diag - 1]
                   else p]

    vert = [joi(y_inf, d) for d in ring]           # vertical line per x
    horiz = [joi(x_inf, d) for d in ring]          # horizontal per y
    b_pts = [meet(h, y_axis) for h in horiz]       # (0, b) per b
    # slope points on the infinite line: M[m] = (O (1,m)) .. l_inf
    slope = [meet(joi(origin, meet(vert[1], horiz[m])), l_inf)
             if m != 0 else x_inf for m in range(q)]
    if len(set(slope)) != q or y_inf in slope:
        return False

    t_table = [[[0] * q for _ in range(q)] for _ in range(q)]
    for m in range(q):
        for b in range(q):
            line_mb = joi(slope[m], b_pts[b]) if slope[m] != b_pts[b] else 0
            if line_mb == 0:
                return False
            for x in range(q):
                t_table[x][m][b] = ycoord(meet(line_mb, vert[x]))

    add = [[t_table[a][1][b] for b in range(q)] for a in range(q)]
    mul = [[t_table[a][b][0] for b in range(q)] for a in range(q)]
    rng = range(q)
    # Linearity: T(x, m, b) = x*m + b throughout.
    if any(t_table[x][m][b] != add[mul[x][m]][b]
           for x in rng for m in rng for b in rng):
        return False
    # (ring, +) is an abelian group with identity 0 ...
    if any(add[a][0] != a or add[0][a] != a for a in rng):
        return False
    if any(add[a][b] != add[b][a] for a in rng for b in rng):
        return False
    if any(sorted(add[a]) != list(rng) for a in rng):
        return False
    if any(add[add[a][b]][c2] != add[a][add[b][c2]]
           for a in rng for b in rng for c2 in rng):
        return False
    # ... (ring \ 0, *) an abelian group with identity 1 ...
    if any(mul[a][1] != a or mul[1][a] != a for a in rng):
        return False
    if any(mul[a][0] != 0 or mul[0][a] != 0 for a in rng):
        return False
    if any(mul[a][b] != mul[b][a] for a in rng for b in rng):
        return False
    if any(sorted(mul[a][1:]) != list(rng)[1:] for a in rng if a != 0):
        return False
    if any(mul[mul[a][b]][c2] != mul[a][mul[b][c2]]
           for a in rng for b in rng for c2 in rng):
        return False
    # ... and multiplication distributes over addition.
    if any(mul[add[a][b]][c2] != add[mul[a][c2]][mul[b][c2]]
           for a in rng for b in rng for c2 in rng):
        return False
    return True


# ---------------------------------------------------------------------
# Isomorphism, automorphism counting and canonical forms: one
# refinement + individualization search on the Levi graph.


def _levi_adjacency(c: Configuration) -> list[tuple[int, ...]]:
    """Levi graph of c: vertices 0..v-1 points, v..2v-1 lines."""
    v = c.v
    pts_adj: list[list[int]] = [[] for _ in range(v)]
    adj: list[tuple[int, ...]] = [()] * (2 * v)
    for i, pts in enumerate(c.incidence, 1):
        adj[v + i - 1] = tuple(p - 1 for p in pts)
        for p in pts:
            pts_adj[p - 1].append(v + i - 1)
    for p in range(v):
        adj[p] = tuple(pts_adj[p])
    return adj


def levi_dot(c: Configuration) -> str:
    """Deterministic DOT text of the Levi graph: p1..pv, l1..lv."""
    out = ["graph levi {\n"]
    for i, pts in enumerate(c.incidence, 1):
        for p in pts:
            out.append(f"  p{p} -- l{i};\n")
    out.append("}\n")
    return "".join(out)


def _refine(adj: list[tuple[int, ...]], colors: list[int],
            touched=None) -> list[int]:
    """Stable 1-dimensional color refinement with deterministic ids.

    Rounds are synchronous: each splits every cell by its members'
    sorted neighbor colors as they stood after the round before.  Only a
    cell holding a neighbor of a vertex whose cell split in the round
    before can split, so only those cells are re-signed.  Members of such
    a cell have equally many neighbors in the split cell, so neighbors
    of its largest part need no signing on that account.  ``touched``
    lists the vertices recolored in an otherwise equitable coloring,
    such as the one vertex the search gives a fresh color; None signs
    every cell in the first round.  The returned ids are ranks of the
    sorted (old color, sorted neighbor colors) signatures of the last
    round, so the result depends only on the colored graph, never on
    hashing or platform.
    """
    by_color = _cells_of(colors)
    # Inside the rounds a cell's id is where it starts in the vertices
    # listed by color: a split renames only its own parts, and ids keep
    # the order the ranks would give.
    ids = [0] * len(adj)
    cells: dict[int, list[int]] = {}
    start = 0
    for col in sorted(by_color):
        cell = cells[start] = by_color[col]
        for u in cell:
            ids[u] = start
        start += len(cell)
    active = (list(cells) if touched is None
              else {ids[w] for u in touched for w in adj[u]})
    while active:
        splits = []
        for start in active:
            cell = cells[start]
            if len(cell) > 1:
                parts: dict[tuple[int, ...], list[int]] = {}
                for u in cell:
                    parts.setdefault(tuple(sorted([ids[w] for w in adj[u]])),
                                     []).append(u)
                if len(parts) > 1:
                    splits.append((start, parts))
        moved = []
        for start, parts in splits:
            largest = max(parts.values(), key=len)
            for sig in sorted(parts):
                part = cells[start] = parts[sig]
                for u in part:
                    ids[u] = start
                start += len(part)
                if part is not largest:
                    moved += part
        active = {ids[w] for u in moved for w in adj[u]}
    out = [0] * len(adj)
    for rank, start in enumerate(sorted(cells)):
        for u in cells[start]:
            out[u] = rank
    return out


def _cells_of(colors: list[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for u, col in enumerate(colors):
        cells.setdefault(col, []).append(u)
    return cells


def _canon_search(adj, colors) -> tuple[bytes, int]:
    """Smallest leaf certificate of the search tree, and |Aut|.

    A node individualizes the vertices on its path, refines, and has one
    child per vertex of its target cell: the first smallest non-singleton
    cell in color order.  A leaf's certificate is the full adjacency
    relabeled by its discrete colors.  Automorphisms of ``colors`` map
    the tree onto itself, because the target cell and the fresh color
    are chosen invariantly, and they keep every certificate.
    """
    n = len(adj)
    root = colors
    gens: list[list[int]] = []
    first = best = None  # (certificate, vertex by color, path) of a leaf
    order = 1

    def visit(colors, path, touched) -> int:
        """Search below the node at ``path``; returns the depth where the
        search resumes, which is below len(path) after a jump."""
        nonlocal first, best, order
        depth = len(path)
        colors = _refine(adj, colors, touched)
        cells = _cells_of(colors)
        target = None
        for col in sorted(cells):
            cell = cells[col]
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:
            inv = [0] * n
            for u, col in enumerate(colors):
                inv[col] = u
            cert = repr([sorted(colors[w] for w in adj[inv[i]])
                         for i in range(n)]).encode()
            if first is None:
                first = best = (cert, inv, path)
                return depth
            for ref_cert, ref_inv, ref_path in (first, best):
                if cert != ref_cert:
                    continue
                # Equal certificates: x -> the vertex of the same color
                # at the earlier leaf is an automorphism of the graph.
                gamma = [ref_inv[col] for col in colors]
                if any(root[y] != c for y, c in zip(gamma, root)):
                    continue  # not color-preserving: a duality
                gens.append(gamma)
                j = 0
                while path[j] == ref_path[j]:
                    j += 1
                # gamma carries this leaf's branch at the deepest common
                # ancestor onto the earlier leaf's, so the rest of it
                # repeats a searched subtree.
                if all(gamma[u] == r for u, r in zip(path[:j + 1],
                                                     ref_path)):
                    return j
                return depth
            if cert < best[0]:
                best = (cert, inv, path)
            return depth
        # Children in one orbit of the pointwise stabilizer of the path
        # have automorphic subtrees: search one child of each orbit.
        on_first_path = first is None
        orbit = {u: u for u in target}

        def find(u):
            while orbit[u] != u:
                orbit[u] = u = orbit[orbit[u]]
            return u

        merged = 0

        def merge_new_generators():
            nonlocal merged
            for g in gens[merged:]:
                if all(g[x] == x for x in path):
                    for x in target:
                        orbit[find(x)] = find(g[x])
            merged = len(gens)

        explored: list[int] = []
        for u in target:
            merge_new_generators()
            if explored and find(u) in {find(e) for e in explored}:
                continue
            child = list(colors)
            child[u] = n  # a fresh color above every id _refine returns
            back = visit(child, path + (u,), (u,))
            explored.append(u)
            if back < depth:
                return back
        if on_first_path:
            # Orbit-stabilizer: target[0] leads to the first leaf, and its
            # orbit under the stabilizer of this path is complete now.
            merge_new_generators()
            root_0 = find(target[0])
            order *= sum(1 for x in target if find(x) == root_0)
        return depth

    visit(colors, (), None)
    return best[0], order


def _levi_search(c: Configuration, charged: int,
                 vertex_budget: int) -> tuple[bytes, int]:
    """:func:`_canon_search` on c's Levi graph, if ``charged`` fits."""
    if charged > vertex_budget:
        raise SizeLimitError(
            f"{charged} search vertices exceed the budget {vertex_budget}")
    return _canon_search(_levi_adjacency(c), [0] * c.v + [1] * c.v)


def isomorphic(a: Configuration, b: Configuration, *,
               vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> bool:
    """Whether some point->point, line->line bijection maps a onto b:
    their canonical certificates agree.  Charges 2(a.v + b.v) vertices."""
    if a.v != b.v or a.k != b.k:
        return False
    # Same-order desarguesian planes are isomorphic outright, and being
    # desarguesian is isomorphism-invariant; the coordinatization test
    # settles those pairs without the search, which crawls on planes.
    da = is_desarguesian(a)
    db = is_desarguesian(b)
    if da or db:
        return da and db
    charged = 2 * (a.v + b.v)
    return (_levi_search(a, charged, vertex_budget)[0]
            == _levi_search(b, charged, vertex_budget)[0])


def automorphism_count(c: Configuration, *,
                       vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """Order of c's automorphism group (dualities excluded).

    By orbit-stabilizer over the search's first path: the product, over
    its nodes, of the orbit of the first child in the target cell under
    the automorphisms found that fix the path so far.  Subtrees that a
    found automorphism maps onto searched ones are skipped, so the cost
    does not grow with the group order: PG(2, 5), with 372 000
    automorphisms, takes a fraction of a second.  Charges 4v search
    vertices.

    A desarguesian plane of order q = p^e is answered by theorem,
    without the search or its charge: by the fundamental theorem of
    projective geometry its group is PGammaL(3, q), of order
    e q^3 (q^3 - 1)(q^2 - 1).  The search crawls on planes (PG(2, 7)
    takes minutes).
    """
    if is_desarguesian(c):
        q = c.k - 1
        p = next(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        while q > p ** e:
            e += 1
        return e * q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)
    return _levi_search(c, 4 * c.v, vertex_budget)[1]


def canonical_form(c: Configuration, *,
                   vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> bytes:
    """A label-independent certificate: equal iff configurations are
    isomorphic (point/line-preservingly).

    ``v:k:`` and the smallest relabeled Levi adjacency over the search's
    leaves.  The subtrees the search skips are automorphic images of
    searched ones and hold the same certificates, so pruning leaves the
    bytes as a search of the full tree gives them.  Charges 2v search
    vertices.
    """
    cert, _ = _levi_search(c, 2 * c.v, vertex_budget)
    return f"{c.v}:{c.k}:".encode() + cert
