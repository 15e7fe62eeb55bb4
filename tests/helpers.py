"""Shared fixtures-by-function for the test suite: seeded random trees,
tables, pairs, and sequences."""
import random
from fractions import Fraction as Fr
from itertools import combinations, product

from rtreelab.blend import AxiomVerdict, AxiomWitness, CompatibleMetricPair, IncompatiblePairError
from rtreelab.hyperbolicity import MetricTable
from rtreelab.tree import Location, MetricTree, SegmentPiece, canonical_edge
from rtreelab.words import Basis, invert_word, reduce_word, reduced_product


def brute_force_four_point(table: MetricTable, delta):
    """Independent oracle: literal scan of every ordered quadruple of the
    four-point inequality; returns (passes, witness_quadruple, margin)."""
    gp = table.gromov_product
    for x, y, z, w in product(table.points, repeat=4):
        margin = min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - delta
        if margin > 0:
            return False, (x, y, z, w), margin
    return True, None, None


def brute_force_max_defect(table: MetricTable):
    """Independent oracle: the largest four-point margin at delta 0 over
    every ordered quadruple (0 for a tree metric)."""
    gp = table.gromov_product
    worst = Fr(0)
    for x, y, z, w in product(table.points, repeat=4):
        worst = max(worst, min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w))
    return worst


def brute_force_axiom_check(lf, words, basis=None, conjugators=None) -> AxiomVerdict:
    """Slow reference for length_axiom_check: the literal scan on raw
    values, evaluating lf afresh for every word it meets.  Inversion over
    the words, then conjugation by each conjugator (default: every
    letter), then the pairing bound over unordered pairs u <= v in
    (length, lex) order; the first witness wins."""
    words = sorted({reduce_word(w) for w in words}, key=lambda w: (len(w), w))
    if basis is None:
        basis = Basis(2)
    if conjugators is None:
        conjugators = list(basis.letters)
    values = {w: lf(w) for w in words}
    for u in words:
        inv = lf(invert_word(u))
        if inv != values[u]:
            return AxiomVerdict(
                False,
                AxiomWitness("inversion", u, None, {"u": values[u], "u_inv": inv}),
                len(words),
            )
    for u in words:
        for v in conjugators:
            conj = lf(reduce_word(v + u + invert_word(v)))
            if conj != values[u]:
                return AxiomVerdict(
                    False,
                    AxiomWitness("conjugation", u, v, {"u": values[u], "conjugated": conj}),
                    len(words),
                )
    for i, u in enumerate(words):
        for v in words[i:]:
            uv = lf(reduced_product(u, v))
            uv_inv = lf(reduced_product(u, invert_word(v)))
            if uv != uv_inv and max(uv, uv_inv) > values[u] + values[v]:
                return AxiomVerdict(
                    False,
                    AxiomWitness(
                        "product",
                        u,
                        v,
                        {"uv": uv, "uv_inv": uv_inv, "u": values[u], "v": values[v]},
                    ),
                    len(words),
                )
    return AxiomVerdict(True, None, len(words))


def reference_realization(space: MetricTable) -> MetricTree:
    """Slow reference for reconstruct_tree on a 0-hyperbolic table.

    Points are inserted in sorted name order.  Each new point attaches at
    the location nearest to it on the current tree, found by minimizing
    its Gromov product over every pair of placed points, and the whole
    tree is rebuilt after each insertion.  Steiner vertices are named
    ".s1", ".s2", ..., skipping table point names.
    """
    names = list(space.points)
    if len(names) == 1:
        return MetricTree((), vertices=(names[0],))

    counter = 0
    edges: dict[tuple[str, str], object] = {}
    placed: dict[str, object] = {}  # table name -> vertex name or Location

    def fresh_steiner() -> str:
        nonlocal counter
        counter += 1
        while f".s{counter}" in space.points:
            counter += 1
        return f".s{counter}"

    def build() -> MetricTree:
        pts = [
            (n, loc) if isinstance(loc, str) else (n, *loc.edge, loc.offset)
            for n, loc in placed.items()
            if not isinstance(loc, str) or n != loc
        ]
        return MetricTree(
            ((u, v, l) for (u, v), l in edges.items()),
            pts,
            vertices=[loc for loc in placed.values() if isinstance(loc, str)],
        )

    def relocate(canon, from_vertex, off):
        length = edges[canon]
        if canon[0] != from_vertex:
            off = length - off
        if off == 0:
            return canon[0]
        if off == length:
            return canon[1]
        return Location(canon, off)

    def split_edge(e, off) -> str:
        length = edges.pop(e)
        s = fresh_steiner()
        u, v = e
        ck1 = (u, s) if u <= s else (s, u)
        ck2 = (s, v) if s <= v else (v, s)
        edges[ck1] = off
        edges[ck2] = length - off
        for n, loc in list(placed.items()):
            if isinstance(loc, Location) and loc.edge == e:
                if loc.offset < off:
                    placed[n] = relocate(ck1, u, loc.offset)
                elif loc.offset > off:
                    placed[n] = relocate(ck2, s, loc.offset - off)
                else:
                    placed[n] = s
        return s

    a, b = names[0], names[1]
    edges[(a, b) if a <= b else (b, a)] = space.distance(a, b)
    placed[a], placed[b] = a, b
    for x in names[2:]:
        tree = build()
        best = None
        for p, q in combinations(sorted(placed), 2):
            gp_x = space.gromov_product(p, q, x)
            if best is None or gp_x < best[0]:
                best = (gp_x, p, q)
        gp_x, p, q = best
        attach = tree.point_along(placed[p], placed[q], space.distance(x, p) - gp_x)
        if gp_x == 0:
            placed[x] = attach
        else:
            vertex = attach if isinstance(attach, str) else split_edge(attach.edge, attach.offset)
            edges[(vertex, x) if vertex <= x else (x, vertex)] = gp_x
            placed[x] = x
    return build()


class ReferenceTree:
    """Slow reference for MetricTree's queries, on the tree's public
    description: an all-pairs vertex distance table, a DFS per vertex path,
    and edge points handled through the endpoint by which a path leaves
    their edge."""

    def __init__(self, tree: MetricTree):
        self.tree = tree
        self.lengths = {(u, v): length for u, v, length in tree.edges}
        self.adj = {v: [] for v in tree.vertices}
        for (u, v), length in self.lengths.items():
            self.adj[u].append((v, length))
            self.adj[v].append((u, length))
        for v in self.adj:
            self.adj[v].sort()
        self.vdist = {}
        for src in self.adj:
            dist = {src: Fr(0)}
            stack = [src]
            while stack:
                x = stack.pop()
                for y, length in self.adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + length
                        stack.append(y)
            self.vdist[src] = dist

    def distance(self, p, q):
        a, b = self.tree.resolve(p), self.tree.resolve(q)
        if isinstance(a, str) and isinstance(b, str):
            return self.vdist[a][b]
        if isinstance(a, str):
            a, b = b, a
        (u, v), off = a.edge, a.offset
        length = self.lengths[a.edge]
        if isinstance(b, Location):
            if b.edge == a.edge:
                return abs(off - b.offset)
            (x, y), boff = b.edge, b.offset
            blen = self.lengths[b.edge]
            return min(
                off + self.vdist[u][x] + boff,
                off + self.vdist[u][y] + (blen - boff),
                (length - off) + self.vdist[v][x] + boff,
                (length - off) + self.vdist[v][y] + (blen - boff),
            )
        return min(off + self.vdist[u][b], (length - off) + self.vdist[v][b])

    def vertex_path(self, a: str, b: str) -> list[str]:
        parent = {a: None}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                break
            for y, _ in self.adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path[::-1]

    def exit_vertex(self, loc: Location, target):
        """The endpoint of loc's edge through which the path from loc to
        the target (a vertex, or a point of another edge) leaves the edge."""
        if isinstance(target, Location):
            target = target.edge[0]
        (u, v), off = loc.edge, loc.offset
        length = self.lengths[loc.edge]
        return u if off + self.vdist[u][target] <= (length - off) + self.vdist[v][target] else v

    def segment(self, p, q) -> list[SegmentPiece]:
        a, b = self.tree.resolve(p), self.tree.resolve(q)
        if a == b:
            return []
        if isinstance(a, Location) and isinstance(b, Location) and a.edge == b.edge:
            return [SegmentPiece(a.edge, a.offset, b.offset)]
        if isinstance(a, Location) and isinstance(b, str) and b in a.edge:
            return [SegmentPiece(a.edge, a.offset, 0 if b == a.edge[0] else self.lengths[a.edge])]
        if isinstance(a, str) and isinstance(b, Location) and a in b.edge:
            return [SegmentPiece(b.edge, 0 if a == b.edge[0] else self.lengths[b.edge], b.offset)]
        pieces = []
        start = a
        if isinstance(a, Location):
            start = self.exit_vertex(a, b)
            pieces.append(
                SegmentPiece(a.edge, a.offset, 0 if start == a.edge[0] else self.lengths[a.edge])
            )
        end = b if isinstance(b, str) else self.exit_vertex(b, a)
        path = self.vertex_path(start, end)
        for x, y in zip(path, path[1:]):
            e = canonical_edge(x, y)
            length = self.lengths[e]
            pieces.append(SegmentPiece(e, 0, length) if x == e[0] else SegmentPiece(e, length, 0))
        if isinstance(b, Location):
            pieces.append(
                SegmentPiece(b.edge, 0 if end == b.edge[0] else self.lengths[b.edge], b.offset)
            )
        return pieces

    def point_along(self, p, q, t):
        total = self.distance(p, q)
        assert 0 <= t <= total
        if t == 0:
            return self.tree.resolve(p)
        remaining = t
        for piece in self.segment(p, q):
            if remaining <= piece.length:
                off = piece.start + remaining if piece.end >= piece.start else piece.start - remaining
                return self.tree.resolve(Location(piece.edge, off))
            remaining -= piece.length
        return self.tree.resolve(q)

    def midpoint(self, p, q):
        return self.point_along(p, q, self.distance(p, q) / 2)

    def center(self, p1, p2, p3):
        d12, d13, d23 = self.distance(p1, p2), self.distance(p1, p3), self.distance(p2, p3)
        # float sums can put t a rounding error outside [0, d12]
        return self.point_along(p1, p2, min(max((d12 + d13 - d23) / 2, 0), d12))

    def name_of(self, p):
        loc = self.tree.resolve(p)
        if isinstance(loc, str):
            return loc
        designated = self.tree.designated
        for name in sorted(designated):
            if designated[name] == loc:
                return name
        return None


def random_tree(rng: random.Random, max_points: int = 12, edge_points: int = 0) -> MetricTree:
    """Random tree with rational edge lengths (random attachment model) and
    optionally some designated points strictly inside edges."""
    n = rng.randint(2, max(2, max_points - edge_points))
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        length = Fr(rng.randint(1, 24), rng.randint(1, 6))
        edges.append((f"p{parent}", f"p{i}", length))
    points = []
    used = set()
    for k in range(edge_points):
        u, v, length = edges[rng.randrange(len(edges))]
        off = length * Fr(rng.randint(1, 7), 8)
        if ((u, v), off) in used:
            continue
        used.add(((u, v), off))
        points.append((f"m{k}", u, v, off))
    return MetricTree(edges, points)


def unit_square_table() -> MetricTable:
    d = {
        ("a", "b"): 1,
        ("b", "c"): 1,
        ("c", "d"): 1,
        ("a", "d"): 1,
        ("a", "c"): 2,
        ("b", "d"): 2,
    }
    return MetricTable(d)


def random_cycle_table(rng: random.Random) -> MetricTable:
    """Shortest-path metric of a 4-cycle with weights in [1, 2]: every edge
    is then the unique geodesic between its endpoints, so the cross pairing
    sum strictly dominates and the four-point condition must fail."""
    w = [1 + Fr(rng.randint(0, 32), 32) for _ in range(4)]
    names = ["a", "b", "c", "d"]
    d = {}
    for i in range(4):
        d[(names[i], names[(i + 1) % 4])] = w[i]
    d[("a", "c")] = min(w[0] + w[1], w[2] + w[3])
    d[("b", "d")] = min(w[1] + w[2], w[3] + w[0])
    return MetricTable(d)


def random_compatible_pair(rng: random.Random, max_vertices: int = 5) -> CompatibleMetricPair:
    """Two random positive rational length assignments on one random shape,
    with designated points kept in the same order along each edge (retried
    until the shape verification accepts, which weeds out numeric
    coincidences where a center lands exactly on a named point in only one
    of the metrics)."""
    while True:
        n = rng.randint(2, max_vertices)
        shape = [(f"p{rng.randrange(i)}", f"p{i}") for i in range(1, n)]
        edges0, edges1, points0, points1 = [], [], [], []
        k = 0
        for u, v in shape:
            l0 = Fr(rng.randint(2, 12), rng.randint(1, 3))
            l1 = Fr(rng.randint(2, 12), rng.randint(1, 3))
            edges0.append((u, v, l0))
            edges1.append((u, v, l1))
            npts = rng.choice([0, 0, 0, 1, 2])
            if npts:
                slots = sorted(rng.sample(range(1, 8), npts))
                slots1 = sorted(rng.sample(range(1, 8), npts))
                for s0, s1 in zip(slots, slots1):
                    points0.append((f"m{k}", u, v, l0 * Fr(s0, 8)))
                    points1.append((f"m{k}", u, v, l1 * Fr(s1, 8)))
                    k += 1
        try:
            return CompatibleMetricPair(MetricTree(edges0, points0), MetricTree(edges1, points1))
        except IncompatiblePairError:
            continue


def wandering_then_constant(rng: random.Random, tree: MetricTree, prefix_len: int):
    """A sequence that wanders over named points for a while and then sits
    at a fixed target forever; returns (points_list_fn_compatible, target)."""
    names = list(tree.point_names)
    target = rng.choice(names)
    prefix = [rng.choice(names) for _ in range(prefix_len)]

    def point(i: int):
        return prefix[i] if i < len(prefix) else target

    return point, target
