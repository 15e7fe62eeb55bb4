"""Shared fixtures-by-function for the test suite: seeded random trees,
tables, pairs, and sequences."""
import math
import random
import re
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import combinations, product

from rtreelab.blend import (
    AxiomVerdict,
    AxiomWitness,
    CompatibleMetricPair,
    IncompatiblePairError,
    affine_deviation,
    length_function_from_line_action,
)
from rtreelab.boundary import BoundaryFormatError
from rtreelab.formats import FormatError, format_number, witness_line
from rtreelab.hyperbolicity import FourPointWitness, InvalidTableError, MetricTable
from rtreelab.observers import Direction, LiminfResult, ShapeMapVerdict
from rtreelab.oracles import LINE_MINUS, LINE_PLUS
from rtreelab.qmap import ConjugacyClassRecord, DenseLineAction, EmptyWordError, QEstimate, line_action_from_weights
from rtreelab.tree import Location, MetricTree, SegmentPiece, canonical_edge
from rtreelab.words import (
    Basis,
    abelianization,
    cyclic_reduce,
    invert_word,
    is_cyclically_reduced,
    reduce_word,
    reduced_product,
    reduced_words,
)


class ReferenceTable:
    """Slow reference for MetricTable: a dict of Fraction (or float)
    distances per sorted pair, validated eagerly by the O(n³) triangle
    scan in Fractions, with the same messages in the same order."""

    def __init__(self, distances):
        self._d = {}
        pts = set()
        for (x, y), raw in distances.items():
            pts.update((x, y))
            val = Fr(raw) if isinstance(raw, int) else raw
            key = (x, y) if x <= y else (y, x)
            if key in self._d and self._d[key] != val:
                raise InvalidTableError(f"conflicting distances for {x},{y}")
            self._d[key] = val
        self.points = tuple(sorted(pts))
        for x, y in combinations(self.points, 2):
            if (x, y) not in self._d:
                raise InvalidTableError(f"missing distance {x},{y}")
            if not self._d[(x, y)] > 0:
                raise InvalidTableError(f"d({x},{y}) must be positive")
        for x in self.points:
            if self._d.get((x, x), 0) != 0:
                raise InvalidTableError(f"d({x},{x}) must be zero")
        d = self.distance
        for x, y, z in combinations(self.points, 3):
            a, b, c = d(x, y), d(x, z), d(y, z)
            if a > b + c or b > a + c or c > a + b:
                raise InvalidTableError(f"triangle inequality fails on ({x},{y},{z})")

    def distance(self, x, y):
        return Fr(0) if x == y else self._d[(x, y) if x <= y else (y, x)]

    def gromov_product(self, x, z, w):
        return (self.distance(w, x) + self.distance(w, z) - self.distance(x, z)) / 2


def reference_parse_table(text: str) -> ReferenceTable:
    """Slow reference for formats.parse_table: every line split up front,
    every literal read by Fraction(text) unless its decimal exponent is
    above 4300 (a bad number, as formats documents), a dict keyed by the
    pair as written (a repeated row keeps its last value), then
    ReferenceTable."""
    d = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] != "dist" or len(fields) != 4:
            raise FormatError(f"line {lineno}: expected 'dist <x> <y> <value>'")
        try:
            exponent = re.search(r"e[+-]?([\d_]+)$", fields[3], re.IGNORECASE)
            if exponent and int(exponent[1]) > 4300:
                raise ValueError(fields[3])
            d[(fields[1], fields[2])] = Fr(fields[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad number {fields[3]!r}") from exc
    if not d:
        raise FormatError("table file has no distances")
    try:
        return ReferenceTable(d)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def assert_parses_as_reference(text: str):
    """formats.parse_table gives reference_parse_table's table, or its error
    message; returns the table, or None on an error."""
    from rtreelab.formats import parse_table

    try:
        expected = reference_parse_table(text)
    except FormatError as exc:
        try:
            parse_table(text)
        except FormatError as got:
            assert str(got) == str(exc)
            return None
        raise AssertionError(f"parse_table accepted a table the reference rejects: {exc}")
    table = parse_table(text)
    assert table.points == expected.points
    for x, y in combinations(table.points, 2):
        assert table.distance(x, y) == expected.distance(x, y)
    return table


def reference_certify_table(text: str, path: str, delta: str):
    """The (exit code, stdout, stderr) that ``rtreelab certify --table path
    --delta delta`` must give on a table file with this text, from
    reference_parse_table and the brute-force four-point scans."""
    out = ["rtreelab certify", f"config: delta={delta} table={path} seed=0"]
    try:
        table = reference_parse_table(text)
    except FormatError as exc:
        return 64, "\n".join(out) + "\n", f"parse error: {exc}\n"
    out.append(f"loaded table: {len(table.points)} points")
    value = Fr(delta)
    out.append(f"four-point defect: {format_number(brute_force_max_defect(table))}")
    ok, quad, margin = brute_force_four_point(table, value)
    if ok:
        if value == 0:
            out.append("realization: 0-hyperbolic; realized exactly by a finite tree")
        out.append(f"RESULT: pass (delta={format_number(value)})")
        return 0, "\n".join(out) + "\n", ""
    out.append(f"RESULT: fail -- {FourPointWitness(quad, margin)}")
    names = sorted(set(quad))
    payload = {
        "quadruple": list(quad),
        "distances": [[x, y, table.distance(x, y)] for x, y in combinations(names, 2)],
        "delta": value,
        "margin": margin,
    }
    out.append(witness_line("four_point", payload))
    return 1, "\n".join(out) + "\n", ""


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


def reference_triangle_scan(points, m):
    """Integer oracle for MetricTable's triangle scan: the message for the
    first triangle i < j < k of the matrix m (rows in point order) that
    fails the inequality, every triangle scanned, or None."""
    n = len(points)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                dij, dik, djk = m[i][j], m[i][k], m[j][k]
                if dij > dik + djk or dik > dij + djk or djk > dij + dik:
                    return f"triangle inequality fails on ({points[i]},{points[j]},{points[k]})"
    return None


def reference_max_gap(table: MetricTable):
    """Integer oracle for the four-point defect: the largest gap between the
    largest and second-largest pairing sums over every 4-subset of the
    table's matrix, in matrix units (twice the defect times the scale)."""
    m, worst = table._m, 0
    for i, j, k, l in combinations(range(len(table.points)), 4):
        s = sorted((m[i][j] + m[k][l], m[i][k] + m[j][l], m[i][l] + m[j][k]))
        worst = max(worst, s[2] - s[1])
    return worst


def reference_first_violation(table: MetricTable, delta) -> FourPointWitness | None:
    """Integer oracle for first_violation: every ordered quadruple of the
    table's matrix in lexicographic order, the first whose gap exceeds
    2*delta in matrix units, with its margin."""
    m, scale = table._m, table.scale
    limit = math.floor(2 * Fr(delta) * scale)
    for x, y, z, w in product(range(len(table.points)), repeat=4):
        a, b = m[x][w] + m[y][w] - m[x][y], m[y][w] + m[z][w] - m[y][z]
        gap = min(a, b) - (m[x][w] + m[z][w] - m[x][z])
        if gap > limit:
            quad = tuple(table.points[i] for i in (x, y, z, w))
            return FourPointWitness(quad, Fr(gap, scale) / 2 - delta)
    return None


def reference_rose_product_length(x, y, weights):
    """Slow reference for the rose's pair kernel: the weighted length of
    the cyclic reduction of the word x + y, each letter weighing
    Fr(weights[generator])."""
    return sum((Fr(weights[c.lower()]) for c in cyclic_reduce(x + y)), Fr(0))


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


def reference_prefix(basis, fn, cache: list, k: int) -> str:
    """Slow reference for BoundaryPoint.prefix: fetch and check one letter
    at a time, extending ``cache`` (a one-element list holding the letters
    so far) only when every new letter passes.  Each output must be one
    basis letter that does not cancel the letter before it."""
    if k <= len(cache[0]):
        return cache[0][:k]
    letters = cache[0]
    for i in range(len(letters), k):
        c = fn(i)
        if not (isinstance(c, str) and len(c) == 1):
            raise BoundaryFormatError(f"generator output at position {i} is not one letter: {c!r}")
        basis.validate(c)
        if letters and letters[-1] == invert_word(c):
            raise BoundaryFormatError(f"generator produced a cancellation at position {i}")
        letters += c
    cache[0] = letters
    return letters


def reference_points_equal(x, y) -> bool:
    """Slow reference for BoundaryPoint equality: two eventually periodic
    words p.b^inf and q.c^inf are equal when their first |p| + |q| +
    2 lcm(|b|, |c|) letters are (past both prefixes, two words of periods
    |b| and |c| that agree on that many letters agree forever)."""
    (p, b), (q, c) = x.periodic_form, y.periodic_form
    bound = len(p) + len(q) + 2 * math.lcm(len(b), len(c))
    return (p + b * bound)[:bound] == (q + c * bound)[:bound]


def reference_mu(action, word: str):
    """Slow reference for DenseLineAction.mu: the signed weight sum term by
    term on the weights themselves (Fraction, Surd or float arithmetic).
    As for mu, the sum of a word with letter counts left is an int only
    when every weight is one."""
    total, vec = 0, abelianization(word, action.basis)
    for n, s in zip(vec, action.basis.symbols):
        if n:
            total += n * action.weights[s]
    if type(total) is int and any(vec) and any(type(w) is not int for w in action.weights.values()):
        return Fr(total)
    return total


def reference_translation_length(action, word: str):
    w = cyclic_reduce(word)
    if not w:
        raise EmptyWordError("translation length of the empty word")
    return abs(reference_mu(action, w))


def reference_orbit(action, x, basepoint, depth: int) -> list:
    """Orbit points prefix_i(X) . P for i = 1..depth, each summed afresh
    from the running abelianization vector on the weights themselves: in
    Fractions and Surds on exact weights, and the float loop on
    math.sqrt weights."""
    symbols = action.basis.symbols
    index = {s: i for i, s in enumerate(symbols)}
    weights = [action.weights[s] for s in symbols]
    vec = [0] * len(symbols)
    pts = []
    for c in x.prefix(depth):
        vec[index[c.lower()]] += 1 if c.islower() else -1
        total = basepoint
        for n, w in zip(vec, weights):
            if n:
                total = total + n * w
        pts.append(total)
    return pts


def reference_fold(points: list, basepoint, head=None):
    """The backward liminf fold on the line, literally: R_m is the median of
    (P_m, R_{m+1}, basepoint); returns (R_head, |R_{head-1} - R_head|), the
    certificate inf at head 0.  Default head n // 2, clamped to the terms."""
    n = len(points)
    ends = list(points)
    for i in range(n - 2, -1, -1):
        ends[i] = sorted((points[i], ends[i + 1], basepoint))[1]
    h = max(0, min(n // 2 if head is None else head, n - 1))
    return ends[h], (abs(ends[h - 1] - ends[h]) if h >= 1 else math.inf)


def reference_liminf(oracle, basepoint, points: list, head=None) -> LiminfResult:
    """Slow reference for liminf_from over every term of ``points``: the
    full backward center fold R_m = center(P_m, R_{m+1}, Q) for every m,
    then R_head and the distance from R_{head-1} (inf at head 0)."""
    n = len(points)
    ends = list(points)
    for i in range(n - 2, -1, -1):
        ends[i] = oracle.center(points[i], ends[i + 1], basepoint)
    h = max(0, min(n // 2 if head is None else head, n - 1))
    cert = oracle.distance(ends[h - 1], ends[h]) if h >= 1 else math.inf
    return LiminfResult(ends[h], cert, n, h)


def reference_in_direction(oracle, d, r) -> bool:
    """Slow reference for direction membership through a center query: r
    lies in d iff the center of (base, representative, r) is not the base;
    raises at the base."""
    if oracle.points_equal(r, d.base):
        raise ValueError("the base of a direction is not a member of it")
    z = oracle.center(d.base, d.representative, r)
    return not oracle.points_equal(z, d.base)


def reference_point_on_segment(tree: MetricTree, r, p, q) -> bool:
    """Slow reference for segment membership: r is the center of (p, q, r)."""
    return tree.same_point(tree.center(p, q, r), r)


def reference_subbasis(oracle, sample, k: int) -> list:
    """Slow reference for subbasis_from_sample: every direction is compared
    with every kept one (same base, representative in it), O(D^2)."""
    pts, budget = [], max(1000, 50 * k)
    for p in sample:
        budget -= 1
        if not oracle.is_boundary(p) and not any(oracle.points_equal(p, q) for q in pts):
            pts.append(p)
        if len(pts) == k or budget == 0:
            break
    mids = []
    for a, b in combinations(pts, 2):
        m = oracle.midpoint(a, b)
        if not any(oracle.points_equal(m, m2) for m2 in mids):
            mids.append(m)
    out = []
    for m in mids:
        for q in pts:
            if oracle.points_equal(q, m):
                continue
            if not any(
                oracle.points_equal(m, d.base) and not oracle.points_equal(d.representative, m)
                and reference_in_direction(oracle, Direction(m, q), d.representative)
                for d in out
            ):
                out.append(Direction(m, q))
    return out


def reference_extract_window(oracle, terms: list, dirs) -> tuple[list, int | None]:
    """Slow reference for the greedy window of extract_convergent_subsequence:
    every term of the window tested against every direction by center
    queries.  Returns the final indices and the exhausting direction."""

    def inside(d, r):
        return not oracle.points_equal(r, d.base) and reference_in_direction(oracle, d, r)

    indices = list(range(len(terms)))
    for j, d in enumerate(dirs):
        ins = [i for i in indices if inside(d, terms[i])]
        outs = [i for i in indices if i not in ins]
        if len(ins) != len(outs):
            chosen = max(ins, outs, key=len)
        else:
            chosen = ins if (ins and indices[-1] == ins[-1]) else outs
        if len(chosen) < 2:
            return indices, j
        indices = chosen
    return indices, None


def reference_shape_map(tree_a: MetricTree, tree_b: MetricTree, bijection: dict) -> ShapeMapVerdict:
    """Slow reference for verify_shape_map on a valid bijection: the center
    pass, then all ordered triples (r, p, q), the first violation in sorted
    order.  Segment membership is d(p, r) + d(r, q) = d(p, q) on one
    all-pairs matrix of ReferenceTree distances per tree."""
    names = sorted(tree_a.point_names)
    images = set(bijection.values())
    for p, q, r in combinations(names, 3):
        na = tree_a.name_of(tree_a.center(p, q, r))
        nb = tree_b.name_of(tree_b.center(bijection[p], bijection[q], bijection[r]))
        if (nb is None or nb != bijection[na]) if na is not None else (nb is not None and nb in images):
            return ShapeMapVerdict(False, ("center", p, q, r))
    da = reference_distance_matrix(tree_a, names)
    db = reference_distance_matrix(tree_b, [bijection[p] for p in names])
    for r, p, q in product(range(len(names)), repeat=3):
        if (da[p][r] + da[r][q] == da[p][q]) != (db[p][r] + db[r][q] == db[p][q]):
            return ShapeMapVerdict(False, ("segment", names[r], names[p], names[q]))
    return ShapeMapVerdict(True)


def reference_distance_matrix(tree: MetricTree, points: list) -> list[list[int]]:
    """ReferenceTree distances between every two of the points, as ints
    over their common denominator."""
    ref = ReferenceTree(tree)
    rows = [[Fr(ref.distance(p, q)) for q in points] for p in points]
    scale = math.lcm(*(d.denominator for row in rows for d in row))
    return [[d.numerator * (scale // d.denominator) for d in row] for row in rows]


def commutator(u: str, v: str) -> str:
    return reduce_word(u + v + invert_word(u) + invert_word(v))


def apply_marking(marking, word: str) -> str:
    """Image of a word under the endomorphism sending each generator to its
    marking image, letter by letter."""
    return reduce_word("".join(marking[c] if c in marking else invert_word(marking[c.lower()]) for c in word))


@lru_cache(maxsize=None)
def nielsen_composites(rank: int, moves: int) -> tuple[tuple[str, ...], ...]:
    """The images of the standard basis under every composite of at most
    ``moves`` Nielsen moves (swap two images, invert one, or multiply one
    by another on the right or on the left), sorted."""
    swaps = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    products = [(i, j) for i in range(rank) for j in range(rank) if i != j]

    def neighbours(im):
        for i, j in swaps:
            yield im[:i] + (im[j],) + im[i + 1 : j] + (im[i],) + im[j + 1 :]
        for i in range(rank):
            yield im[:i] + (invert_word(im[i]),) + im[i + 1 :]
        for i, j in products:
            for w in (im[i] + im[j], im[j] + im[i]):
                yield im[:i] + (reduce_word(w),) + im[i + 1 :]

    level = {tuple(Basis(rank).symbols)}
    seen = set(level)
    for _ in range(moves):
        level = {n for im in level for n in neighbours(im)} - seen
        seen |= level
    return tuple(sorted(seen))


def rotations(word: str) -> list[str]:
    return [word[i:] + word[:i] for i in range(max(1, len(word)))]


def canonical_rotation(word: str) -> str:
    """Lexicographically smallest rotation; canonical conjugacy-class tag."""
    return min(rotations(word))


def reference_reduced_words(basis, maxlen: int) -> list[str]:
    """Slow reference for reduced_words: every letter appended to every
    word of the level below unless it cancels, each level sorted."""
    out: list[str] = []
    frontier = [""]
    for _ in range(maxlen):
        nxt = []
        for w in frontier:
            for c in sorted(basis.letters):
                if not w or c != invert_word(w[-1]):
                    nxt.append(w + c)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def reference_small_words(action, epsilon, maxlen: int) -> list:
    """Slow reference for small_words_search: every cyclically reduced word
    (rescanned by is_cyclically_reduced), its least rotation as class tag,
    one record per tag met as itself, sorted by (length value, length, lex)."""
    records, seen = [], set()
    for w in reduced_words(action.basis, maxlen):
        if not is_cyclically_reduced(w):
            continue
        rep = min(w[i:] + w[:i] for i in range(len(w)))
        if rep != w or rep in seen:
            continue
        seen.add(rep)
        tl = action.translation_length(rep)
        if tl < epsilon:
            records.append(ConjugacyClassRecord(rep, tl, abelianization(rep, action.basis)))
    records.sort(key=lambda r: (r.translation_length, len(r.word), r.word))
    return records


def reference_blend_lengths(weights0: str, weights1: str, lam, maxlen: int, tol=0) -> tuple[int, list[str]]:
    """Slow reference for ``blend lengths --weights0/--weights1``: the exit
    code and the report lines after the header, from affine_deviation over
    every cyclically reduced word, each counted from its string."""
    a0, a1 = (line_action_from_weights(t.split(",")) for t in (weights0, weights1))
    blend = DenseLineAction({s: lam * a1.weights[s] + (1 - lam) * a0.weights[s] for s in a0.basis.symbols}, a0.basis)
    lf0, lf1, lfb = map(length_function_from_line_action, (a0, a1, blend))
    words = [w for w in reduced_words(a0.basis, maxlen) if is_cyclically_reduced(w)]
    deviation, word = affine_deviation(lf0, lf1, lfb, lam, words)
    lines = [f"words checked: {len(words)}", f"max deviation: {format_number(deviation)}"]
    if deviation <= tol:
        return 0, lines + ["RESULT: pass"]
    values = {"word": word, "lambda": lam, "lf0": lf0(word), "lf1": lf1(word), "blend": lfb(word), "tol": tol}
    lines.append(f"RESULT: fail -- blend is not the affine combination (word {word})")
    return 1, lines + [witness_line("affine_deviation", values)]


def reference_qmap_estimate(action, x, basepoint=None, depth: int = 10_000) -> QEstimate:
    """Slow reference for qmap_estimate on a line action: drift escape of an
    eventually periodic word, else the fold over the orbit."""
    if basepoint is None:
        basepoint = action.basepoint
    drift = reference_mu(action, x.periodic_form[1])
    if drift != 0:
        return QEstimate(LINE_PLUS if drift > 0 else LINE_MINUS, 0, "drift", depth)
    pts = reference_orbit(action, x, basepoint, depth)
    point, cert = reference_fold(pts, basepoint)
    return QEstimate(point, cert, "liminf", len(pts))


def reference_fiber_check(action, x, y, depth: int, tol):
    """Slow reference for q_fiber_check on a line action: (status,
    residual, first estimate, second estimate)."""
    e1 = reference_qmap_estimate(action, x, depth=depth)
    e2 = reference_qmap_estimate(action, y, depth=depth)
    a_end, b_end = math.isinf(e1.point), math.isinf(e2.point)
    if a_end or b_end:
        residual = 0 if (a_end and b_end and e1.point == e2.point) else math.inf
    else:
        residual = abs(e1.point - e2.point)
    if a_end and b_end:
        return ("equal" if residual == 0 else "different"), residual, e1, e2
    if not (e1.certificate <= tol and e2.certificate <= tol):
        return "inconclusive", residual, e1, e2
    return ("equal" if residual <= tol else "different"), residual, e1, e2


def designated_rows(tree: MetricTree) -> list[tuple]:
    """A tree's designated points as MetricTree rows: (name, vertex) or
    (name, u, v, offset)."""
    return [(name, loc) if isinstance(loc, str) else (name, *loc.edge, loc.offset) for name, loc in tree.designated.items()]


def reference_blend_metric(pair: CompatibleMetricPair, lam) -> MetricTree:
    """Slow reference for blend_metric: the edge list of Fraction lengths
    lam*d1 + (1-lam)*d0, the offsets blended the same way, built by
    MetricTree from its edges (a float lam at its binary value)."""
    lam = Fr(lam)
    t0, t1 = pair.tree0, pair.tree1
    edges = [(u, v, lam * l1 + (1 - lam) * l0) for (u, v, l0), (_, _, l1) in zip(t0.edges, t1.edges)]
    points = []
    for name, loc0 in sorted(t0.designated.items()):
        loc1 = t1.designated[name]
        if isinstance(loc0, str):
            points.append((name, loc0))
        else:
            points.append((name, *loc0.edge, lam * loc1.offset + (1 - lam) * loc0.offset))
    return MetricTree(edges, points)


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
        return self.point_along(p1, p2, (d12 + d13 - d23) / 2)

    def name_of(self, p):
        loc = self.tree.resolve(p)
        if isinstance(loc, str):
            return loc
        designated = self.tree.designated
        for name in sorted(designated):
            if designated[name] == loc:
                return name
        return None


def random_tree(
    rng: random.Random, max_points: int = 12, edge_points: int = 0, min_points: int = 2
) -> MetricTree:
    """Random tree with rational edge lengths (random attachment model) and
    optionally some designated points strictly inside edges."""
    n = rng.randint(min_points, max(min_points, max_points - edge_points))
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


def random_edges(rng: random.Random, n: int) -> list:
    """The edges of a random attachment tree on vertices v0..v{n-1}."""
    return [(f"v{rng.randrange(i)}", f"v{i}", Fr(rng.randint(1, 24), rng.randint(1, 6))) for i in range(1, n)]


def leaf_tree_distances(rng: random.Random, n: int) -> dict:
    """A tree metric on n leaves q0..q{n-1}: leaf qi hangs from vertex vi of
    a random tree on a pendant edge 1 to 2 long.  Every point is a leaf
    with its own neighbour, so moving any few distances by at most 1/2
    keeps the triangle inequality."""
    edges = random_edges(rng, n) + [(f"v{i}", f"q{i}", 1 + Fr(rng.randint(0, 8), 8)) for i in range(n)]
    tree = MetricTree(edges)
    return {(f"q{i}", f"q{j}"): tree.distance(f"q{i}", f"q{j}") for i, j in combinations(range(n), 2)}


def shortened_leaf_pair(rng: random.Random, n: int, ranks: tuple[int, int]) -> tuple[dict, Fr]:
    """The distances of the n vertices of a random tree, with d(a, b) shortened
    by eps below the shortest edge for two leaves a, b with different
    neighbours, as the refute benchmark builds them: a and b take the names
    of the given ranks in sorted order.  The defect is eps/2, attained by a,
    b and their neighbours, and it is the largest a change by eps allows."""
    while True:
        edges = random_edges(rng, n)
        ends = [v for u, w, _ in edges for v in (u, w)]
        nbr = {v: w for u, x, _ in edges for v, w in ((u, x), (x, u)) if ends.count(v) == 1}
        pairs = [(a, b) for a, b in combinations(sorted(nbr), 2) if nbr[a] != nbr[b]]
        if pairs:
            break
    pair, ranked = rng.choice(pairs), sorted(set(ends))
    order = [v for v in ranked if v not in pair]
    for v, rank in sorted(zip(pair, ranks), key=lambda t: t[1]):
        order.insert(rank, v)
    name = dict(zip(order, ranked))
    table = MetricTable.from_tree(MetricTree([(name[u], name[v], length) for u, v, length in edges]))
    d = {(x, y): table.distance(x, y) for x, y in combinations(table.points, 2)}
    eps = min(length for _, _, length in edges) * Fr(rng.randint(1, 7), 8)
    d[tuple(sorted(name[v] for v in pair))] -= eps
    return d, eps


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
