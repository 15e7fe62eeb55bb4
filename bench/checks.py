"""Reference math and output checks for the benchmark.

Nothing here imports rtreelab.  Expected answers come from the inputs'
construction or from this module's own small implementations (breadth-first
search over the generated edges, free reduction of words, signed letter
counts), so a check cannot inherit a defect from the code it measures.

Each check takes ``(code, stdout, expected)`` and returns ``None`` when the
output is right, else a one-line reason.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

WITNESS_PREFIX = "WITNESS "


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canon(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


# -- trees ---------------------------------------------------------------------


class RefTree:
    """A generated tree with every designated point spliced in as a vertex.

    ``edges`` are ``(u, v, length)``; ``points`` are ``(name, u, v, offset)``
    with the offset measured from ``u``.  Every named point is a vertex of
    the spliced tree, so centers of named points are vertices too.
    """

    def __init__(self, edges, points=()):
        self.length = {canon(u, v): Fraction(l) for u, v, l in edges}
        self.vertices = sorted({x for u, v, _ in edges for x in (u, v)})
        on_edge: dict[tuple[str, str], list[tuple[Fraction, str]]] = {}
        self.point_loc: dict[str, tuple[tuple[str, str], Fraction]] = {}
        for name, u, v, off in points:
            e = canon(u, v)
            off = Fraction(off) if e[0] == u else self.length[e] - Fraction(off)
            on_edge.setdefault(e, []).append((off, name))
            self.point_loc[name] = (e, off)
        self.loc_name = {loc: name for name, loc in self.point_loc.items()}
        self.adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in self.vertices}
        for e, l in self.length.items():
            chain = [(Fraction(0), e[0])] + sorted(on_edge.get(e, [])) + [(l, e[1])]
            for (o1, a), (o2, b) in zip(chain, chain[1:]):
                self.adj.setdefault(a, []).append((b, o2 - o1))
                self.adj.setdefault(b, []).append((a, o2 - o1))
        self._bfs: dict[str, tuple[dict, dict]] = {}

    @property
    def names(self) -> list[str]:
        return sorted(self.adj)

    def bfs(self, src: str):
        if src not in self._bfs:
            dist, parent = {src: Fraction(0)}, {src: None}
            stack = [src]
            while stack:
                x = stack.pop()
                for y, l in self.adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + l
                        parent[y] = x
                        stack.append(y)
            self._bfs[src] = (dist, parent)
        return self._bfs[src]

    def distance(self, p: str, q: str) -> Fraction:
        return self.bfs(p)[0][q]

    def path(self, p: str, q: str) -> list[str]:
        parent = self.bfs(q)[1]
        out = [p]
        while out[-1] != q:
            out.append(parent[out[-1]])
        return out

    def center(self, p: str, q: str, r: str) -> str:
        t = (self.distance(p, q) + self.distance(p, r) - self.distance(q, r)) / 2
        for x in self.path(p, q):
            if self.distance(p, x) == t:
                return x
        raise AssertionError("center of named points is always a spliced vertex")

    def edge_position(self, x: str, e: tuple[str, str]) -> Fraction:
        """Offset of spliced vertex x along original edge e."""
        if x == e[0]:
            return Fraction(0)
        if x == e[1]:
            return self.length[e]
        loc_e, off = self.point_loc[x]
        assert loc_e == e
        return off

    def original_edge(self, a: str, b: str) -> tuple[str, str]:
        """The original edge holding the spliced edge a-b."""
        for x, y in ((a, b), (b, a)):
            if x in self.point_loc:
                return self.point_loc[x][0]
        return canon(a, b)

    def branches(self, t: str) -> list[list[str]]:
        """Named points of each component of the tree minus t."""
        out = []
        for start, _ in self.adj[t]:
            seen, stack = {t, start}, [start]
            while stack:
                x = stack.pop()
                for y, _ in self.adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            out.append(sorted(seen - {t}))
        return out

    def read_point(self, text: str):
        """A printed tree point: a name, or ``edge u v offset`` offset from u."""
        fields = text.split()
        if len(fields) == 1:
            return fields[0]
        if len(fields) == 4 and fields[0] == "edge":
            e = canon(fields[1], fields[2])
            if e not in self.length:
                return None
            off = Fraction(fields[3])
            if e[0] != fields[1]:
                off = self.length[e] - off
            if off == 0:
                return e[0]
            if off == self.length[e]:
                return e[1]
            return self.loc_name.get((e, off), ("unnamed", e, off))
        return None


def tree_file(edges, points=()) -> str:
    lines = [f"edge {u} {v} {fmt(l)}" for u, v, l in edges]
    lines += [f"point {n} {u} {v} {fmt(o)}" for n, u, v, o in points]
    return "\n".join(lines) + "\n"


# -- free group words ----------------------------------------------------------------


def inv(c: str) -> str:
    return c.swapcase()


def reduce(word: str) -> str:
    out: list[str] = []
    for c in word:
        if out and out[-1] == inv(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def inverse(word: str) -> str:
    return word.swapcase()[::-1]


def cyclic(word: str) -> str:
    w = reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == inv(w[j - 1]):
        i += 1
        j -= 1
    return w[i:j]


def letter_counts(word: str, symbols: str) -> tuple[int, ...]:
    return tuple(word.count(s) - word.count(s.upper()) for s in symbols)


def least_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def cyclic_words(symbols: str, maxlen: int):
    """Cyclically reduced words of length 1..maxlen."""
    letters = symbols + symbols.upper()
    frontier = [""]
    for _ in range(maxlen):
        frontier = [w + c for w in frontier for c in letters if not w or c != inv(w[-1])]
        yield from (w for w in frontier if len(w) < 2 or w[0] != inv(w[-1]))


def classes(symbols: str, maxlen: int) -> list[str]:
    """Conjugacy classes of cyclically reduced words, by least rotation."""
    return [w for w in cyclic_words(symbols, maxlen) if w == least_rotation(w)]


def read_weight(text: str):
    if text.startswith("sqrt:"):
        n = int(text[5:])
        r = math.isqrt(n)
        return Fraction(r) if r * r == n else math.sqrt(n)
    return Fraction(text)


def drift_of_counts(counts, weights) -> Fraction | float:
    return sum(n * w for n, w in zip(counts, weights) if n)


def drift(word: str, symbols: str, weights) -> Fraction | float:
    """Signed weight sum of a word's letters: its translation on the line."""
    return drift_of_counts(letter_counts(word, symbols), weights)


def close(a, b) -> bool:
    if a == b:
        return True
    if isinstance(a, Fraction) and isinstance(b, Fraction) or math.isinf(a) or math.isinf(b):
        return a == b
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def read_number(text: str):
    if text in ("inf", "+inf"):
        return math.inf
    if text == "-inf":
        return -math.inf
    try:
        return Fraction(text)
    except ValueError:
        return float(text)


# -- report parsing ----------------------------------------------------------------


def field(stdout: str, key: str) -> str | None:
    """Value of the first ``key: value`` line."""
    prefix = key + ": "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :]
    return None


def verdict(stdout: str) -> str | None:
    value = field(stdout, "RESULT")
    return None if value is None else value.split()[0]


def witnesses(stdout: str) -> list[dict]:
    return [
        json.loads(line[len(WITNESS_PREFIX) :])
        for line in stdout.splitlines()
        if line.startswith(WITNESS_PREFIX)
    ]


def _expect_exit(code, stdout, want_code, want_verdict):
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    got = verdict(stdout)
    if got != want_verdict:
        return f"RESULT {got!r}, expected {want_verdict!r}"
    return None


def witness_distances(payload) -> dict[frozenset, Fraction]:
    """Four-point witness distances, as ``"x|y": v`` keys or ``[x, y, v]`` rows."""
    raw = payload["distances"]
    rows = [(*k.split("|"), v) for k, v in raw.items()] if isinstance(raw, dict) else raw
    return {frozenset((x, y)): Fraction(v) for x, y, v in rows}


def four_point_margin(payload) -> Fraction:
    d = witness_distances(payload)

    def dist(a, b):
        return Fraction(0) if a == b else d[frozenset((a, b))]

    def gp(a, b, c):
        return (dist(c, a) + dist(c, b) - dist(a, b)) / 2

    x, y, z, w = payload["quadruple"]
    return min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - Fraction(payload["delta"])


# -- checks: certify and refute --------------------------------------------------------


def check_pass(code, stdout, expected):
    return _expect_exit(code, stdout, 0, "pass")


def check_blend_metric(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    edges, points = {}, {}
    for line in stdout.splitlines():
        f = line.split()
        if len(f) == 4 and f[0] == "edge":
            edges[canon(f[1], f[2])] = Fraction(f[3])
        elif len(f) == 5 and f[0] == "point":
            e = canon(f[2], f[3])
            off = Fraction(f[4])
            points[f[1]] = (e, off if e[0] == f[2] else edges.get(e, 0) - off)
    if edges != expected["edges"]:
        return "blended edge lengths differ from lambda*d1 + (1-lambda)*d0"
    if points != expected["points"]:
        return "blended point offsets differ from lambda*o1 + (1-lambda)*o0"
    return None


def check_refute(code, stdout, expected):
    """A shortened tree table fails with a genuine witness on the pair."""
    bad = _expect_exit(code, stdout, 1, "fail")
    if bad:
        return bad
    defect = field(stdout, "four-point defect")
    if defect is not None and Fraction(defect) != expected["defect"]:
        return f"printed defect {defect}, expected {fmt(expected['defect'])}"
    found = [w for w in witnesses(stdout) if w.get("kind") == "four_point"]
    if len(found) != 1:
        return "expected one four_point witness"
    payload = found[0]
    if Fraction(payload["delta"]) != expected["delta"]:
        return "witness delta differs from --delta"
    for pair, value in witness_distances(payload).items():
        if expected["table"].get(pair) != value:
            return f"witness distance {sorted(pair)} differs from the input table"
    if not set(expected["pair"]) <= set(payload["quadruple"]):
        return "witness quadruple misses the shortened pair"
    margin = four_point_margin(payload)
    if margin != Fraction(payload["margin"]) or margin <= 0:
        return "witness margin does not recompute from its own distances"
    if margin > expected["defect"] - expected["delta"]:
        return "witness margin exceeds defect - delta"
    return None


def check_delta_pass(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    defect = field(stdout, "four-point defect")
    if defect is not None and Fraction(defect) != expected["defect"]:
        return f"printed defect {defect}, expected {fmt(expected['defect'])}"
    return None


def check_replay(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    lines = [l for l in stdout.splitlines() if l.startswith("witness ")]
    if len(lines) != expected["witnesses"] or not all(l.endswith(": confirmed") for l in lines):
        return "not every witness confirmed"
    return None


# -- checks: geodesics -------------------------------------------------------------------


def _tree_point(stdout, key, tree):
    value = field(stdout, key)
    return None if value is None else tree.read_point(value)


def check_center(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    got = _tree_point(stdout, "center", expected["tree"])
    if got != expected["center"]:
        return f"center {got!r}, expected {expected['center']!r}"
    for name, d in expected["distances"].items():
        value = field(stdout, f"distance {name}")
        if value is None or Fraction(value) != d:
            return f"distance from {name} to the center is wrong"
    return None


def center_expected(tree: RefTree, p: str, q: str, r: str) -> dict:
    z = tree.center(p, q, r)
    return {"tree": tree, "center": z, "distances": {n: tree.distance(n, z) for n in (p, q, r)}}


def check_segment(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    total = expected["total"]
    got = field(stdout, "total")
    if got is None or Fraction(got) != total:
        return f"total {got}, expected {fmt(total)}"
    pieces = [l.split() for l in stdout.splitlines() if l.startswith("piece ")]
    if sum(Fraction(f[-1]) for f in pieces) != total:
        return "piece lengths do not sum to the distance"
    if {canon(f[1], f[2]) for f in pieces} != expected["edges"]:
        return "pieces do not follow the path"
    return None


def segment_expected(tree: RefTree, p: str, q: str) -> dict:
    path = tree.path(p, q)
    edges = {tree.original_edge(a, b) for a, b in zip(path, path[1:])}
    return {"total": tree.distance(p, q), "edges": edges}


def _oracle_point(text, expected):
    if text is None:
        return None
    tree = expected.get("tree")
    if tree is not None:
        return tree.read_point(text)
    if text == "hub" or text.startswith("arm "):
        f = text.split()
        return "hub" if f[0] == "hub" else (int(f[1]), Fraction(f[2]))
    return read_number(text)


def check_liminf(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    got = _oracle_point(field(stdout, "liminf"), expected)
    if got != expected["target"]:
        return f"liminf {got!r}, expected {expected['target']!r}"
    return None


def check_converge(code, stdout, expected):
    if expected["stays"]:
        return _expect_exit(code, stdout, 0, "pass")
    bad = _expect_exit(code, stdout, 1, "fail")
    if bad:
        return bad
    found = [w for w in witnesses(stdout) if w.get("kind") == "direction_exit"]
    if len(found) != 1:
        return "expected one direction_exit witness"
    w = found[0]
    if w["term_index"] != expected["depth"] - 1:
        return "witness term is not the last term"
    br, bt, rt = (read_number(str(w[k])) for k in ("d_base_rep", "d_base_term", "d_rep_term"))
    if br + bt - rt != 0:
        return "witness term is not outside the probe direction"
    return None


def check_extract(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    got = _oracle_point(field(stdout, "limit estimate"), expected)
    if got != expected["target"]:
        return f"limit estimate {got!r}, expected {expected['target']!r}"
    return None


# -- checks: free group ------------------------------------------------------------------


def check_estimate(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    got = read_number(field(stdout, "estimate") or "nan")
    if field(stdout, "method") != expected["method"]:
        return f"method {field(stdout, 'method')}, expected {expected['method']}"
    if not close(got, expected["point"]):
        return f"estimate {got}, expected {expected['point']}"
    return None


def check_fibers(code, stdout, expected):
    status = expected["status"]
    bad = _expect_exit(code, stdout, 1 if status == "different" else 0, "fail" if status == "different" else "pass")
    if bad:
        return bad
    lines = [l for l in stdout.splitlines() if l.startswith("pair ")]
    if len(lines) != 1 or lines[0].split(": ", 1)[1].split()[0] != status:
        return f"fiber status is not {status}"
    for w in witnesses(stdout):
        first, second = read_number(w["first"]), read_number(w["second"])
        if not abs(first - second) > float(w["tol"]):
            return "fiber witness does not separate"
    return None


def _root(word: str) -> str:
    n = len(word)
    return next(word[:d] for d in range(1, n + 1) if n % d == 0 and word[:d] * (n // d) == word)


def _ends(word: str) -> frozenset:
    """The two boundary points word^inf and word^-inf, by their periods."""
    return frozenset((_root(word), _root(inverse(word))))


def check_lamination(code, stdout, expected):
    """Each small class c gives the pair (c^inf, c^-inf) and its flip.  Two
    classes whose pairs are the same boundary points (a power and its root,
    or c and the inverse word of c) print them once, under one of them."""
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    small = expected["classes"]
    seen: dict[str, int] = {}
    for line in stdout.splitlines():
        if not line.startswith("pair word="):
            continue
        f = dict(item.split("=", 1) for item in line.split()[1:])
        word = f["word"]
        if word not in small:
            return f"class {word} is not below epsilon"
        tl, status = small[word]
        if not close(read_number(f["tl"]), tl):
            return f"translation length of {word} is wrong"
        if f["fiber"] != status:
            return f"fiber of {word} is {f['fiber']}, expected {status}"
        seen[word] = seen.get(word, 0) + 1
    if set(seen.values()) - {2}:
        return "a class does not give exactly two pairs"
    for word in small:
        twins = {w for w in small if _ends(w) == _ends(word)}
        if len(twins & set(seen)) != 1:
            return f"class {word} is missing from the lamination or printed twice"
    return None


def check_smallwords(code, stdout, expected):
    bad = _expect_exit(code, stdout, 0, "pass")
    if bad:
        return bad
    symbols = expected["symbols"]
    words = []
    for line in stdout.splitlines():
        f = line.split("\t")
        if len(f) != 4 or f[0] == "word":
            continue
        word, length, tl, vec = f
        words.append(word)
        counts = letter_counts(word, symbols)
        if vec != ",".join(map(str, counts)) or int(length) != len(word):
            return f"abelianization or length of {word} is wrong"
        if not close(read_number(tl), expected["classes"].get(word, math.nan)):
            return f"translation length of {word} is wrong"
    if sorted(words) != sorted(expected["classes"]):
        return "classes differ from the independent enumeration"
    return None


def check_lengths(code, stdout, expected):
    dev = expected["deviation"]
    bad = _expect_exit(code, stdout, 0 if dev == 0 else 1, "pass" if dev == 0 else "fail")
    if bad:
        return bad
    if field(stdout, "words checked") != str(expected["words"]):
        return "words checked differs from the independent count"
    got = field(stdout, "max deviation")
    if got is None or Fraction(got) != dev:
        return f"max deviation {got}, expected {fmt(dev)}"
    for w in witnesses(stdout):
        lam = Fraction(w["lambda"])
        lf0, lf1, lfb = (Fraction(w[k]) for k in ("lf0", "lf1", "blend"))
        if (lf0, lf1, lfb) != expected["values"](w["word"]):
            return f"witness lengths of {w['word']} are wrong"
        if not abs(lfb - (lam * lf1 + (1 - lam) * lf0)) > Fraction(w["tol"]):
            return "affine witness does not deviate"
    return None


def blend_value(marking: dict[str, str], lam: Fraction, word: str) -> Fraction:
    """lam * |marking(word)| + (1 - lam) * |word|, cyclic lengths on the unit rose."""
    image = "".join(marking[c] if c.islower() else inverse(marking[c.lower()]) for c in word)
    return lam * len(cyclic(image)) + (1 - lam) * len(cyclic(word))


def check_axioms(code, stdout, expected):
    marking = expected["marking"]
    lams, found = [], []
    for line in stdout.splitlines():
        if line.startswith("lambda "):
            lam, rest = line[len("lambda ") :].split(": ", 1)
            lams.append((Fraction(lam), rest.startswith("VIOLATION")))
        elif line.startswith(WITNESS_PREFIX):
            found.append((lams[-1][0] if lams else None, json.loads(line[len(WITNESS_PREFIX) :])))
    if [lam for lam, _ in lams] != expected["grid"]:
        return "lambda lines differ from the grid"
    violations = sum(v for _, v in lams)
    bad = _expect_exit(code, stdout, 1 if violations else 0, "fail" if violations else "pass")
    if bad:
        return bad
    if lams[0][1] or lams[-1][1]:
        return "an endpoint of the grid is a genuine tree length function"
    if len(found) != violations:
        return "each violating lambda needs one witness"
    for lam, w in found:
        u, v = w["u"], w["v"]
        values = {k: Fraction(x) for k, x in w["values"].items()}
        want = {
            "u": blend_value(marking, lam, u),
            "v": blend_value(marking, lam, v),
            "uv": blend_value(marking, lam, u + v),
            "uv_inv": blend_value(marking, lam, u + inverse(v)),
        }
        if values != want:
            return f"axiom witness values at lambda {fmt(lam)} do not recompute"
        if values["uv"] == values["uv_inv"] or max(values["uv"], values["uv_inv"]) <= values["u"] + values["v"]:
            return "axiom witness does not violate its inequality"
    return None
