"""Seeded workload generators.

``generate(workload, seed)`` is a pure function of its arguments: it returns
the input files to write and the op list to run.  An op is one rtreelab
command line plus the exit code, output check and expected answer it is
judged by.  Sizes follow a fixed schedule per workload, so every seed runs
the same amount of work of each kind; the seed only draws shapes, names,
lengths, words and weights.  That keeps metrics comparable across seeds.
"""
from __future__ import annotations

import math
import random
from itertools import product
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks as C
from checks import RefTree, canon, fmt, tree_file


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable
    expected: dict = field(repr=False)
    save_as: str | None = None  # stdout goes to this file, appended after the first op of a pass
    size: int = 0  # input size recorded in the op mix (points, vertices or depth)
    fails: bool = False  # a certified violation is the right answer


@dataclass
class Workload:
    files: dict[str, str]
    ops: list[Op]
    notes: dict[str, object] = field(default_factory=dict)


DENOMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def spread(lo: int, hi: int, k: int) -> list[int]:
    """k sizes evenly from lo to hi: the fixed part of every schedule."""
    return [lo + round((hi - lo) * i / (k - 1)) for i in range(k)]


def vertex_names(rng: random.Random, n: int) -> list[str]:
    # random three-letter names, so sorted order is unrelated to the shape
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def edge_length(rng: random.Random, rational: bool) -> Fraction:
    if rational:
        return Fraction(rng.randint(1, 40), rng.choice(DENOMS))
    return Fraction(rng.randint(1, 9))


def random_tree(rng, n_vertices, bushy, rational, n_points=0):
    """Edges and designated points (at most one per edge, strictly inside)."""
    names = vertex_names(rng, n_vertices)
    edges = []
    for i in range(1, n_vertices):
        parent = rng.randrange(i) if bushy else rng.randrange(max(0, i - 2), i)
        u, v = canon(names[parent], names[i])
        edges.append((u, v, edge_length(rng, rational)))
    points = []
    for j, (u, v, l) in enumerate(rng.sample(edges, min(n_points, len(edges)))):
        off = l * Fraction(rng.randint(1, 6), 7)
        points.append((f"P{j}", u, v, off))
    rng.shuffle(edges)
    return edges, points


# -- certify ---------------------------------------------------------------------------


def gen_certify(rng: random.Random) -> Workload:
    """Pass path: tree files and tree tables of 8-24 named points, and blends."""
    files, ops = {}, []
    # a block at the largest size holds the top decile of latencies, so
    # op_p90_ms reads inside one size instead of on the edge between two
    sizes = spread(8, 24, 40) + [24] * 12
    for i, n in enumerate(sizes * 2):
        bushy, rational = i % 2 == 0, i % 4 < 2
        n_points = n // 6 if i % 3 else 0
        edges, points = random_tree(rng, n - n_points, bushy, rational, n_points)
        if i < len(sizes):
            files[f"c{i}.tree"] = tree_file(edges, points)
            ops.append(Op("certify-tree", ["certify", "--tree", f"c{i}.tree"], C.check_pass, {}, size=n))
        else:
            ref = RefTree(edges, points)
            names = sorted(set(ref.vertices) | set(ref.point_loc))
            rows = [
                f"dist {x} {y} {fmt(ref.distance(x, y))}"
                for a, x in enumerate(names)
                for y in names[a + 1 :]
            ]
            files[f"c{i}.metric"] = "\n".join(rows) + "\n"
            ops.append(Op("certify-table", ["certify", "--table", f"c{i}.metric"], C.check_pass, {}, size=n))
    for i, n in enumerate(spread(8, 12, 26)):
        n_points = n // 5
        edges, points = random_tree(rng, n - n_points, i % 2 == 0, i % 4 < 2, n_points)
        lengths1 = {(u, v): edge_length(rng, i % 4 >= 2) for u, v, _ in edges}
        offs1 = {name: lengths1[(u, v)] * Fraction(rng.randint(1, 6), 7) for name, u, v, _ in points}
        lam = Fraction(rng.randint(1, 9), 10)
        rows = [f"edge {u} {v} {fmt(l)} {fmt(lengths1[(u, v)])}" for u, v, l in edges]
        rows += [f"point {p} {u} {v} {fmt(o)} {fmt(offs1[p])}" for p, u, v, o in points]
        files[f"b{i}.pair"] = "\n".join(rows) + "\n"
        expected = {
            "edges": {(u, v): lam * lengths1[(u, v)] + (1 - lam) * l for u, v, l in edges},
            "points": {p: ((u, v), lam * offs1[p] + (1 - lam) * o) for p, u, v, o in points},
        }
        ops.append(
            Op("blend-metric", ["blend", "metric", "--pair", f"b{i}.pair", f"--lambda={fmt(lam)}"],
               C.check_blend_metric, expected, size=n)
        )
    rng.shuffle(ops)
    return Workload(files, ops)


# -- refute ----------------------------------------------------------------------------


def gen_refute(rng: random.Random) -> Workload:
    """Fail path: tree tables with one leaf-to-leaf distance shortened by eps.

    With leaves a, b whose neighbours differ and eps below the shortest
    edge, the triangle inequality still holds strictly, every violating
    quadruple contains a and b, and the quadruple (a, nbr(a), b, nbr(b))
    attains the largest possible defect, so the four-point defect is eps/2.
    """
    files, ops = {}, []
    for i, n in enumerate(spread(8, 24, 72)):
        while True:
            edges, _ = random_tree(rng, n, i % 2 == 0, i % 4 < 2)
            ref = RefTree(edges)
            leaves = [v for v in ref.vertices if len(ref.adj[v]) == 1]
            pairs = [
                (a, b) for a in leaves for b in leaves
                if a < b and ref.adj[a][0][0] != ref.adj[b][0][0]
            ]
            if pairs:
                break
        a, b = rng.choice(pairs)
        # the scan for the lexicographically first witness stops early or
        # late depending on where a and b sort; fix their ranks at 1/3 and
        # 2/3 of the names so that its cost does not depend on the seed
        ranked = sorted(ref.vertices)
        label = {v: v for v in ranked}
        for vertex, name in ((a, ranked[n // 3]), (b, ranked[2 * n // 3])):
            holder = next(v for v, l in label.items() if l == name)
            label[holder], label[vertex] = label[vertex], name
        edges = [(*canon(label[u], label[v]), l) for u, v, l in edges]
        ref, a, b = RefTree(edges), ranked[n // 3], ranked[2 * n // 3]
        eps = min(l for _, _, l in edges) * Fraction(rng.randint(1, 7), 8)
        table = {
            frozenset((x, y)): ref.distance(x, y)
            for j, x in enumerate(ref.vertices)
            for y in ref.vertices[j + 1 :]
        }
        table[frozenset((a, b))] -= eps
        names = list(ref.vertices)
        rng.shuffle(names)
        rows = [f"dist {x} {y} {fmt(table[frozenset((x, y))])}" for j, x in enumerate(names) for y in names[j + 1 :]]
        files[f"r{i}.metric"] = "\n".join(rows) + "\n"
        defect = eps / 2
        below = defect - eps / 64
        base = {"table": table, "pair": (a, b), "defect": defect}
        ops += [
            Op("certify-fail", ["certify", "--table", f"r{i}.metric"], C.check_refute,
               base | {"delta": Fraction(0)}, save_as=f"r{i}.report", size=n, fails=True),
            Op("certify-delta-at", ["certify", "--table", f"r{i}.metric", f"--delta={fmt(defect)}"],
               C.check_delta_pass, base, size=n),
            Op("certify-delta-below", ["certify", "--table", f"r{i}.metric", f"--delta={fmt(below)}"],
               C.check_refute, base | {"delta": below}, save_as=f"r{i}.report", size=n, fails=True),
            # both failing reports land in one file, replayed after them
            Op("replay", ["replay", f"r{i}.report"], C.check_replay, {"witnesses": 2}, size=n),
        ]
    order = list(range(len(ops) // 4))
    rng.shuffle(order)
    return Workload(files, [op for k in order for op in ops[4 * k : 4 * k + 4]])


# -- geodesics -------------------------------------------------------------------------


def _tree_with_branch_vertex(rng, n, bushy, rational, n_points):
    while True:
        edges, points = random_tree(rng, n, bushy, rational, n_points)
        ref = RefTree(edges, points)
        hubs = [v for v in ref.vertices if len(ref.adj[v]) >= 3]
        if hubs:
            return edges, points, ref, hubs


def _settling_tail(rng, branches, length):
    # points from two branches at the target: every pair of them has the
    # target as center with a basepoint in a third branch
    return [rng.choice(branches[k % 2]) for k in range(length)]


def _tree_sequence_ops(rng, i, ref, hubs, files):
    ops = []
    target = rng.choice(hubs)
    branches = ref.branches(target)
    rng.shuffle(branches)
    names = ref.names
    depth = 60 + 4 * (i % 6)
    wander = [rng.choice(names) for _ in range(depth // 4)]
    basepoint = rng.choice(branches[2])
    seq = wander + _settling_tail(rng, branches, depth - len(wander))
    files[f"g{i}.liminf.seq"] = "\n".join(seq) + "\n"
    tree = f"g{i}.tree"
    ops.append(Op("liminf-tree", ["observers", "liminf", "--tree", tree, "--seq", f"g{i}.liminf.seq",
                                  f"--basepoint={basepoint}", "--depth", str(depth)],
                  C.check_liminf, {"tree": ref, "target": target}, size=len(names)))

    stays = i % 3 != 0
    far = rng.choice([x for x in names if x != target])
    tail = [target if stays else far] * (depth - len(wander))
    files[f"g{i}.conv.seq"] = "\n".join(wander + tail) + "\n"
    rows = [f"{x} | {y}" for x, y in (rng.sample(names, 2) for _ in range(9))]
    if not stays:
        # a direction at a point of [target, far] toward the target holds
        # the target and not the tail
        a, b = ref.path(target, far)[:2]
        e = ref.original_edge(a, b)
        mid = (ref.edge_position(a, e) + ref.edge_position(b, e)) / 2
        rows.insert(rng.randrange(len(rows)), f"edge {e[0]} {e[1]} {fmt(mid)} | {target}")
    files[f"g{i}.probes"] = "\n".join(rows) + "\n"
    probes = f"g{i}.probes"
    ops.append(Op("converge-tree", ["observers", "converge", "--tree", tree, "--seq", f"g{i}.conv.seq",
                                    f"--limit={target}", "--probes", probes, "--depth", str(depth)],
                  C.check_converge, {"stays": stays, "depth": depth}, size=len(names), fails=not stays))

    ext = wander[: depth // 5] + [target] * (depth - depth // 5)
    files[f"g{i}.ext.seq"] = "\n".join(ext) + "\n"
    ops.append(Op("extract-tree", ["observers", "extract", "--tree", tree, "--seq", f"g{i}.ext.seq",
                                   "--dirs", "auto:4", "--depth", str(depth)],
                  C.check_extract, {"tree": ref, "target": target}, size=len(names)))
    return ops


def _line_ops(rng, i, files):
    depth = 200 + 20 * (i % 5)
    target = Fraction(rng.randint(-40, 40), rng.choice(DENOMS))
    wander = [Fraction(rng.randint(-200, 200), rng.choice(DENOMS)) for _ in range(depth // 4)]
    n_tail = depth - len(wander)
    # the tail stays at or above the target and returns to it: its liminf
    # from a basepoint below is the target
    tail = [target + (Fraction(rng.randint(1, 50), rng.choice(DENOMS)) if k % 3 else 0) for k in range(n_tail)]
    files[f"l{i}.seq"] = "\n".join(map(fmt, wander + tail)) + "\n"
    ops = [Op("liminf-line", ["observers", "liminf", "--line", "--seq", f"l{i}.seq",
                              f"--basepoint={fmt(target - rng.randint(1, 9))}", "--depth", str(depth)],
              C.check_liminf, {"target": target}, size=depth)]
    stays = i % 3 != 0
    far = target + rng.randint(1, 9)
    files[f"l{i}.conv.seq"] = "\n".join(map(fmt, wander + [target if stays else far] * n_tail)) + "\n"
    files[f"l{i}.probes"] = f"{fmt((target + far) / 2)} | {fmt(target)}\n" + "".join(
        f"{rng.randint(-9, 9)} | {rng.randint(10, 20)}\n" for _ in range(4)
    )
    ops.append(Op("converge-line", ["observers", "converge", "--line", "--seq", f"l{i}.conv.seq",
                                    f"--limit={fmt(target)}", "--probes", "auto:6" if stays else f"l{i}.probes",
                                    "--depth", str(depth)],
                  C.check_converge, {"stays": stays, "depth": depth}, size=depth, fails=not stays))
    files[f"l{i}.ext.seq"] = "\n".join(map(fmt, wander[: depth // 5] + [target] * (depth - depth // 5))) + "\n"
    ops.append(Op("extract-line", ["observers", "extract", "--line", "--seq", f"l{i}.ext.seq",
                                   "--dirs", "auto:4", "--depth", str(depth)],
                  C.check_extract, {"target": target}, size=depth))
    return ops


def _multipod_ops(rng, i, files):
    arms = 20 + 10 * (i % 4)
    depth = 200 + 20 * (i % 5)

    def arm_point(arm):
        return (arm, Fraction(rng.randint(1, 12), 12))

    def text(p):
        return "hub" if p == "hub" else f"arm {p[0]} {fmt(p[1])}"

    wander = [arm_point(rng.randrange(arms)) for _ in range(depth // 4)]
    n_tail = depth - len(wander)
    if i % 2:
        target = "hub"
        tail = [arm_point(1 + k % 2) for k in range(n_tail)]
    else:
        target = arm_point(3)
        tail = [target if k % 4 == 0 else (3, target[1] + (1 - target[1]) * Fraction(k % 4, 4))
                for k in range(n_tail)]
    files[f"m{i}.seq"] = "\n".join(map(text, wander + tail)) + "\n"
    ops = [Op("liminf-multipod", ["observers", "liminf", "--multipod", str(arms), "--seq", f"m{i}.seq",
                                  "--basepoint", "arm:0:1/2", "--depth", str(depth)],
              C.check_liminf, {"target": target}, size=depth)]
    stays = i % 3 != 0
    limit = arm_point(4)
    far = arm_point(5)
    files[f"m{i}.conv.seq"] = "\n".join(map(text, wander + [limit if stays else far] * n_tail)) + "\n"
    files[f"m{i}.probes"] = f"hub | {text(limit)}\n" + "".join(
        f"hub | {text(arm_point(rng.randrange(arms)))}\n" for _ in range(4)
    )
    ops.append(Op("converge-multipod", ["observers", "converge", "--multipod", str(arms), "--seq",
                                        f"m{i}.conv.seq", f"--limit={text(limit).replace(' ', ':')}",
                                        "--probes", "auto:6" if stays else f"m{i}.probes",
                                        "--depth", str(depth)],
                  C.check_converge, {"stays": stays, "depth": depth}, size=depth, fails=not stays))
    return ops


def gen_geodesics(rng: random.Random) -> Workload:
    """Tree builds beside tree queries: big-tree center and segment, and the
    observers' folds over small trees, the line and the multipod."""
    files, ops = {}, []
    # big trees; the block at the largest size holds the top decile
    for i, n in enumerate(spread(100, 300, 10) + [320] * 10):
        edges, points, ref, _ = _tree_with_branch_vertex(rng, n, i % 2 == 0, i % 4 < 2, n // 10)
        files[f"big{i}.tree"] = tree_file(edges, points)
        p, q, r = rng.sample(ref.names, 3)
        ops.append(Op("center", ["center", "--tree", f"big{i}.tree", p, q, r], C.check_center,
                      C.center_expected(ref, p, q, r), size=len(ref.names)))
        p, q = rng.sample(ref.names, 2)
        ops.append(Op("segment", ["segment", "--tree", f"big{i}.tree", p, q], C.check_segment,
                      C.segment_expected(ref, p, q), size=len(ref.names)))
    for i, n in enumerate(spread(40, 80, 24)):
        edges, points, ref, hubs = _tree_with_branch_vertex(rng, n, i % 2 == 0, i % 4 < 2, n // 10)
        files[f"g{i}.tree"] = tree_file(edges, points)
        ops += _tree_sequence_ops(rng, i, ref, hubs, files)
    for i in range(8):
        ops += _line_ops(rng, i, files)
        ops += _multipod_ops(rng, i, files)
    converge = [op for op in ops if op.kind.startswith("converge")]
    notes = {"converge ops whose sequence leaves the limit for good":
             f"{sum(op.fails for op in converge)} of {len(converge)}"}
    rng.shuffle(ops)
    return Workload(files, ops, notes)


# -- freegroup -------------------------------------------------------------------------


RATIONAL_WEIGHTS = ("1,2", "2,3", "1,3/2", "3/2,5/4", "2,3,5", "1,4/3,7/2")
SQRT_WEIGHTS = ("1,sqrt:2", "sqrt:3,1", "1,sqrt:5,2")


def _random_reduced(rng, letters, n):
    w = ""
    while len(w) < n:
        c = rng.choice(letters)
        if not w or c != C.inv(w[-1]):
            w += c
    return w


def _block(rng, symbols, weights, kind):
    """A cyclically reduced block: nonzero drift (kind None), zero letter
    counts ("commutator"), or zero drift from nonzero counts ("weights")."""
    letters = symbols + symbols.upper()
    if kind == "weights":
        vectors = [
            v for v in product(range(-6, 7), repeat=len(symbols))
            if any(v) and sum(map(abs, v)) <= 12 and C.drift_of_counts(v, weights) == 0
        ]
        if vectors:
            v = rng.choice(vectors)
            return "".join(s * n if n > 0 else s.upper() * -n for s, n in zip(symbols, v))
        kind = "commutator"
    while True:
        if kind == "commutator":
            u = _random_reduced(rng, letters, rng.randint(1, 2))
            v = _random_reduced(rng, letters, rng.randint(1, 2))
            block = C.cyclic(u + v + C.inverse(u) + C.inverse(v))
            if block:
                return block
        else:
            block = C.cyclic(_random_reduced(rng, letters, rng.randint(2, 6)))
            if block and abs(C.drift(block, symbols, weights)) > 1e-6:
                return block


def _boundary_word(rng, symbols, weights, kind):
    block = _block(rng, symbols, weights, kind)
    prefix = _random_reduced(rng, symbols + symbols.upper(), rng.randint(0, 4))
    while prefix and prefix[-1] == C.inv(block[0]):
        prefix = prefix[:-1]
    return prefix, block


def _expand(prefix, block, n=256):
    """The first n letters of prefix.block.block...; blocks are short enough
    that two different eventually periodic points differ within them."""
    return (prefix + block * n)[:n]


def _expected_estimate(symbols, weights, prefix, block, basepoint):
    mu = C.drift(block, symbols, weights)
    if mu != 0:
        return {"method": "drift", "point": math.inf if mu > 0 else -math.inf}
    # periodic zero-drift orbit: the tail visits c + S_j for the block's
    # prefix sums S_j; its liminf from b is the nearest tail value to b when
    # the tail sits on one side of b, else b itself
    c = basepoint + C.drift(prefix, symbols, weights)
    vals = [c + C.drift(block[:j], symbols, weights) for j in range(len(block))]
    if min(vals) >= basepoint:
        point = min(vals)
    elif max(vals) <= basepoint:
        point = max(vals)
    else:
        point = basepoint
    return {"method": "liminf", "point": point}


def _nielsen_marking(rng):
    """A random automorphism of F2 as a composite of Nielsen moves."""
    m = {"a": "a", "b": "b"}
    for _ in range(rng.randint(1, 3)):
        g, h = rng.sample("ab", 2)
        other = rng.choice((m[h], C.inverse(m[h])))
        m[g] = C.reduce(m[g] + other if rng.random() < 0.5 else other + m[g])
    return m


def gen_freegroup(rng: random.Random) -> Workload:
    """Words, boundary points, the limit map Q and length-function blends."""
    files, ops = {}, []
    class_cache: dict[tuple[str, int], list[str]] = {}

    def small_classes(symbols, weights, epsilon, maxlen):
        key = (symbols, maxlen)
        if key not in class_cache:
            class_cache[key] = C.classes(symbols, maxlen)
        return {w: abs(C.drift(w, symbols, weights)) for w in class_cache[key]
                if abs(C.drift(w, symbols, weights)) < float(epsilon)}

    def action(i):
        text = SQRT_WEIGHTS[i % 3] if i % 4 == 3 else RATIONAL_WEIGHTS[i % 6]
        ws = [C.read_weight(t) for t in text.split(",")]
        return text, "abc"[: len(ws)], ws

    depths = spread(2000, 10000, 64)
    for i, depth in enumerate(depths):
        text, symbols, ws = action(i)
        exact = all(isinstance(w, Fraction) for w in ws)
        kind = None if i % 10 < 3 else ("weights" if exact and i % 2 else "commutator")
        prefix, block = _boundary_word(rng, symbols, ws, kind)
        basepoint = Fraction(rng.randint(-20, 20), rng.choice(DENOMS))
        expected = _expected_estimate(symbols, ws, prefix, block, basepoint)
        ops.append(Op("qmap-estimate", ["qmap", "estimate", f"--weights={text}", f"--word={prefix};{block}",
                                        f"--basepoint={fmt(basepoint)}", "--depth", str(depth)],
                      C.check_estimate, expected, size=depth))
    for i in range(22):
        text, symbols, ws = action(i)
        depth = 2000 + 150 * i
        kind = None if i % 2 else "commutator"
        while True:
            words = [_boundary_word(rng, symbols, ws, kind) for _ in range(2)]
            ests = [_expected_estimate(symbols, ws, p, b, Fraction(0))["point"] for p, b in words]
            gap = abs(ests[0] - ests[1]) if ests[0] != ests[1] else 0
            # distinct boundary points whose limits are equal or clearly apart
            if _expand(*words[0]) != _expand(*words[1]) and (gap == 0 or gap > 1e-3):
                break
        status = "equal" if gap == 0 else "different"
        ops.append(Op("qmap-fibers", ["qmap", "fibers", f"--weights={text}", "--pair",
                                      " | ".join(f"{p};{b}" for p, b in words), "--depth", str(depth)],
                      C.check_fibers, {"status": status}, size=depth, fails=status == "different"))
    for i in range(18):
        text = ("1,sqrt:2", "2,3", "1,3/2")[i % 3]
        ws = [C.read_weight(t) for t in text.split(",")]
        epsilon = Fraction(rng.randint(3, 9), 10)
        maxlen = 4 + i % 2
        small = small_classes("ab", ws, epsilon, maxlen)
        expected = {"classes": {w: (tl, "equal" if tl == 0 else "different") for w, tl in small.items()}}
        ops.append(Op("qmap-lamination", ["qmap", "lamination", f"--weights={text}", f"--epsilon={fmt(epsilon)}",
                                          "--maxlen", str(maxlen), "--depth", "600"],
                      C.check_lamination, expected, size=maxlen))
    for i in range(18):
        text = ("1,sqrt:2", "2,3", "sqrt:3,1")[i % 3]
        ws = [C.read_weight(t) for t in text.split(",")]
        epsilon = Fraction(rng.randint(2, 9), 10)
        maxlen = 6 + i % 3
        ops.append(Op("qmap-smallwords", ["qmap", "smallwords", f"--weights={text}", f"--epsilon={fmt(epsilon)}",
                                          "--maxlen", str(maxlen)],
                      C.check_smallwords, {"symbols": "ab", "classes": small_classes("ab", ws, epsilon, maxlen)},
                      size=maxlen))
    for i in range(18):
        symbols = "ab" if i % 2 else "abc"
        w0 = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in symbols]
        if i % 3 == 0:
            w1 = [w * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for w in w0]
        else:
            w1 = [Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3))) for _ in symbols]
        lam = Fraction(rng.randint(1, 9), 10)
        maxlen = 4 if len(symbols) == 3 else 5
        words = C.classes(symbols, maxlen)

        def values(word, w0=w0, w1=w1, lam=lam, symbols=symbols):
            mu0, mu1 = C.drift(word, symbols, w0), C.drift(word, symbols, w1)
            return abs(mu0), abs(mu1), abs(lam * mu1 + (1 - lam) * mu0)

        deviation = max(abs(b - (lam * l1 + (1 - lam) * l0)) for l0, l1, b in map(values, words))
        ops.append(Op("blend-lengths", ["blend", "lengths", f"--weights0={','.join(map(fmt, w0))}",
                                        f"--weights1={','.join(map(fmt, w1))}", f"--lambda={fmt(lam)}",
                                        "--maxlen", str(maxlen)],
                      C.check_lengths,
                      {"deviation": Fraction(deviation), "words": sum(1 for _ in C.cyclic_words(symbols, maxlen)),
                       "values": values},
                      size=maxlen, fails=deviation != 0))
    # some markings repeat, some are fresh
    markings = [_nielsen_marking(rng) for _ in range(3)]
    for i in range(18):
        marking = markings[i % 3] if i < 9 else _nielsen_marking(rng)
        steps = 2 + i % 4
        maxlen = 3 + i % 2
        grid = [Fraction(k, steps) for k in range(steps + 1)]
        ops.append(Op("blend-axioms", ["blend", "axioms", "--marking", f"a:{marking['a']},b:{marking['b']}",
                                       "--lambda-grid", f"0:1:1/{steps}", "--maxlen", str(maxlen)],
                      C.check_axioms, {"marking": marking, "grid": grid}, size=maxlen))
    estimates = [op for op in ops if op.kind == "qmap-estimate"]
    drift = sum(op.expected["method"] == "drift" for op in estimates)
    notes = {"qmap-estimate ops on the drift route": f"{drift} of {len(estimates)}"}
    rng.shuffle(ops)
    return Workload(files, ops, notes)


GENERATORS = {
    "certify": gen_certify,
    "refute": gen_refute,
    "geodesics": gen_geodesics,
    "freegroup": gen_freegroup,
}


def generate(workload: str, seed: int) -> Workload:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
