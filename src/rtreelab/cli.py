"""Command-line front end.

Exit codes: 0 every check passed; 1 a certified violation (witness
printed, replayable); 2 inconclusive at the requested depth; 64 input
parse error; 65 invalid parameters.  Reports are deterministic for a
fixed configuration and seed: no timestamps, canonical ordering.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from itertools import combinations

from . import formats
from .blend import (
    REALIZED,
    CompatibleMetricPair,
    _line_blend_deviation,
    affine_deviation,
    blend_metric,
    certify_rtree,
    length_function_from_line_action,
    length_function_from_table,
    rose_blend_axiom_scan,
)
from .boundary import BoundaryPair, parse_boundary_point
from .formats import FormatError, format_number
from .hyperbolicity import MetricTable, first_violation, max_four_point_defect
from .observers import (
    Direction,
    PointSequence,
    converges_obs,
    extract_convergent_subsequence,
    liminf_from,
    subbasis_from_sample,
)
from .oracles import LINE_PLUS, FiniteTreeOracle, LineOracle, MultipodOracle
from .qmap import (
    DenseLineAction,
    dual_lamination_sample,
    line_action_from_weights,
    q_fiber_check,
    qmap_estimate,
    small_words_search,
)
from .words import Basis, _largest_cyclic_word

PASS, FAIL, INCONCLUSIVE, PARSE_ERROR, BAD_PARAMS = 0, 1, 2, 64, 65

# the largest liminf certificate that counts as stabilized: `observers
# liminf`'s default --tol, and the bound `observers extract` applies
LIMINF_TOL = "1e-9"


class ParameterError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


# parsed arguments that are not the subcommand's own, so not in its config line
_NOT_CONFIG = frozenset({"seed", "out_format", "command", "subcommand", "handler"})


def _echo_config(out, args):
    """The subcommand's set arguments, sorted by name, then the seed."""
    pairs = sorted((k, v) for k, v in vars(args).items() if v is not None and k not in _NOT_CONFIG)
    out.append("config: " + " ".join(f"{k}={v}" for k, v in pairs) + f" seed={args.seed}")


def _four_point_witness_payload(table: MetricTable, witness, delta):
    names = sorted(set(witness.quadruple))
    return {
        "quadruple": list(witness.quadruple),
        "distances": [[x, y, table.distance(x, y)] for x, y in combinations(names, 2)],
        "delta": delta,
        "margin": witness.margin,
    }


def _oracle_from_args(args):
    chosen = [k for k in ("tree", "line", "multipod") if getattr(args, k, None)]
    if len(chosen) != 1:
        raise ParameterError("choose exactly one of --tree, --line, --multipod")
    if args.tree:
        tree = formats.parse_tree(_read(args.tree))
        return FiniteTreeOracle(tree), tree
    if args.line:
        return LineOracle(), None
    arms = args.multipod
    if arms is not None and arms < 1:
        raise ParameterError("--multipod needs a positive arm count")
    return MultipodOracle(arms), None


def _unit_lambda(lam: Fraction, shown: str) -> Fraction:
    if lam < 0 or lam > 1:
        raise ParameterError(f"lambda must lie in [0, 1], got {shown}")
    return lam


def _parse_lambda(text: str) -> Fraction:
    return _unit_lambda(formats.parse_number(text), text)


# one report line per grid point: a grid past this many is refused before
# any point is made
_MAX_GRID_POINTS = 100_000


def _parse_lambda_grid(text: str) -> list[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError("grid syntax is start:end:step")
        start, end, step = (formats.parse_number(p) for p in parts)
        if step <= 0:
            raise ParameterError("grid step must be positive")
        if start > end:
            # an empty grid checks nothing, so its pass would be vacuous
            raise ParameterError("grid start must not exceed its end")
        if (end - start) // step >= _MAX_GRID_POINTS:
            raise ParameterError(f"grid has more than {_MAX_GRID_POINTS} points")
        grid = []
        lam = start
        while lam <= end:
            grid.append(_unit_lambda(lam, format_number(lam)))
            lam += step
        return grid
    return [_parse_lambda(p) for p in text.split(",")]


def _parse_marking(text: str) -> dict[str, str]:
    marking = {}
    for piece in text.split(","):
        if ":" not in piece:
            raise ParameterError(f"marking entries look like gen:image, got {piece!r}")
        gen, image = (part.strip() for part in piece.split(":", 1))
        if gen in marking:
            raise ParameterError(f"marking entries repeat the generator {gen!r}")
        marking[gen] = image
    return marking


# -- subcommand handlers ----------------------------------------------------------


def run_certify(args, out) -> int:
    if bool(args.tree) == bool(args.table):
        raise ParameterError("certify needs exactly one of --tree or --table")
    delta = formats.parse_number(args.delta)
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    if args.tree:
        tree = formats.parse_tree(_read(args.tree))
        n = len(tree.vertices)  # a tree has one edge fewer, counted without its lengths
        out.append(f"loaded tree: {n} vertices, {n - 1} edges")
        # a tree that builds realizes its own 0-hyperbolic metric: no table, no scan
        defect, witness = 0, None
    else:
        table = formats.parse_table(_read(args.table))
        out.append(f"loaded table: {len(table.points)} points")
        # a realized table has no off-tree row, so its defect is 0 at once
        defect = max_four_point_defect(table)
        witness = first_violation(table, delta) if defect > delta else None
    out.append(f"four-point defect: {format_number(defect)}")
    if witness is None:
        if delta == 0:
            out.append(f"realization: {REALIZED if args.tree else certify_rtree(table).note}")
        out.append(f"RESULT: pass (delta={format_number(delta)})")
        return PASS
    out.append(f"RESULT: fail -- {witness}")
    out.append(formats.witness_line("four_point", _four_point_witness_payload(table, witness, delta)))
    return FAIL


def run_center(args, out) -> int:
    tree = formats.parse_tree(_read(args.tree))
    z = tree.center(args.p, args.q, args.r)
    out.append(f"center: {formats.format_point(tree, z)}")
    for name in (args.p, args.q, args.r):
        out.append(f"distance {name}: {format_number(tree.distance(name, z))}")
    out.append("RESULT: pass")
    return PASS


def run_segment(args, out) -> int:
    tree = formats.parse_tree(_read(args.tree))
    pieces = tree.segment(args.p, args.q)
    for piece in pieces:
        u, v = piece.edge
        out.append(
            f"piece {u} {v} {format_number(piece.start)} {format_number(piece.end)}"
            f" length {format_number(piece.length)}"
        )
    out.append(f"total: {format_number(tree.distance(args.p, args.q))}")
    out.append("RESULT: pass")
    return PASS


def _directions_from_arg(text, oracle, tree):
    """A directions file, or ``auto:<k>``: the subbasis from k sample points."""
    if not text.startswith("auto:"):
        return formats.parse_directions(_read(text), oracle, tree)
    try:
        k = int(text[5:])
    except ValueError:
        k = 0
    if k < 2:
        raise ParameterError("auto:<k> needs an integer k >= 2")
    return subbasis_from_sample(oracle, oracle.sample_stream(), k)


# the most bits the distinct denominators may have in all, a bound on S: timed
# on both paths, every command runs faster on the grid at 2048 bits, and
# liminf on the line runs slower than on Fractions at 4096
_GRID_BITS = 2048


class _Grid:
    """A line or multipod command's points on one integer grid: coordinates
    and offsets times S, the lcm of their denominators, and arms of length S.
    The homothety keeps centers, germs and ties, so the observers run on
    ints; a reported value is divided by S.  A tree, a multipod with a point
    off its arms (its error names that offset), or denominators past
    ``_GRID_BITS`` keep their values."""

    def __init__(self, oracle, points, dirs=()):
        self.oracle, self.scale, self._on = oracle, None, {}
        if isinstance(oracle, FiniteTreeOracle):
            return
        line = isinstance(oracle, LineOracle)
        points = {*points, *(p for d in dirs for p in (d.base, d.representative))}
        # the coordinate or offset of each point but the hub and the line's ends, as an integer ratio
        ratios = {p: x if isinstance(x, tuple) else x.as_integer_ratio()
                  for p in points if isinstance(p, (tuple, int, Fraction)) for x in [p if line else p[1]]}
        dens = {d for _, d in ratios.values()}
        fits = line or all(0 <= p[0] < oracle.arms and 0 <= n <= d * oracle.arm_length for p, (n, d) in ratios.items())
        if fits and sum(d.bit_length() for d in dens) <= _GRID_BITS:
            self.scale = scale = math.lcm(*dens)
            self.oracle = LineOracle() if line else MultipodOracle(oracle.arms, scale)
            numbers = {p: n * (scale // d) for p, (n, d) in ratios.items()}
        else:
            numbers = {p: Fraction(n, d) for p, (n, d) in ratios.items()}
        self._on = on = {p: x if line else (p[0], x) for p, x in numbers.items()}
        on |= {d: Direction(on.get(d.base, d.base), on.get(d.representative, d.representative)) for d in dirs}

    def on(self, x):
        """A point or direction on the grid."""
        return self._on.get(x, x)

    def off(self, x):
        """A point or distance of the grid in file units."""
        if self.scale is None or not isinstance(x, (int, Fraction, tuple)):
            return x
        return (x[0], Fraction(x[1], self.scale)) if isinstance(x, tuple) else Fraction(x, self.scale)


def run_observers_liminf(args, out) -> int:
    tol = formats.parse_number(args.tol)
    oracle, tree = _oracle_from_args(args)
    terms = formats.parse_sequence(_read(args.seq), oracle, tree, number=formats.parse_ratio)
    basepoint = formats.parse_oracle_point(args.basepoint, oracle, tree, number=formats.parse_ratio)
    if args.depth < 1:
        raise ParameterError("depth must be >= 1")
    grid = _Grid(oracle, [*terms, basepoint])
    seq = PointSequence(map(grid.on, terms))
    res = liminf_from(grid.oracle, grid.on(basepoint), seq, args.depth, head=args.head)
    # the fold stops at head - 1; the terms before it are still checked, last first
    for p in reversed(seq.take(res.head - 1)):
        grid.oracle.points_equal(p, p)
    certificate = grid.off(res.certificate)
    out.append(f"terms used: {res.terms_used} (head {res.head})")
    out.append(f"liminf: {formats.format_oracle_point(grid.off(res.point), oracle, tree)}")
    out.append(f"certificate: {format_number(certificate)}")
    if certificate <= tol:
        out.append("RESULT: pass (stabilized at this depth)")
        return PASS
    out.append("RESULT: inconclusive (estimate still moving at this depth)")
    return INCONCLUSIVE


def _finite_stand_ins(oracle, points: list) -> list:
    """The points with each line end put one unit beyond the finite points
    on its side (beyond 0 when none is finite).  The order on the line,
    ties included, is kept, so a term outside a direction stays outside it
    and the distances of a witness are finite.  Points with no line end, as
    on a tree or the multipod, come back as they are."""
    if not any(map(oracle.is_boundary, points)):
        return points
    finite = [p for p in points if not oracle.is_boundary(p)] or [0]
    top, bottom = max(finite) + 1, min(finite) - 1
    return [p if not oracle.is_boundary(p) else top if p == LINE_PLUS else bottom for p in points]


def run_observers_converge(args, out) -> int:
    oracle, tree = _oracle_from_args(args)
    terms = formats.parse_sequence(_read(args.seq), oracle, tree, number=formats.parse_ratio)
    limit = formats.parse_oracle_point(args.limit, oracle, tree, number=formats.parse_ratio)
    probes = _directions_from_arg(args.probes, oracle, tree)
    grid = _Grid(oracle, [*terms, limit], probes)
    seq = PointSequence(map(grid.on, terms))
    verdict = converges_obs(grid.oracle, seq, grid.on(limit), map(grid.on, probes), args.depth)
    relevant = [r for r in verdict.reports if r.contains_limit]
    out.append(f"probes: {len(probes)} total, {len(relevant)} containing the limit")
    for report in relevant:
        base = formats.format_oracle_point(grid.off(report.direction.base), oracle, tree)
        rep = formats.format_oracle_point(grid.off(report.direction.representative), oracle, tree)
        out.append(f"probe dir[{base} -> {rep}]: last outside index {report.last_outside}")
    if not relevant:
        out.append("RESULT: inconclusive (no probe direction contains the limit)")
        return INCONCLUSIVE
    if verdict.consistent:
        out.append(f"RESULT: pass (consistent with convergence at depth {verdict.depth})")
        return PASS
    refuting = verdict.refuting
    # the witness's distances are taken in file units, so each keeps its type there
    points = (refuting.direction.base, refuting.direction.representative, seq.point(refuting.last_outside))
    base, rep, term = _finite_stand_ins(oracle, [grid.off(p) for p in points])
    payload = {
        "d_base_rep": oracle.distance(base, rep),
        "d_base_term": oracle.distance(base, term),
        "d_rep_term": oracle.distance(rep, term),
        "term_index": refuting.last_outside,
    }
    out.append("RESULT: fail -- sequence leaves a neighborhood of the limit and stays out")
    out.append(formats.witness_line("direction_exit", payload))
    return FAIL


def run_observers_extract(args, out) -> int:
    oracle, tree = _oracle_from_args(args)
    terms = formats.parse_sequence(_read(args.seq), oracle, tree, number=formats.parse_ratio)
    dirs = _directions_from_arg(args.dirs, oracle, tree)
    basepoint = (
        formats.parse_oracle_point(args.basepoint, oracle, tree, number=formats.parse_ratio) if args.basepoint else None
    )
    grid = _Grid(oracle, [*terms, basepoint], dirs)
    seq = PointSequence(map(grid.on, terms))
    dirs = list(map(grid.on, dirs))
    res = extract_convergent_subsequence(grid.oracle, seq, dirs, args.depth, grid.on(basepoint))
    out.append("indices: " + " ".join(str(i) for i in res.indices))
    out.append(f"limit estimate: {formats.format_oracle_point(grid.off(res.limit.point), oracle, tree)}")
    certificate = grid.off(res.limit.certificate)
    out.append(f"certificate: {format_number(certificate)}")
    if res.exhausted_at is not None:
        out.append(f"RESULT: inconclusive (window exhausted at direction {res.exhausted_at})")
        return INCONCLUSIVE
    if certificate > formats.parse_number(LIMINF_TOL):
        out.append("RESULT: inconclusive (estimate still moving at this depth)")
        return INCONCLUSIVE
    out.append("RESULT: pass")
    return PASS


def _action_from_args(args):
    if args.weights:
        return line_action_from_weights(args.weights.split(","))
    if args.action:
        rows = formats.parse_action_file(_read(args.action))
        basis = Basis(len(rows))
        by_gen = dict(rows)
        ordered = [by_gen[s] for s in basis.symbols if s in by_gen]
        if len(ordered) != basis.rank:
            raise FormatError("action file must weight generators a, b, ...")
        return line_action_from_weights(ordered, basis)
    raise ParameterError("need --weights or --action")


def run_qmap_estimate(args, out) -> int:
    action, tol = _action_from_args(args), formats.parse_number(args.tol)
    x = parse_boundary_point(args.word, action.basis)
    basepoint = formats.parse_number(args.basepoint)
    est = qmap_estimate(action, x, basepoint=basepoint, depth=args.depth)
    out.append(f"estimate: {formats.format_oracle_point(est.point, LineOracle())}")
    out.append(f"method: {est.method}")
    out.append(f"certificate: {format_number(est.certificate)}")
    if est.method == "drift" or est.certificate <= tol:
        out.append("RESULT: pass")
        return PASS
    out.append("RESULT: inconclusive (estimate still moving at this depth)")
    return INCONCLUSIVE


def _fiber_payload(action, check, tol):
    def enc(estimate):
        return formats.format_oracle_point(estimate.point, LineOracle())

    return {
        "first": enc(check.first),
        "second": enc(check.second),
        "residual": check.residual,
        "tol": float(tol),
    }


def run_qmap_fibers(args, out) -> int:
    action = _action_from_args(args)
    tol = formats.parse_number(args.tol)
    if args.pair:
        raw_pairs = [tuple(part.strip() for part in args.pair.split("|", 1))]
        if len(raw_pairs[0]) != 2:
            raise ParameterError("--pair looks like 'X | Y'")
    else:
        if not args.pairs:
            raise ParameterError("need --pair or --pairs")
        raw_pairs = formats.parse_boundary_pairs(_read(args.pairs), action.basis)
    worst = PASS
    for left, right in raw_pairs:
        x = parse_boundary_point(left, action.basis)
        y = parse_boundary_point(right, action.basis)
        BoundaryPair(x, y)  # certifies distinctness
        check = q_fiber_check(action, x, y, depth=args.depth, tol=tol)
        out.append(
            f"pair {left} | {right}: {check.status}"
            f" residual {format_number(check.residual)}"
        )
        if check.status == "different":
            out.append(formats.witness_line("fiber_mismatch", _fiber_payload(action, check, tol)))
            worst = FAIL
        elif check.status == "inconclusive" and worst == PASS:
            worst = INCONCLUSIVE
    label = {PASS: "pass", FAIL: "fail", INCONCLUSIVE: "inconclusive"}[worst]
    out.append(f"RESULT: {label}")
    return worst


def run_qmap_lamination(args, out) -> int:
    action = _action_from_args(args)
    epsilon = formats.parse_number(args.epsilon)
    sample = dual_lamination_sample(
        action, epsilon, args.maxlen, depth=args.depth, tol=formats.parse_number(args.tol)
    )
    out.append(
        f"sample: {len(sample.pairs)} pairs at depth {sample.depth}"
        f" from {len(sample.provenance['source_words'])} classes"
    )
    inconclusive = 0
    for pair in sample.pairs:
        meta = sample.annotations[pair]
        out.append(
            f"pair word={meta['word']} tl={format_number(meta['translation_length'])}"
            f" fiber={meta['fiber_status']} residual={format_number(meta['fiber_residual'])}"
        )
        inconclusive += meta["fiber_status"] == "inconclusive"
    audit = sample.audit()
    out.append(
        "audit: closed (by construction: each class adds its pair and its flip)"
        if audit.closed
        else "audit: NOT CLOSED"
    )
    if not audit.closed:
        out.append("RESULT: fail")
        return FAIL
    if inconclusive:
        out.append(f"RESULT: inconclusive ({inconclusive} unstabilized fibers)")
        return INCONCLUSIVE
    out.append("RESULT: pass")
    return PASS


def run_qmap_smallwords(args, out) -> int:
    action = _action_from_args(args)
    epsilon = formats.parse_number(args.epsilon)
    records = small_words_search(action, epsilon, args.maxlen)
    out.append("word\tlength\ttranslation_length\tabelianization")
    for rec in records:
        vec = ",".join(str(n) for n in rec.vector)
        out.append(
            f"{rec.word}\t{len(rec.word)}\t{format_number(rec.translation_length)}\t{vec}"
        )
    out.append(f"RESULT: pass ({len(records)} classes)")
    return PASS


def run_blend_metric(args, out) -> int:
    t0, t1 = formats.parse_pair_file(_read(args.pair))
    pair = CompatibleMetricPair(t0, t1)
    lam = _parse_lambda(getattr(args, "lambda"))
    blended = blend_metric(pair, lam)
    # a tree's own table is a tree metric, so its certification passes
    result = certify_rtree(MetricTable.from_tree(blended))
    out.append(formats.format_tree(blended).rstrip("\n"))
    out.append(f"certification: {result.note}")
    out.append("RESULT: pass")
    return PASS


def run_blend_lengths(args, out) -> int:
    lam = _parse_lambda(getattr(args, "lambda"))
    tol = formats.parse_number(args.tol)
    if args.weights0 and args.weights1:
        a0, a1 = (line_action_from_weights(t.split(",")) for t in (args.weights0, args.weights1))
        if a0.basis != a1.basis:
            raise ParameterError(f"--weights0 has {a0.basis.rank} weights but --weights1 has {a1.basis.rank}")
        blend_action = DenseLineAction(
            {s: lam * a1.weights[s] + (1 - lam) * a0.weights[s] for s in a0.basis.symbols},
            a0.basis,
        )
        lf0, lf1, lfb = map(length_function_from_line_action, (a0, a1, blend_action))
        if args.maxlen < 1:
            raise ParameterError("maxlen must be >= 1")
        checked, deviation, tied = _line_blend_deviation(lf0, lf1, lfb, lam, a0.basis, args.maxlen)
        worst_word = _largest_cyclic_word(a0.basis, args.maxlen, tied) if deviation > tol else None
    elif args.table0 and args.table1 and args.tableb:
        t0 = formats.parse_length_table(_read(args.table0))
        t1 = formats.parse_length_table(_read(args.table1))
        tb = formats.parse_length_table(_read(args.tableb))
        words = sorted(set(t0) & set(t1) & set(tb), key=lambda w: (len(w), w))
        if not words:
            raise ParameterError("length tables share no words")
        checked = len(words)
        lf0, lf1, lfb = map(length_function_from_table, (t0, t1, tb))
        deviation, worst_word = affine_deviation(lf0, lf1, lfb, lam, words)
    else:
        raise ParameterError("need --weights0/--weights1 or --table0/--table1/--tableb")
    out.append(f"words checked: {checked}")
    out.append(f"max deviation: {format_number(deviation)}")
    if deviation <= tol:
        out.append("RESULT: pass")
        return PASS
    out.append(f"RESULT: fail -- blend is not the affine combination (word {worst_word})")
    out.append(
        formats.witness_line(
            "affine_deviation",
            {
                "word": worst_word,
                "lambda": lam,
                "lf0": lf0(worst_word),
                "lf1": lf1(worst_word),
                "blend": lfb(worst_word),
                "tol": tol,
            },
        )
    )
    return FAIL


def run_blend_axioms(args, out) -> int:
    marking1 = _parse_marking(args.marking)
    marking0 = _parse_marking(args.marking0) if args.marking0 else None
    lambdas = _parse_lambda_grid(args.lambda_grid)
    basis = Basis(len(marking1))
    entries = rose_blend_axiom_scan(
        marking1, lambdas, args.maxlen, basis=basis, marking0=marking0
    )
    violations = 0
    for entry in entries:
        if entry.ok:
            out.append(
                f"lambda {format_number(entry.lam)}: no violation found (words <= {args.maxlen})"
            )
        else:
            violations += 1
            w = entry.witness
            out.append(
                f"lambda {format_number(entry.lam)}: VIOLATION u={w.u} v={w.v}"
                f" uv={format_number(w.values['uv'])} uv_inv={format_number(w.values['uv_inv'])}"
                f" bound={format_number(w.values['u'] + w.values['v'])}"
            )
            out.append(
                formats.witness_line(
                    "axiom",
                    {"axiom": w.kind, "u": w.u, "v": w.v, "values": w.values},
                )
            )
    out.append(f"RESULT: {'fail' if violations else 'pass'} ({violations} violating lambdas)")
    return FAIL if violations else PASS


def run_replay(args, out) -> int:
    text = _read(args.report)
    records = formats.parse_witness_lines(text)
    if not records:
        out.append("RESULT: parse error -- no witness lines found")
        return PARSE_ERROR
    bad = 0
    for i, record in enumerate(records):
        ok = formats.replay_witness(record)
        out.append(f"witness {i} ({record['kind']}): {'confirmed' if ok else 'NOT CONFIRMED'}")
        bad += not ok
    out.append(f"RESULT: {'pass' if bad == 0 else 'fail'} ({len(records)} witnesses)")
    return PASS if bad == 0 else FAIL


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rtreelab", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="echoed for reproducibility")
    parser.add_argument(
        "--format", choices=("report", "table"), default="report", dest="out_format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="four-point certification of a tree or table")
    certify.add_argument("--tree")
    certify.add_argument("--table")
    certify.add_argument("--delta", default="0")
    certify.set_defaults(handler=run_certify)

    center = sub.add_parser("center", help="center of three points")
    center.add_argument("--tree", required=True)
    center.add_argument("p")
    center.add_argument("q")
    center.add_argument("r")
    center.set_defaults(handler=run_center)

    segment = sub.add_parser("segment", help="the arc between two points")
    segment.add_argument("--tree", required=True)
    segment.add_argument("p")
    segment.add_argument("q")
    segment.set_defaults(handler=run_segment)

    obs = sub.add_parser("observers", help="convergence machinery")
    obs_sub = obs.add_subparsers(dest="subcommand", required=True)

    def add_oracle_flags(p):
        p.add_argument("--tree")
        p.add_argument("--line", action="store_true")
        p.add_argument("--multipod", type=int)
        p.add_argument("--seq", required=True)
        p.add_argument("--depth", type=int, required=True)

    liminf_p = obs_sub.add_parser("liminf")
    add_oracle_flags(liminf_p)
    liminf_p.add_argument("--basepoint", required=True)
    liminf_p.add_argument("--head", type=int, default=None)
    liminf_p.add_argument("--tol", default=LIMINF_TOL)
    liminf_p.set_defaults(handler=run_observers_liminf)

    conv = obs_sub.add_parser("converge")
    add_oracle_flags(conv)
    conv.add_argument("--limit", required=True)
    conv.add_argument("--probes", required=True, help="directions file or auto:<k>")
    conv.set_defaults(handler=run_observers_converge)

    extract = obs_sub.add_parser("extract")
    add_oracle_flags(extract)
    extract.add_argument("--dirs", required=True, help="directions file or auto:<k>")
    extract.add_argument("--basepoint", default=None)
    extract.set_defaults(handler=run_observers_extract)

    qmap_p = sub.add_parser("qmap", help="boundary-to-tree limit map")
    qmap_sub = qmap_p.add_subparsers(dest="subcommand", required=True)

    def add_action_flags(p):
        p.add_argument("--weights", help="comma list, e.g. 1,sqrt:2")
        p.add_argument("--action", help="action file with a 'line' header")

    estimate = qmap_sub.add_parser("estimate")
    add_action_flags(estimate)
    estimate.add_argument("--word", required=True, help="boundary point prefix;period")
    estimate.add_argument("--basepoint", default="0")
    estimate.add_argument("--depth", type=int, default=10_000)
    estimate.add_argument("--tol", default="1e-6")
    estimate.set_defaults(handler=run_qmap_estimate)

    fibers = qmap_sub.add_parser("fibers")
    add_action_flags(fibers)
    fibers.add_argument("--pair", help="'X | Y' inline")
    fibers.add_argument("--pairs", help="file of 'X | Y' lines")
    fibers.add_argument("--depth", type=int, default=10_000)
    fibers.add_argument("--tol", default="1e-6")
    fibers.set_defaults(handler=run_qmap_fibers)

    lam_p = qmap_sub.add_parser("lamination")
    add_action_flags(lam_p)
    lam_p.add_argument("--epsilon", required=True)
    lam_p.add_argument("--maxlen", type=int, required=True)
    lam_p.add_argument("--depth", type=int, default=1000)
    lam_p.add_argument("--tol", default="1e-6")
    lam_p.set_defaults(handler=run_qmap_lamination)

    small = qmap_sub.add_parser("smallwords")
    add_action_flags(small)
    small.add_argument("--epsilon", required=True)
    small.add_argument("--maxlen", type=int, required=True)
    small.set_defaults(handler=run_qmap_smallwords)

    blend_p = sub.add_parser("blend", help="convex combinations of tree metrics")
    blend_sub = blend_p.add_subparsers(dest="subcommand", required=True)

    metric = blend_sub.add_parser("metric")
    metric.add_argument("--pair", required=True, help="two-column shape file")
    metric.add_argument("--lambda", required=True)
    metric.set_defaults(handler=run_blend_metric)

    lengths = blend_sub.add_parser("lengths")
    lengths.add_argument("--weights0")
    lengths.add_argument("--weights1")
    lengths.add_argument("--table0")
    lengths.add_argument("--table1")
    lengths.add_argument("--tableb")
    lengths.add_argument("--lambda", required=True)
    lengths.add_argument("--maxlen", type=int, default=6)
    lengths.add_argument("--tol", default="0")
    lengths.set_defaults(handler=run_blend_lengths)

    axioms = blend_sub.add_parser("axioms")
    axioms.add_argument("--marking", required=True, help="e.g. a:a,b:ba")
    axioms.add_argument("--marking0", default=None)
    axioms.add_argument("--lambda-grid", dest="lambda_grid", default="0:1:1/10")
    axioms.add_argument("--maxlen", type=int, default=6)
    axioms.set_defaults(handler=run_blend_axioms)

    replay = sub.add_parser("replay", help="re-verify witnesses from a report")
    replay.add_argument("report")
    replay.set_defaults(handler=run_replay)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parsing leaves no state behind in the parser, so one per process serves
    # every call; it is built on the first call, not at import
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return BAD_PARAMS
    out: list[str] = []
    name = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    out.append(f"rtreelab {name}")
    _echo_config(out, args)
    try:
        code = args.handler(args, out)
    except FormatError as exc:
        print("\n".join(out))
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (ValueError, KeyError) as exc:
        print("\n".join(out))
        print(f"parameter error: {exc}", file=sys.stderr)
        return BAD_PARAMS
    print("\n".join(_render(out, args.out_format)))
    return code


def _render(lines: list[str], out_format: str) -> list[str]:
    """Table mode: 'key: value' prose becomes key<TAB>value rows; tabular and
    witness lines pass through; the banner is dropped."""
    if out_format == "report":
        return lines
    rows = []
    for line in lines[1:]:
        if "\t" in line or line.startswith(formats.WITNESS_PREFIX):
            rows.append(line)
        elif ": " in line:
            key, value = line.split(": ", 1)
            rows.append(f"{key}\t{value}")
    return rows


def entry() -> int:
    """``main`` on the process's arguments, for ``python -m rtreelab``,
    ``python -m rtreelab.cli`` and the ``rtreelab`` script: a reader that
    closes stdout early ends the run quietly."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # drop the rest of the report, exit 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return code


if __name__ == "__main__":
    sys.exit(entry())
