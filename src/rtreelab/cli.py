"""Command-line front end.

Exit codes: 0 every check passed; 1 a certified violation (witness
printed, replayable); 2 inconclusive at the requested depth; 64 input
parse error; 65 invalid parameters.  Reports are deterministic for a
fixed configuration and seed: no timestamps, canonical ordering.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations

from . import formats
from .blend import (
    CompatibleMetricPair,
    blend_metric,
    certify_rtree,
    convex_combination_length_check,
    length_function_from_line_action,
    length_function_from_table,
    rose_blend_axiom_scan,
)
from .boundary import BoundaryPair, parse_boundary_point
from .formats import FormatError, format_number
from .hyperbolicity import MetricTable, first_violation, max_four_point_defect
from .qmap import DenseLineAction
from .observers import (
    PointSequence,
    converges_obs,
    extract_convergent_subsequence,
    liminf_from,
    subbasis_from_sample,
)
from .oracles import FiniteTreeOracle, LineOracle, MultipodOracle
from .qmap import (
    dual_lamination_sample,
    line_action_from_weights,
    q_fiber_check,
    qmap_estimate,
    small_words_search,
)
from .words import Basis, cyclically_reduced_words

PASS, FAIL, INCONCLUSIVE, PARSE_ERROR, BAD_PARAMS = 0, 1, 2, 64, 65


class ParameterError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _echo_config(out, args, keys):
    pairs = []
    for key in sorted(keys):
        value = getattr(args, key, None)
        if value is not None:
            pairs.append(f"{key}={value}")
    out.append("config: " + " ".join(pairs) + f" seed={args.seed}")


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


def _parse_lambda(text: str) -> Fraction:
    lam = formats.parse_number(text)
    if lam < 0 or lam > 1:
        raise ParameterError(f"lambda must lie in [0, 1], got {text}")
    return lam


def _parse_lambda_grid(text: str) -> list[Fraction]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError("grid syntax is start:end:step")
        start, end, step = (formats.parse_number(p) for p in parts)
        if step <= 0:
            raise ParameterError("grid step must be positive")
        grid = []
        lam = start
        while lam <= end:
            grid.append(_parse_lambda(format_number(lam)))
            lam += step
        return grid
    return [_parse_lambda(p) for p in text.split(",")]


def _parse_marking(text: str) -> dict[str, str]:
    marking = {}
    for piece in text.split(","):
        if ":" not in piece:
            raise ParameterError(f"marking entries look like gen:image, got {piece!r}")
        gen, image = piece.split(":", 1)
        marking[gen.strip()] = image.strip()
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
        table = MetricTable.from_tree(tree)
        out.append(f"loaded tree: {len(tree.vertices)} vertices, {len(tree.edges)} edges")
    else:
        table = formats.parse_table(_read(args.table))
        out.append(f"loaded table: {len(table.points)} points")
    # a pass at delta 0 is a realized tree metric, whose defect is 0
    if delta == 0:
        result = certify_rtree(table)
        witness = result.verdict.witness
        defect = Fraction(0) if witness is None else max_four_point_defect(table)
    else:
        defect = max_four_point_defect(table)
        witness = first_violation(table, delta) if defect > delta else None
    out.append(f"four-point defect: {format_number(defect)}")
    if witness is None:
        if delta == 0:
            out.append(f"realization: {result.note}")
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


def _sequence_from_args(args, oracle, tree):
    pts = formats.parse_sequence(_read(args.seq), oracle, tree)
    return PointSequence(pts)


def _probes_from_args(args, oracle, tree):
    if args.probes.startswith("auto:"):
        k = int(args.probes[5:])
        return subbasis_from_sample(oracle, oracle.sample_stream(), k)
    return formats.parse_directions(_read(args.probes), oracle, tree)


def run_observers_liminf(args, out) -> int:
    oracle, tree = _oracle_from_args(args)
    seq = _sequence_from_args(args, oracle, tree)
    basepoint = formats.parse_oracle_point(args.basepoint, oracle, tree)
    if args.depth < 1:
        raise ParameterError("depth must be >= 1")
    res = liminf_from(oracle, basepoint, seq, args.depth, head=args.head)
    out.append(f"terms used: {res.terms_used} (head {res.head})")
    out.append(f"liminf: {formats.format_oracle_point(res.point, oracle, tree)}")
    out.append(f"certificate: {format_number(res.certificate)}")
    if res.certificate <= formats.parse_number(args.tol):
        out.append("RESULT: pass (stabilized at this depth)")
        return PASS
    out.append("RESULT: inconclusive (estimate still moving at this depth)")
    return INCONCLUSIVE


def run_observers_converge(args, out) -> int:
    oracle, tree = _oracle_from_args(args)
    seq = _sequence_from_args(args, oracle, tree)
    limit = formats.parse_oracle_point(args.limit, oracle, tree)
    probes = _probes_from_args(args, oracle, tree)
    verdict = converges_obs(oracle, seq, limit, probes, args.depth)
    relevant = [r for r in verdict.reports if r.contains_limit]
    out.append(f"probes: {len(probes)} total, {len(relevant)} containing the limit")
    for report in relevant:
        base = formats.format_oracle_point(report.direction.base, oracle, tree)
        rep = formats.format_oracle_point(report.direction.representative, oracle, tree)
        out.append(f"probe dir[{base} -> {rep}]: last outside index {report.last_outside}")
    if verdict.consistent:
        out.append(f"RESULT: pass (consistent with convergence at depth {verdict.depth})")
        return PASS
    refuting = verdict.refuting
    term = seq.point(refuting.last_outside)
    payload = {
        "d_base_rep": oracle.distance(refuting.direction.base, refuting.direction.representative),
        "d_base_term": oracle.distance(refuting.direction.base, term),
        "d_rep_term": oracle.distance(refuting.direction.representative, term),
        "term_index": refuting.last_outside,
    }
    out.append("RESULT: fail -- sequence leaves a neighborhood of the limit and stays out")
    out.append(formats.witness_line("direction_exit", payload))
    return FAIL


def run_observers_extract(args, out) -> int:
    oracle, tree = _oracle_from_args(args)
    seq = _sequence_from_args(args, oracle, tree)
    dirs = (
        formats.parse_directions(_read(args.dirs), oracle, tree)
        if not args.dirs.startswith("auto:")
        else subbasis_from_sample(oracle, oracle.sample_stream(), int(args.dirs[5:]))
    )
    basepoint = (
        formats.parse_oracle_point(args.basepoint, oracle, tree) if args.basepoint else None
    )
    res = extract_convergent_subsequence(oracle, seq, dirs, args.depth, basepoint)
    out.append("indices: " + " ".join(str(i) for i in res.indices))
    out.append(f"limit estimate: {formats.format_oracle_point(res.limit.point, oracle, tree)}")
    out.append(f"certificate: {format_number(res.limit.certificate)}")
    if res.exhausted_at is not None:
        out.append(f"RESULT: inconclusive (window exhausted at direction {res.exhausted_at})")
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
    action = _action_from_args(args)
    x = parse_boundary_point(args.word, action.basis)
    basepoint = formats.parse_number(args.basepoint)
    est = qmap_estimate(action, x, basepoint=basepoint, depth=args.depth)
    out.append(f"estimate: {formats.format_oracle_point(est.point, action.oracle)}")
    out.append(f"method: {est.method}")
    out.append(f"certificate: {format_number(est.certificate)}")
    if est.method == "drift" or est.certificate <= formats.parse_number(args.tol):
        out.append("RESULT: pass")
        return PASS
    out.append("RESULT: inconclusive (estimate still moving at this depth)")
    return INCONCLUSIVE


def _fiber_payload(action, check, tol):
    def enc(estimate):
        return formats.format_oracle_point(estimate.point, action.oracle)

    return {
        "first": enc(check.first),
        "second": enc(check.second),
        "residual": check.residual,
        "tol": tol,
    }


def run_qmap_fibers(args, out) -> int:
    action = _action_from_args(args)
    tol = float(formats.parse_number(args.tol))
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
    epsilon = float(formats.parse_number(args.epsilon))
    sample = dual_lamination_sample(
        action, epsilon, args.maxlen, depth=args.depth, tol=float(formats.parse_number(args.tol))
    )
    out.append(
        f"sample: {len(sample.pairs)} pairs at depth {sample.depth}"
        f" from {len(sample.provenance['source_words'])} classes"
    )
    inconclusive = 0
    for pair in sample.pairs:
        meta = sample.annotations[pair.key(sample.depth)]
        out.append(
            f"pair word={meta['word']} tl={format_number(meta['translation_length'])}"
            f" fiber={meta['fiber_status']} residual={format_number(meta['fiber_residual'])}"
        )
        inconclusive += meta["fiber_status"] == "inconclusive"
    audit = sample.audit()
    out.append(f"audit: {'closed' if audit.closed else 'NOT CLOSED'}")
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
    epsilon = float(formats.parse_number(args.epsilon))
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
    table = MetricTable.from_tree(blended)
    result = certify_rtree(table)
    out.append(formats.format_tree(blended).rstrip("\n"))
    out.append(f"certification: {result.note}")
    if result.passes:
        out.append("RESULT: pass")
        return PASS
    witness = result.verdict.witness
    if witness is not None:
        out.append(formats.witness_line("four_point", _four_point_witness_payload(table, witness, 0)))
    out.append("RESULT: fail")
    return FAIL


def run_blend_lengths(args, out) -> int:
    lam = _parse_lambda(getattr(args, "lambda"))
    tol = formats.parse_number(args.tol)
    if args.weights0 and args.weights1:
        a0 = line_action_from_weights(args.weights0.split(","))
        a1 = line_action_from_weights(args.weights1.split(","))
        blend_action = DenseLineAction(
            {s: lam * a1.weights[s] + (1 - lam) * a0.weights[s] for s in a0.basis.symbols},
            a0.basis,
            dense_image=a0.dense_image or a1.dense_image,
        )
        lf0 = length_function_from_line_action(a0)
        lf1 = length_function_from_line_action(a1)
        lfb = length_function_from_line_action(blend_action)
        words = cyclically_reduced_words(a0.basis, args.maxlen)
    elif args.table0 and args.table1 and args.tableb:
        t0 = formats.parse_length_table(_read(args.table0))
        t1 = formats.parse_length_table(_read(args.table1))
        tb = formats.parse_length_table(_read(args.tableb))
        words = sorted(set(t0) & set(t1) & set(tb), key=lambda w: (len(w), w))
        if not words:
            raise ParameterError("length tables share no words")
        lf0, lf1, lfb = map(length_function_from_table, (t0, t1, tb))
    else:
        raise ParameterError("need --weights0/--weights1 or --table0/--table1/--tableb")
    deviation = convex_combination_length_check(lf0, lf1, lfb, lam, words)
    out.append(f"words checked: {len(words)}")
    out.append(f"max deviation: {format_number(deviation)}")
    if deviation <= tol:
        out.append("RESULT: pass")
        return PASS
    worst_word = max(
        words, key=lambda w: (abs(lfb(w) - (lam * lf1(w) + (1 - lam) * lf0(w))), w)
    )
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
    certify.set_defaults(handler=run_certify, config_keys=("tree", "table", "delta"))

    center = sub.add_parser("center", help="center of three points")
    center.add_argument("--tree", required=True)
    center.add_argument("p")
    center.add_argument("q")
    center.add_argument("r")
    center.set_defaults(handler=run_center, config_keys=("tree", "p", "q", "r"))

    segment = sub.add_parser("segment", help="the arc between two points")
    segment.add_argument("--tree", required=True)
    segment.add_argument("p")
    segment.add_argument("q")
    segment.set_defaults(handler=run_segment, config_keys=("tree", "p", "q"))

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
    liminf_p.add_argument("--tol", default="1e-9")
    liminf_p.set_defaults(
        handler=run_observers_liminf,
        config_keys=("tree", "line", "multipod", "seq", "depth", "basepoint", "head", "tol"),
    )

    conv = obs_sub.add_parser("converge")
    add_oracle_flags(conv)
    conv.add_argument("--limit", required=True)
    conv.add_argument("--probes", required=True, help="directions file or auto:<k>")
    conv.set_defaults(
        handler=run_observers_converge,
        config_keys=("tree", "line", "multipod", "seq", "depth", "limit", "probes"),
    )

    extract = obs_sub.add_parser("extract")
    add_oracle_flags(extract)
    extract.add_argument("--dirs", required=True, help="directions file or auto:<k>")
    extract.add_argument("--basepoint", default=None)
    extract.set_defaults(
        handler=run_observers_extract,
        config_keys=("tree", "line", "multipod", "seq", "depth", "dirs", "basepoint"),
    )

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
    estimate.set_defaults(
        handler=run_qmap_estimate,
        config_keys=("weights", "action", "word", "basepoint", "depth", "tol"),
    )

    fibers = qmap_sub.add_parser("fibers")
    add_action_flags(fibers)
    fibers.add_argument("--pair", help="'X | Y' inline")
    fibers.add_argument("--pairs", help="file of 'X | Y' lines")
    fibers.add_argument("--depth", type=int, default=10_000)
    fibers.add_argument("--tol", default="1e-6")
    fibers.set_defaults(
        handler=run_qmap_fibers,
        config_keys=("weights", "action", "pair", "pairs", "depth", "tol"),
    )

    lam_p = qmap_sub.add_parser("lamination")
    add_action_flags(lam_p)
    lam_p.add_argument("--epsilon", required=True)
    lam_p.add_argument("--maxlen", type=int, required=True)
    lam_p.add_argument("--depth", type=int, default=1000)
    lam_p.add_argument("--tol", default="1e-6")
    lam_p.set_defaults(
        handler=run_qmap_lamination,
        config_keys=("weights", "action", "epsilon", "maxlen", "depth", "tol"),
    )

    small = qmap_sub.add_parser("smallwords")
    add_action_flags(small)
    small.add_argument("--epsilon", required=True)
    small.add_argument("--maxlen", type=int, required=True)
    small.set_defaults(
        handler=run_qmap_smallwords,
        config_keys=("weights", "action", "epsilon", "maxlen"),
    )

    blend_p = sub.add_parser("blend", help="convex combinations of tree metrics")
    blend_sub = blend_p.add_subparsers(dest="subcommand", required=True)

    metric = blend_sub.add_parser("metric")
    metric.add_argument("--pair", required=True, help="two-column shape file")
    metric.add_argument("--lambda", required=True)
    metric.set_defaults(handler=run_blend_metric, config_keys=("pair", "lambda"))

    lengths = blend_sub.add_parser("lengths")
    lengths.add_argument("--weights0")
    lengths.add_argument("--weights1")
    lengths.add_argument("--table0")
    lengths.add_argument("--table1")
    lengths.add_argument("--tableb")
    lengths.add_argument("--lambda", required=True)
    lengths.add_argument("--maxlen", type=int, default=6)
    lengths.add_argument("--tol", default="0")
    lengths.set_defaults(
        handler=run_blend_lengths,
        config_keys=(
            "weights0",
            "weights1",
            "table0",
            "table1",
            "tableb",
            "lambda",
            "maxlen",
            "tol",
        ),
    )

    axioms = blend_sub.add_parser("axioms")
    axioms.add_argument("--marking", required=True, help="e.g. a:a,b:ba")
    axioms.add_argument("--marking0", default=None)
    axioms.add_argument("--lambda-grid", dest="lambda_grid", default="0:1:1/10")
    axioms.add_argument("--maxlen", type=int, default=6)
    axioms.set_defaults(
        handler=run_blend_axioms,
        config_keys=("marking", "marking0", "lambda_grid", "maxlen"),
    )

    replay = sub.add_parser("replay", help="re-verify witnesses from a report")
    replay.add_argument("report")
    replay.set_defaults(handler=run_replay, config_keys=("report",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return BAD_PARAMS
    out: list[str] = []
    name = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    out.append(f"rtreelab {name}")
    _echo_config(out, args, args.config_keys)
    try:
        code = args.handler(args, out)
    except FormatError as exc:
        print("\n".join(out))
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except ParameterError as exc:
        print("\n".join(out))
        print(f"parameter error: {exc}", file=sys.stderr)
        return BAD_PARAMS
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


if __name__ == "__main__":
    sys.exit(main())
