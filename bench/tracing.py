"""Traced mode: spans around each layer's public functions, from outside.

``Tracer.install`` replaces every binding of a listed function with a
wrapper: the attribute of the defining module, each rtreelab module that
imported the name (``cli.certify_rtree``, ``blend.check_hyperbolic``,
``hyperbolicity.check_hyperbolic`` ...), and the package itself.  A binding
is any module attribute that *is* the original function object.  Methods
are wrapped once, on their class.

A span records its group, start, end, parent span and op id.  Spans stay in
memory (compact arrays) until the run ends.  A group's self time is the
sum of its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# group -> "module:qualname" targets; the group's layer is its first part
SPANS = {
    "tree.build": ["tree:MetricTree.__init__"],
    "tree.query": [
        f"tree:MetricTree.{m}"
        for m in ("distance", "center", "segment", "point_along", "midpoint", "name_of", "same_point", "gromov_product")
    ],
    "hyperbolicity.table": ["hyperbolicity:MetricTable.__init__", "hyperbolicity:MetricTable.from_tree"],
    "hyperbolicity.check": ["hyperbolicity:check_hyperbolic"],
    "hyperbolicity.first_violation": ["hyperbolicity:first_violation"],
    "hyperbolicity.defect": ["hyperbolicity:max_four_point_defect"],
    "hyperbolicity.reconstruct": ["hyperbolicity:reconstruct_tree"],
    "observers.liminf": ["observers:liminf_from"],
    "observers.converge": ["observers:converges_obs"],
    "observers.extract": ["observers:extract_convergent_subsequence"],
    "observers.subbasis": ["observers:subbasis_from_sample"],
    "observers.shape_map": ["observers:verify_shape_map"],
    "oracles.center": [f"oracles:{c}.center" for c in ("FiniteTreeOracle", "LineOracle", "MultipodOracle")],
    "words.enumerate": ["words:reduced_words", "words:cyclically_reduced_words"],
    "boundary.prefix": ["boundary:BoundaryPoint.prefix"],
    "boundary.act": ["boundary:act", "boundary:act_pair"],
    "boundary.audit": ["boundary:LaminationSample.audit"],
    "qmap.estimate": ["qmap:qmap_estimate"],
    "qmap.fiber": ["qmap:q_fiber_check"],
    "qmap.lamination": ["qmap:dual_lamination_sample"],
    "qmap.smallwords": ["qmap:small_words_search"],
    "blend.axiom_scan": ["blend:rose_blend_axiom_scan", "blend:length_axiom_check"],
    "blend.nielsen": ["blend:nielsen_generates"],
    "blend.certify": ["blend:certify_rtree"],
    "blend.blend_metric": ["blend:blend_metric"],
    "blend.length_check": ["blend:convex_combination_length_check"],
    "formats.parse": [
        f"formats:{f}"
        for f in ("parse_tree", "parse_table", "parse_sequence", "parse_directions", "parse_oracle_point",
                  "parse_pair_file", "parse_action_file", "parse_length_table", "parse_boundary_pairs")
    ],
    "formats.witness": ["formats:witness_line", "formats:parse_witness_lines", "formats:replay_witness"],
}

# hot functions get a call counter only; their time stays with the caller
COUNTS = {
    "oracles.points_equal": [f"oracles:{c}.points_equal" for c in ("FiniteTreeOracle", "LineOracle", "MultipodOracle")],
    "words.reduce": ["words:reduce_word"],
}

# counts read off a target's results (every enumeration goes through reduced_words)
RESULT_COUNTS = {
    "words:reduced_words": ("words.enumerated", len),
    "qmap:qmap_estimate": ("qmap.drift", lambda result: result.method == "drift"),
}

SCAN_GROUPS = ("hyperbolicity.check", "hyperbolicity.first_violation", "hyperbolicity.defect")

# (metric, unit, group, statistic)
METRICS = [
    ("tree.build_calls", "count", "tree.build", "calls"),
    ("tree.build_s", "s", "tree.build", "self"),
    ("tree.builds_per_op", "builds/op", "tree.build", "per_op"),
    ("tree.query_calls", "count", "tree.query", "calls"),
    ("tree.query_s", "s", "tree.query", "self"),
    ("hyperbolicity.table_s", "s", "hyperbolicity.table", "self"),
    ("hyperbolicity.check_calls", "count", "hyperbolicity.check", "calls"),
    ("hyperbolicity.check_s", "s", "hyperbolicity.check", "self"),
    ("hyperbolicity.first_violation_s", "s", "hyperbolicity.first_violation", "self"),
    ("hyperbolicity.defect_s", "s", "hyperbolicity.defect", "self"),
    ("hyperbolicity.reconstruct_s", "s", "hyperbolicity.reconstruct", "self"),
    ("hyperbolicity.scans_per_op", "scans/op", None, "scans_per_op"),
    ("observers.liminf_calls", "count", "observers.liminf", "calls"),
    ("observers.liminf_s", "s", "observers.liminf", "self"),
    ("observers.converge_s", "s", "observers.converge", "self"),
    ("observers.extract_s", "s", "observers.extract", "self"),
    ("observers.subbasis_s", "s", "observers.subbasis", "self"),
    ("observers.shape_map_s", "s", "observers.shape_map", "self"),
    ("oracles.center_calls", "count", "oracles.center", "calls"),
    ("oracles.center_s", "s", "oracles.center", "self"),
    ("oracles.points_equal_calls", "count", "oracles.points_equal", "count"),
    ("words.enumerate_s", "s", "words.enumerate", "self"),
    ("words.enumerated", "count", "words.enumerated", "count"),
    ("words.reduce_calls", "count", "words.reduce", "count"),
    ("boundary.prefix_s", "s", "boundary.prefix", "self"),
    ("boundary.act_s", "s", "boundary.act", "self"),
    ("boundary.audit_s", "s", "boundary.audit", "self"),
    ("qmap.estimate_calls", "count", "qmap.estimate", "calls"),
    ("qmap.estimate_s", "s", "qmap.estimate", "self"),
    ("qmap.fiber_s", "s", "qmap.fiber", "self"),
    ("qmap.lamination_s", "s", "qmap.lamination", "self"),
    ("qmap.smallwords_s", "s", "qmap.smallwords", "self"),
    ("blend.axiom_scan_s", "s", "blend.axiom_scan", "self"),
    ("blend.nielsen_s", "s", "blend.nielsen", "self"),
    ("blend.certify_s", "s", "blend.certify", "self"),
    ("blend.blend_metric_s", "s", "blend.blend_metric", "self"),
    ("blend.length_check_s", "s", "blend.length_check", "self"),
    ("formats.parse_s", "s", "formats.parse", "self"),
    ("formats.witness_s", "s", "formats.witness", "self"),
    ("cli.self_s", "s", "cli", "self"),
]

LAYERS = ("tree", "hyperbolicity", "observers", "oracles", "words", "boundary", "qmap", "blend", "formats", "cli")


def _resolve(target: str):
    module, qualname = target.split(":")
    owner = importlib.import_module(f"rtreelab.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.groups = ["cli"] + list(SPANS)
        self.group_of, self.t0, self.t1 = array("H"), array("d"), array("d")
        self.parent, self.op_of = array("l"), array("l")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------------

    def _span(self, fn, gid, on_result=None):
        group_of, t0s, t1s, parents, op_of, stack = (
            self.group_of, self.t0, self.t1, self.parent, self.op_of, self._stack)

        def wrapper(*args, **kwargs):
            sid = len(group_of)
            group_of.append(gid)
            parents.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, main):
        """Wrap the CLI entry point: one root span per op."""
        span = self._span(main, 0)

        def op_wrapper(argv):
            self.op += 1
            return span(argv)

        return op_wrapper

    # -- installation ----------------------------------------------------------------

    def _replace(self, target: str, make):
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(owner, attr)
        new = make(original)
        for name, module in list(sys.modules.items()):
            if name == "rtreelab" or name.startswith("rtreelab."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, new)

    def install(self) -> None:
        for gid, group in enumerate(self.groups):
            for target in SPANS.get(group, ()):
                hook = None
                if target in RESULT_COUNTS:
                    key, count = RESULT_COUNTS[target]

                    def hook(result, key=key, count=count):
                        self.counts[key] += count(result)

                self._replace(target, lambda fn, gid=gid, hook=hook: self._span(fn, gid, hook))
        for key, targets in COUNTS.items():
            for target in targets:
                self._replace(target, lambda fn, key=key: self._counter(fn, key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------------

    def report(self):
        """Per-layer metrics (name -> (value, unit)) and each layer's self time."""
        n = len(self.group_of)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.t1[sid] - self.t0[sid]
        calls, self_s = Counter(), Counter()
        scans, scan_ops = 0, set()
        scan_ids = {self.groups.index(g) for g in SCAN_GROUPS}
        for sid in range(n):
            g = self.group_of[sid]
            calls[self.groups[g]] += 1
            self_s[self.groups[g]] += self.t1[sid] - self.t0[sid] - child[sid]
            if g in scan_ids:
                scans += 1
                scan_ops.add(self.op_of[sid])
        metrics = {}
        for name, unit, group, stat in METRICS:
            if stat == "calls":
                value = calls[group]
            elif stat == "self":
                value = self_s[group]
            elif stat == "count":
                value = self.counts[group]
            elif stat == "per_op":
                value = calls[group] / (self.op + 1)
            else:  # scans_per_op: O(n^4) scans per op that scanned at all
                value = scans / len(scan_ops) if scan_ops else 0.0
            metrics[name] = (value, unit)
        layers = {layer: sum(s for g, s in self_s.items() if g.split(".")[0] == layer) for layer in LAYERS}
        return metrics, layers

    def write(self, path) -> None:
        """Spans as tab-separated rows: group, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("group\tstart\tend\tparent\top\n")
            for sid in range(len(self.group_of)):
                fh.write(f"{self.groups[self.group_of[sid]]}\t{self.t0[sid]:.9f}\t{self.t1[sid]:.9f}"
                         f"\t{self.parent[sid]}\t{self.op_of[sid]}\n")
