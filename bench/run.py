"""Run one benchmark workload against the rtreelab sources of this checkout.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Each op is one rtreelab command, run in-process through
``rtreelab.cli.main(argv)`` with stdout and stderr captured, one op after
another (a closed loop with one client).  The op list is a pure function of
``(workload, seed)``; the run repeats whole passes over it until the next
pass would end after ``--seconds``, and always makes at least one pass.
Every op's output is checked (see checks.py); a failed check, a wrong exit
code or an exception counts the op as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced pass and prints the per-layer metrics of the traced
pass and the tracing overhead (see tracing.py).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 5  # set-ups per run; setup_s is their median
REF_PROBE_S = 0.002  # probe time at reference speed

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)


def import_cli():
    """A fresh import of rtreelab from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "rtreelab" or m.startswith("rtreelab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rtreelab.cli

    if Path(rtreelab.__file__).resolve().parent != SRC / "rtreelab":
        raise ImportError(f"rtreelab imported from {rtreelab.__file__}, not from {SRC}")
    return rtreelab.cli


def setup(workload: str, seed: int, workdir: Path):
    """Import rtreelab, generate the inputs and write the input files."""
    t0 = perf_counter()
    cli = import_cli()
    wl = workloads.generate(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in wl.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return perf_counter() - t0, cli, wl


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop that touches no rtreelab code.

    The host's CPU speed moves by up to 2x for minutes at a time, for ops
    and probe alike, so every time is reported at reference speed: scaled
    by REF_PROBE_S over the probe time measured around it.
    """
    t0 = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 800):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        seen[f"k{i % 61}"] = total
    sorted(seen)
    return perf_counter() - t0


def speed(probes: list[float], i: int) -> float:
    """Reference-speed factor for the interval between probes i and i+1:
    the median of the nearest four probes, so one disturbed probe is
    outvoted."""
    return REF_PROBE_S / statistics.median(probes[max(0, i - 1) : i + 3])


def run_pass(main, ops):
    """Run every op once (cwd is the input directory), with a probe before
    the first op and after each.  Returns the probe times and, per op, the
    latency in reference-speed seconds, the failure reason (None when the
    output checks out), the exit code and the stdout."""
    probes, raw, saved = [probe()], [], set()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        # every op starts from an empty young generation, as a fresh process
        # would, so collections inside it do not depend on the op before
        gc.collect()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(op.argv))
            except (Exception, SystemExit) as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        stdout = out.getvalue()
        if op.save_as:
            with open(op.save_as, "a" if op.save_as in saved else "w", encoding="utf-8") as fh:
                fh.write(stdout)
            saved.add(op.save_as)
        if isinstance(code, str):
            reason = code
        else:
            try:
                reason = op.check(code, stdout, op.expected)
            except Exception as exc:  # a malformed output is a failed op
                reason = f"check raised {type(exc).__name__}: {exc}"
        raw.append((latency, reason, code, stdout))
        probes.append(probe())
    results = [(lat * speed(probes, i), *rest) for i, (lat, *rest) in enumerate(raw)]
    return probes, results


def op_mix(wl) -> list[str]:
    kinds: dict[str, list[int]] = {}
    for op in wl.ops:
        kinds.setdefault(op.kind, []).append(op.size)
    n = len(wl.ops)
    lines = [f"op mix: {n} ops per pass; {sum(op.fails for op in wl.ops) / n:.0%} expect a certified failure"]
    for kind, sizes in sorted(kinds.items()):
        lines.append(f"  {kind:20s} {len(sizes):4d} ({len(sizes) / n:4.0%})  size {min(sizes)}-{max(sizes)}"
                     f" median {statistics.median(sizes):g}")
    lines += [f"  {key}: {value}" for key, value in wl.notes.items()]
    return lines


def report_failures(results, ops) -> None:
    shown = 0
    for (_, reason, _, _), op in zip(results, ops):
        if reason is not None and shown < 10:
            print(f"FAILED {op.kind} {' '.join(op.argv)}: {reason}")
            shown += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    cwd = Path.cwd()
    try:
        setup_times, probes = [], [probe()]
        for _ in range(SETUPS):
            elapsed, cli, wl = setup(args.workload, args.seed, workdir)
            probes.append(probe())
            setup_times.append(elapsed * REF_PROBE_S / statistics.mean(probes[-2:]))
        os.chdir(workdir)
        gc.collect()
        gc.freeze()  # the inputs and expected answers stay out of every collection
        if args.trace:
            metrics, attempted, failed = traced_run(cli, wl, args)
        else:
            metrics, attempted, failed = timed_run(cli, wl, args)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s")} | metrics
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:12.4f} {unit}")
    for line in op_mix(wl):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_run(cli, wl, args):
    """Whole passes over the op list, another one only while it is expected
    to end within --seconds (at least one pass)."""
    latencies, failed, passes = [], 0, 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        _, results = run_pass(cli.main, wl.ops)
        report_failures(results, wl.ops)
        latencies += [r[0] for r in results]
        failed += sum(r[1] is not None for r in results)
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {passes} passes of {len(wl.ops)} ops"
          f" in {perf_counter() - start:.2f} s of wall time")
    print(f"  op_error_ratio {failed / n:g} ({failed} of {n} ops failed)")
    print(f"  latency samples {n}; {sum(l > p90 for l in latencies)} beyond op_p90_ms")
    return metrics, n, failed


def traced_run(cli, wl, args):
    """One untraced and one traced pass.  Span times are scaled to reference
    speed by the traced pass's median probe."""
    from tracing import Tracer

    _, plain = run_pass(cli.main, wl.ops)
    tracer = Tracer()
    tracer.install()
    try:
        probes, traced = run_pass(tracer.root(cli.main), wl.ops)
    finally:
        tracer.uninstall()
    report_failures(plain, wl.ops)
    report_failures(traced, wl.ops)
    failed = sum(r[1] is not None for r in plain + traced)
    # tracing must not change what the program does
    differ = sum((a[2], a[3]) != (b[2], b[3]) for a, b in zip(plain, traced))
    if differ:
        print(f"TRACE MISMATCH: {differ} ops differ between the untraced and the traced pass")
    untraced_s, traced_s = sum(r[0] for r in plain), sum(r[0] for r in traced)
    factor = REF_PROBE_S / statistics.median(probes)
    metrics, layers = tracer.report()
    metrics = {name: (value * factor if unit == "s" else value, unit) for name, (value, unit) in metrics.items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layers = {layer: s * factor for layer, s in layers.items()}
    total = sum(layers.values()) or 1.0
    print(f"workload {args.workload} seed {args.seed}: untraced pass {untraced_s:.2f} s,"
          f" traced pass {traced_s:.2f} s (reference speed), {len(tracer.group_of)} spans")
    print(f"  qmap_estimate calls on the drift route: {tracer.counts['qmap.drift']}"
          f" of {metrics['qmap.estimate_calls'][0]}")
    print("  layer self time: " + ", ".join(
        f"{layer} {s:.3f} s ({s / total:.0%})" for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.tsv")
    return metrics, len(plain) + len(traced), failed + differ


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        sys.exit(2)
