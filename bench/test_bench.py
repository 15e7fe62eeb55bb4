"""Tests of the benchmark itself: seeded generators, output checks that catch
corrupted outputs, and tracing that leaves op outcomes unchanged.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

import checks as C
import run
import workloads
from tracing import Tracer


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def execute(cli, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def prepared(workload, tmp_path, monkeypatch, seed=3):
    wl = workloads.generate(workload, seed)
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return wl


def first(wl, kind, pred=lambda op: True):
    return min((op for op in wl.ops if op.kind == kind and pred(op)), key=lambda op: op.size)


def signature(wl):
    return wl.files, [(op.kind, op.argv, op.save_as, op.size, op.fails) for op in wl.ops]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    a, b = workloads.generate(workload, 11), workloads.generate(workload, 11)
    assert signature(a) == signature(b)
    assert signature(a) != signature(workloads.generate(workload, 12))
    assert len(a.ops) >= 100


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_sizes_do_not_depend_on_the_seed(workload):
    sizes = [sorted((op.kind, op.size) for op in workloads.generate(workload, s).ops) for s in (1, 2)]
    assert sizes[0] == sizes[1]


def test_center_check_rejects_a_wrong_center(cli, tmp_path, monkeypatch):
    wl = prepared("geodesics", tmp_path, monkeypatch)
    op = first(wl, "center")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    wrong = next(n for n in op.expected["tree"].names if n != op.expected["center"])
    bad = re.sub(r"^center: .*$", f"center: {wrong}", out, flags=re.M)
    assert op.check(code, bad, op.expected) is not None


def test_segment_and_liminf_checks_reject_wrong_answers(cli, tmp_path, monkeypatch):
    wl = prepared("geodesics", tmp_path, monkeypatch)
    op = first(wl, "segment")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    assert op.check(code, re.sub(r"^total: .*$", "total: 1/7", out, flags=re.M), op.expected) is not None
    op = first(wl, "liminf-line")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    assert op.check(code, re.sub(r"^liminf: .*$", "liminf: 12345", out, flags=re.M), op.expected) is not None


def test_converge_check_rejects_a_witness_that_does_not_exit(cli, tmp_path, monkeypatch):
    wl = prepared("geodesics", tmp_path, monkeypatch)
    op = first(wl, "converge-line", lambda op: op.fails)
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    line = next(l for l in out.splitlines() if l.startswith(C.WITNESS_PREFIX))
    payload = json.loads(line[len(C.WITNESS_PREFIX):])
    payload["d_rep_term"] = "0"
    bad = out.replace(line, C.WITNESS_PREFIX + json.dumps(payload))
    assert op.check(code, bad, op.expected) is not None


def test_refute_check_rejects_an_altered_margin_or_distance(cli, tmp_path, monkeypatch):
    wl = prepared("refute", tmp_path, monkeypatch)
    op = first(wl, "certify-fail")
    code, out = execute(cli, op)
    assert code == 1 and op.check(code, out, op.expected) is None
    line = next(l for l in out.splitlines() if l.startswith(C.WITNESS_PREFIX))
    payload = json.loads(line[len(C.WITNESS_PREFIX):])
    margin = dict(payload, margin=C.fmt(C.Fraction(payload["margin"]) * 2))
    assert op.check(code, out.replace(line, C.WITNESS_PREFIX + json.dumps(margin)), op.expected) is not None
    key = next(iter(payload["distances"]))
    moved = dict(payload, distances=dict(payload["distances"], **{key: "1000"}))
    assert op.check(code, out.replace(line, C.WITNESS_PREFIX + json.dumps(moved)), op.expected) is not None
    # the same witness as [x, y, value] rows is accepted
    rows = [[*k.split("|"), v] for k, v in payload["distances"].items()]
    as_rows = out.replace(line, C.WITNESS_PREFIX + json.dumps(dict(payload, distances=rows)))
    assert op.check(code, as_rows, op.expected) is None


def test_estimate_check_rejects_a_flipped_ray(cli):
    wl = workloads.generate("freegroup", 3)
    op = first(wl, "qmap-estimate", lambda op: op.expected["method"] == "drift")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    ray = C.field(out, "estimate")
    flipped = out.replace(f"estimate: {ray}", f"estimate: {'-inf' if ray == '+inf' else '+inf'}")
    assert op.check(code, flipped, op.expected) is not None
    op = first(wl, "qmap-estimate", lambda op: op.expected["method"] == "liminf")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    assert op.check(code, re.sub(r"^estimate: .*$", "estimate: 999", out, flags=re.M), op.expected) is not None


def test_axiom_check_rejects_a_tampered_value(cli):
    op = workloads.Op("blend-axioms", ["blend", "axioms", "--marking", "a:abb,b:b", "--lambda-grid", "0:1:1/2",
                                       "--maxlen", "3"], C.check_axioms,
                      {"marking": {"a": "abb", "b": "b"}, "grid": [C.Fraction(0), C.Fraction(1, 2), C.Fraction(1)]})
    code, out = execute(cli, op)
    assert code == 1 and op.check(code, out, op.expected) is None
    line = next(l for l in out.splitlines() if l.startswith(C.WITNESS_PREFIX))
    payload = json.loads(line[len(C.WITNESS_PREFIX):])
    # still a violation of its own inequality, but not the blend's value
    tampered = dict(payload, values=dict(payload["values"], uv=C.fmt(C.Fraction(payload["values"]["uv"]) + 1)))
    bad = out.replace(line, C.WITNESS_PREFIX + json.dumps(tampered))
    assert op.check(code, bad, op.expected) is not None


def test_word_checks_reject_wrong_classes(cli):
    wl = workloads.generate("freegroup", 3)
    op = first(wl, "qmap-smallwords")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    row = next(l for l in out.splitlines() if l.count("\t") == 3 and not l.startswith("word"))
    assert op.check(code, out.replace(row + "\n", ""), op.expected) is not None
    word, length, tl, _ = row.split("\t")
    assert op.check(code, out.replace(row, f"{word}\t{length}\t{tl}\t9,9"), op.expected) is not None
    op = first(wl, "qmap-lamination")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    pair = next(l for l in out.splitlines() if l.startswith("pair word="))
    assert op.check(code, out.replace(pair + "\n", "", 1), op.expected) is not None


def test_blend_checks_reject_wrong_lengths(cli, tmp_path, monkeypatch):
    wl = prepared("certify", tmp_path, monkeypatch)
    op = first(wl, "blend-metric")
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    edge = next(l for l in out.splitlines() if l.startswith("edge "))
    assert op.check(code, out.replace(edge, edge + "1"), op.expected) is not None
    wl = workloads.generate("freegroup", 3)
    op = first(wl, "blend-lengths", lambda op: op.fails)
    code, out = execute(cli, op)
    assert op.check(code, out, op.expected) is None
    assert op.check(code, re.sub(r"^max deviation: .*$", "max deviation: 0", out, flags=re.M), op.expected)


def test_traced_and_untraced_runs_give_identical_outcomes(cli, tmp_path, monkeypatch):
    ops = []
    for workload in sorted(workloads.GENERATORS):
        wl = workloads.generate(workload, 5)
        for name, text in wl.files.items():
            (tmp_path / name).write_text(text)
        chosen = {}
        for op in wl.ops:
            if op.kind != "replay" and (op.kind not in chosen or op.size < chosen[op.kind].size):
                chosen[op.kind] = op
        saved = {op.save_as for op in chosen.values()}
        ops += list(chosen.values()) + [op for op in wl.ops if op.kind == "replay" and op.argv[1] in saved]
    monkeypatch.chdir(tmp_path)
    ops.sort(key=lambda op: op.kind == "replay")  # replays read reports saved earlier
    _, plain = run.run_pass(cli.main, ops)
    original = cli.certify_rtree
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.certify_rtree is not original
        _, traced = run.run_pass(tracer.root(cli.main), ops)
    finally:
        tracer.uninstall()
    assert cli.certify_rtree is original
    assert [r[1] for r in plain] == [None] * len(ops)
    assert [(r[2], r[3]) for r in plain] == [(r[2], r[3]) for r in traced]
    metrics, layers = tracer.report()
    assert metrics["hyperbolicity.check_calls"][0] > 0 and metrics["qmap.estimate_calls"][0] > 0
    assert metrics["words.enumerated"][0] > 0 and tracer.op + 1 == len(ops)
    assert all(s > -1e-9 for s in layers.values())
