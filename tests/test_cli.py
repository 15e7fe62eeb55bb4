import json
import math

import pytest

from rtreelab.cli import main
from rtreelab.words import canonical_rotation

SQRT2 = math.sqrt(2)

PATH_TREE = "edge A B 1\nedge B C 2\n"
SQUARE_TABLE = (
    "dist a b 1\ndist b c 1\ndist c d 1\ndist a d 1\ndist a c 2\ndist b d 2\n"
)
PAIR_FILE = "edge A B 1 3\nedge B C 2 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_valid_tree(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(PATH_TREE)
    code, out, _ = run_cli(capsys, "certify", "--tree", str(path))
    assert code == 0
    assert "RESULT: pass" in out
    assert "four-point defect: 0" in out


def test_certify_square_fails_with_replayable_witness(tmp_path, capsys):
    table = tmp_path / "square.metric"
    table.write_text(SQUARE_TABLE)
    code, out, _ = run_cli(capsys, "certify", "--table", str(table))
    assert code == 1
    assert "WITNESS" in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code2, out2, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0
    assert "confirmed" in out2


def test_certify_square_passes_at_delta_one(tmp_path, capsys):
    table = tmp_path / "square.metric"
    table.write_text(SQUARE_TABLE)
    code, out, _ = run_cli(capsys, "certify", "--table", str(table), "--delta", "1")
    assert code == 0


def test_certify_rejects_both_inputs(tmp_path, capsys):
    code, _, err = run_cli(capsys, "certify")
    assert code == 65


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tree"
    bad.write_text("edge A B\n")
    code, _, err = run_cli(capsys, "certify", "--tree", str(bad))
    assert code == 64
    assert "parse error" in err


def test_center_and_segment(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(PATH_TREE)
    code, out, _ = run_cli(capsys, "center", "--tree", str(path), "A", "C", "B")
    assert code == 0
    assert "center: B" in out
    code, out, _ = run_cli(capsys, "segment", "--tree", str(path), "A", "C")
    assert code == 0
    assert "total: 3" in out
    assert out.count("piece") == 2


def test_observers_liminf_line(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"{(-1) ** (n + 1)}/{1}\n" for n in range(1, 9)))
    code, out, _ = run_cli(
        capsys,
        "observers",
        "liminf",
        "--line",
        "--seq",
        str(seq),
        "--basepoint",
        "-5",
        "--depth",
        "8",
    )
    assert code == 0
    assert "liminf: -1" in out


def test_observers_converge_multipod_pass_and_refute(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"arm {n} 1\n" for n in range(12)))
    probes = tmp_path / "probes.txt"
    probes.write_text("arm:0:1/2 | hub\narm:3:1/2 | hub\narm:3:1/2 | arm:3:1\n")
    code, out, _ = run_cli(
        capsys,
        "observers",
        "converge",
        "--multipod",
        "20",
        "--seq",
        str(seq),
        "--limit",
        "hub",
        "--probes",
        str(probes),
        "--depth",
        "12",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "observers",
        "converge",
        "--multipod",
        "20",
        "--seq",
        str(seq),
        "--limit",
        "arm:3:1",
        "--probes",
        str(probes),
        "--depth",
        "12",
    )
    assert code == 1
    assert "WITNESS" in out
    report = tmp_path / "refute.txt"
    report.write_text(out)
    code2, out2, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0


def test_observers_converge_with_auto_subbasis(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"1/{n}\n" for n in range(1, 21)))
    code, out, _ = run_cli(
        capsys,
        "observers",
        "converge",
        "--line",
        "--seq",
        str(seq),
        "--limit",
        "0",
        "--probes",
        "auto:4",
        "--depth",
        "20",
    )
    assert code == 0
    assert "RESULT: pass" in out


def test_observers_extract_line(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"{(-1) ** n}\n" for n in range(10)))
    dirs = tmp_path / "dirs.txt"
    dirs.write_text("1/2 | 1\n")
    code, out, _ = run_cli(
        capsys,
        "observers",
        "extract",
        "--line",
        "--seq",
        str(seq),
        "--dirs",
        str(dirs),
        "--depth",
        "10",
        "--basepoint",
        "0",
    )
    assert code == 0
    assert "limit estimate:" in out


def test_qmap_estimate_escape(capsys):
    code, out, _ = run_cli(
        capsys,
        "qmap",
        "estimate",
        "--weights",
        "1,sqrt:2",
        "--word",
        ";a",
        "--depth",
        "100",
    )
    assert code == 0
    assert "estimate: +inf" in out
    assert "method: drift" in out


def test_qmap_estimate_at_depth_one_is_not_a_vacuous_pass(capsys):
    # one orbit term leaves nothing to compare: no certificate, no pass
    code, out, _ = run_cli(
        capsys, "qmap", "estimate", "--weights", "1,sqrt:2", "--word", ";abAB", "--depth", "1"
    )
    assert code == 2
    assert "certificate: inf" in out
    assert "RESULT: inconclusive" in out
    assert "RESULT: pass" not in out

def test_qmap_fibers_opposite_ends(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "qmap",
        "fibers",
        "--weights",
        "1,sqrt:2",
        "--pair",
        ";a | ;A",
        "--depth",
        "200",
    )
    assert code == 1
    report = tmp_path / "fibers.txt"
    report.write_text(out)
    code2, _, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0


def test_qmap_fibers_witness_with_infinite_residual_is_strict_json(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "qmap", "fibers", "--weights", "1,sqrt:2", "--pair", ";a | ;A", "--depth", "100"
    )
    assert code == 1
    assert "residual inf" in out

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    (line,) = [line for line in out.splitlines() if line.startswith("WITNESS ")]
    witness = json.loads(line[len("WITNESS ") :], parse_constant=reject)
    assert witness["residual"] == "inf"
    report = tmp_path / "fibers.txt"
    report.write_text(out)
    code2, out2, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0
    assert "confirmed" in out2


def test_qmap_smallwords_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "qmap",
        "smallwords",
        "--weights",
        "1,sqrt:2",
        "--maxlen",
        "5",
        "--epsilon",
        "0.2",
    )
    assert code == 0
    assert canonical_rotation("aaaBB") in out
    assert canonical_rotation("abAB") in out


def test_qmap_lamination(capsys):
    code, out, _ = run_cli(
        capsys,
        "qmap",
        "lamination",
        "--weights",
        "1,sqrt:2",
        "--epsilon",
        "0.2",
        "--maxlen",
        "4",
        "--depth",
        "200",
    )
    assert code == 0
    assert "audit: closed" in out


def test_blend_metric(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE)
    code, out, _ = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "1/2")
    assert code == 0
    assert "edge A B 2" in out
    assert "edge B C 3/2" in out


def test_blend_metric_rejects_bad_lambda(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE)
    code, _, err = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "3/2")
    assert code == 65


def test_blend_lengths_table_mismatch_emits_replayable_witness(tmp_path, capsys):
    (tmp_path / "t0.txt").write_text("a 1\nb 1\n")
    (tmp_path / "t1.txt").write_text("a 3\nb 1\n")
    (tmp_path / "tb.txt").write_text("a 5\nb 1\n")  # not the affine combination
    code, out, _ = run_cli(
        capsys,
        "blend",
        "lengths",
        "--table0",
        str(tmp_path / "t0.txt"),
        "--table1",
        str(tmp_path / "t1.txt"),
        "--tableb",
        str(tmp_path / "tb.txt"),
        "--lambda",
        "1/2",
    )
    assert code == 1
    assert "WITNESS" in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code2, out2, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0


def test_blend_lengths_proportional_weights(capsys):
    code, out, _ = run_cli(
        capsys,
        "blend",
        "lengths",
        "--weights0",
        "1,3",
        "--weights1",
        "2,6",
        "--lambda",
        "3/10",
        "--maxlen",
        "5",
    )
    assert code == 0
    assert "max deviation: 0" in out


def test_blend_axioms_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "blend",
        "axioms",
        "--marking",
        "a:a,b:ba",
        "--lambda-grid",
        "0:1:1/2",
        "--maxlen",
        "3",
    )
    assert code in (0, 1)
    assert out.count("lambda ") == 3


def test_action_file_input(tmp_path, capsys):
    action = tmp_path / "act.txt"
    action.write_text("line\nweight a 1\nweight b sqrt:2\n")
    code, out, _ = run_cli(
        capsys, "qmap", "estimate", "--action", str(action), "--word", ";A", "--depth", "50"
    )
    assert code == 0
    assert "estimate: -inf" in out


def test_reports_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(PATH_TREE)
    argv = ["certify", "--tree", str(path)]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_format_mode(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(PATH_TREE)
    code, out, _ = run_cli(capsys, "--format", "table", "certify", "--tree", str(path))
    assert code == 0
    assert "\t" in out
    assert not out.startswith("rtreelab")


def test_replay_without_witnesses_is_parse_error(tmp_path, capsys):
    report = tmp_path / "empty.txt"
    report.write_text("nothing here\n")
    code, _, _ = run_cli(capsys, "replay", str(report))
    assert code == 64


def test_observers_liminf_inconclusive_exit(tmp_path, capsys):
    # strictly growing sequence: the tail endpoint keeps moving, so the
    # stabilization certificate stays large
    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"{2 ** n}\n" for n in range(10)))
    code, out, _ = run_cli(
        capsys,
        "observers",
        "liminf",
        "--line",
        "--seq",
        str(seq),
        "--basepoint",
        "0",
        "--depth",
        "10",
    )
    assert code == 2
    assert "inconclusive" in out


# -- pinned certify reports ------------------------------------------------------------

POINTED_TREE = "edge A B 1\nedge B C 2\nedge B D 3/2\npoint M B C 1/2\n"
# all distances of the tree a-h 2, b-h 3, h-k 1, c-k 2, d-k 5/2
TREE_TABLE = (
    "dist a b 5\ndist a c 5\ndist a d 11/2\ndist a h 2\ndist a k 3\n"
    "dist b c 6\ndist b d 13/2\ndist b h 3\ndist b k 4\ndist c d 9/2\n"
    "dist c h 3\ndist c k 2\ndist d h 7/2\ndist d k 5/2\ndist h k 1\n"
)
# the same with d(a,c) shortened by 1/2: four-point defect 1/4
SHORTENED_TABLE = TREE_TABLE.replace("dist a c 5\n", "dist a c 9/2\n")
SHORTENED_WITNESS = (
    '"distances": [["a", "b", "5"], ["a", "c", "9/2"], ["a", "d", "11/2"], ["b", "c", "6"],'
    ' ["b", "d", "13/2"], ["c", "d", "9/2"]], "kind": "four_point"'
)


def _certify_report(tmp_path, capsys, name, text, *flags):
    path = tmp_path / name
    path.write_text(text)
    source = "tree" if name.endswith(".tree") else "table"
    code, out, _ = run_cli(capsys, "certify", f"--{source}", str(path), *flags)
    return code, out, path


def test_certify_report_bytes_tree_pass(tmp_path, capsys):
    code, out, path = _certify_report(tmp_path, capsys, "t.tree", POINTED_TREE)
    assert code == 0
    assert out == (
        "rtreelab certify\n"
        f"config: delta=0 tree={path} seed=0\n"
        "loaded tree: 4 vertices, 3 edges\n"
        "four-point defect: 0\n"
        "realization: 0-hyperbolic; realized exactly by a finite tree\n"
        "RESULT: pass (delta=0)\n"
    )


def test_certify_report_bytes_table_pass(tmp_path, capsys):
    code, out, path = _certify_report(tmp_path, capsys, "t.metric", TREE_TABLE)
    assert code == 0
    assert out == (
        "rtreelab certify\n"
        f"config: delta=0 table={path} seed=0\n"
        "loaded table: 6 points\n"
        "four-point defect: 0\n"
        "realization: 0-hyperbolic; realized exactly by a finite tree\n"
        "RESULT: pass (delta=0)\n"
    )


def test_certify_report_bytes_fail_at_zero(tmp_path, capsys):
    code, out, path = _certify_report(tmp_path, capsys, "bad.metric", SHORTENED_TABLE)
    assert code == 1
    assert out == (
        "rtreelab certify\n"
        f"config: delta=0 table={path} seed=0\n"
        "loaded table: 6 points\n"
        "four-point defect: 1/4\n"
        "RESULT: fail -- (a,b,d;c) violates the four-point inequality by 1/4\n"
        f'WITNESS {{"delta": "0", {SHORTENED_WITNESS}, "margin": "1/4", "quadruple": ["a", "b", "d", "c"]}}\n'
    )


def test_certify_report_bytes_pass_at_defect(tmp_path, capsys):
    code, out, path = _certify_report(tmp_path, capsys, "bad.metric", SHORTENED_TABLE, "--delta", "1/4")
    assert code == 0
    assert out == (
        "rtreelab certify\n"
        f"config: delta=1/4 table={path} seed=0\n"
        "loaded table: 6 points\n"
        "four-point defect: 1/4\n"
        "RESULT: pass (delta=1/4)\n"
    )


def test_certify_report_bytes_fail_below_defect(tmp_path, capsys):
    code, out, path = _certify_report(tmp_path, capsys, "bad.metric", SHORTENED_TABLE, "--delta", "63/256")
    assert code == 1
    assert out == (
        "rtreelab certify\n"
        f"config: delta=63/256 table={path} seed=0\n"
        "loaded table: 6 points\n"
        "four-point defect: 1/4\n"
        "RESULT: fail -- (a,b,d;c) violates the four-point inequality by 1/256\n"
        f'WITNESS {{"delta": "63/256", {SHORTENED_WITNESS}, "margin": "1/256", "quadruple": ["a", "b", "d", "c"]}}\n'
    )


def test_certify_table_with_steiner_like_point_name(tmp_path, capsys):
    # a 4-point star: the first minted Steiner name would be the point '.s1'
    names = [".s1", "a", "b", "c"]
    text = "".join(f"dist {x} {y} 2\n" for i, x in enumerate(names) for y in names[i + 1 :])
    code, out, _ = _certify_report(tmp_path, capsys, "star.metric", text)
    assert code == 0
    assert "RESULT: pass (delta=0)" in out


def test_square_with_bar_in_a_point_name_replays(tmp_path, capsys):
    code, out, _ = _certify_report(tmp_path, capsys, "sq.metric", SQUARE_TABLE.replace(" a ", " a|x "))
    assert code == 1
    assert '"a|x"' in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code2, out2, _ = run_cli(capsys, "replay", str(report))
    assert code2 == 0
    assert "witness 0 (four_point): confirmed" in out2


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "path.tree"
    path.write_text(PATH_TREE)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rtreelab", "certify", "--tree", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: pass (delta=0)" in proc.stdout
