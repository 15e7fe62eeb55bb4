import json
import math
import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rtreelab.cli import main
from rtreelab.formats import FormatError, format_number

import helpers
from helpers import canonical_rotation

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


def test_qmap_smallwords_with_dependent_radicands_finds_exact_zeros(capsys):
    # sqrt:8 is 2*sqrt:2, so aaB translates by exactly 0
    code, out, _ = run_cli(
        capsys, "qmap", "smallwords", "--weights", "sqrt:2,sqrt:8", "--epsilon", "1/10", "--maxlen", "3"
    )
    assert code == 0
    assert out.splitlines()[2:] == [
        "word\tlength\ttranslation_length\tabelianization",
        "AAb\t3\t0\t-2,1",
        "Baa\t3\t0\t2,-1",
        "RESULT: pass (2 classes)",
    ]
    assert canonical_rotation("aaB") == "Baa"


@pytest.mark.parametrize("weight", ["sqrt:-2", "sqrt:two", "sqrt:1/2", "1/0", "1e7007007007"])
def test_qmap_rejects_a_bad_weight_literal_as_a_parse_error(weight, capsys):
    code, out, err = run_cli(capsys, "qmap", "estimate", "--weights", f"1,{weight}", "--word", ";ab")
    assert code == 64
    assert "RESULT" not in out and err.startswith(f"parse error: bad weight '{weight}'")


def test_qmap_estimate_reports_exact_irrational_values(capsys):
    code, out, _ = run_cli(
        capsys, "qmap", "estimate", "--weights", "1,sqrt:2", "--word", "b;aabAAB", "--depth", "3000"
    )
    assert code == 0
    # the limit is sqrt 2, printed as its correctly rounded float; the
    # certificate is exactly 0
    assert "estimate: 1.4142135623730951\n" in out and "certificate: 0\n" in out


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


def test_blend_lengths_with_a_sqrt_weight_finds_no_false_violation(capsys):
    # every word's blend equals its affine combination exactly (bbba: 13/3 +
    # 2*sqrt 2 on both sides), where float sums read a deviation of 8.88e-16
    code, out, _ = run_cli(
        capsys, "blend", "lengths", "--weights0", "1,sqrt:2", "--weights1", "2,3",
        "--lambda", "1/3", "--maxlen", "4",
    )
    assert code == 0
    assert out.splitlines()[2:] == ["words checked: 128", "max deviation: 0", "RESULT: pass"]


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
    assert code == 0
    assert out == (
        "rtreelab blend axioms\n"
        "config: lambda_grid=0:1:1/2 marking=a:a,b:ba maxlen=3 seed=0\n"
        "lambda 0: no violation found (words <= 3)\n"
        "lambda 1/2: no violation found (words <= 3)\n"
        "lambda 1: no violation found (words <= 3)\n"
        "RESULT: pass (0 violating lambdas)\n"
    )
    assert out.count("lambda ") == 3


AXIOMS_REPORTS = {
    "a:a,b:ba": (
        0,
        "lambda 0: no violation found (words <= 4)\n"
        "lambda 1/4: no violation found (words <= 4)\n"
        "lambda 1/2: no violation found (words <= 4)\n"
        "lambda 3/4: no violation found (words <= 4)\n"
        "lambda 1: no violation found (words <= 4)\n"
        "RESULT: pass (0 violating lambdas)\n",
    ),
    "a:abb,b:b": (
        1,
        "lambda 0: no violation found (words <= 4)\n"
        "lambda 1/4: VIOLATION u=A v=BAb uv=9/2 uv_inv=4 bound=3\n"
        'WITNESS {"axiom": "product", "kind": "axiom", "u": "A", "v": "BAb", "values":'
        ' {"u": "3/2", "uv": "9/2", "uv_inv": "4", "v": "3/2"}}\n'
        "lambda 1/2: VIOLATION u=A v=BAb uv=5 uv_inv=4 bound=4\n"
        'WITNESS {"axiom": "product", "kind": "axiom", "u": "A", "v": "BAb", "values":'
        ' {"u": "2", "uv": "5", "uv_inv": "4", "v": "2"}}\n'
        "lambda 3/4: VIOLATION u=A v=BAb uv=11/2 uv_inv=4 bound=5\n"
        'WITNESS {"axiom": "product", "kind": "axiom", "u": "A", "v": "BAb", "values":'
        ' {"u": "5/2", "uv": "11/2", "uv_inv": "4", "v": "5/2"}}\n'
        "lambda 1: no violation found (words <= 4)\n"
        "RESULT: fail (3 violating lambdas)\n",
    ),
}


@pytest.mark.parametrize("marking", sorted(AXIOMS_REPORTS))
def test_blend_axioms_report_bytes(marking, capsys):
    code, out, _ = run_cli(
        capsys, "blend", "axioms", "--marking", marking, "--lambda-grid", "0:1:1/4", "--maxlen", "4"
    )
    expected_code, body = AXIOMS_REPORTS[marking]
    assert code == expected_code
    assert out == (
        "rtreelab blend axioms\n"
        f"config: lambda_grid=0:1:1/4 marking={marking} maxlen=4 seed=0\n" + body
    )


LENGTHS_REPORTS = {
    # rational weights: every value is exact
    "1/2,3 -2,1/6 7/10 4": (
        "words checked: 128\n"
        "max deviation: 21/5\n"
        "RESULT: fail -- blend is not the affine combination (word bbaa)\n"
        'WITNESS {"blend": "7/15", "kind": "affine_deviation", "lambda": "7/10", "lf0": "7",'
        ' "lf1": "11/3", "tol": "0", "word": "bbaa"}\n'
    ),
    # a sqrt weight: the deviation 3 is first met at the rational word aaa,
    # and baa, the largest word that meets it, has irrational values, which
    # the witness carries as correctly rounded floats
    "1,sqrt:2 -2,1 1/2 3": (
        "words checked: 44\n"
        "max deviation: 3\n"
        "RESULT: fail -- blend is not the affine combination (word baa)\n"
        'WITNESS {"blend": 0.20710678118654752, "kind": "affine_deviation", "lambda": "1/2",'
        ' "lf0": 3.414213562373095, "lf1": "3", "tol": "0", "word": "baa"}\n'
    ),
}


@pytest.mark.parametrize("case", sorted(LENGTHS_REPORTS))
def test_blend_lengths_failing_report_bytes(case, capsys):
    w0, w1, lam, maxlen = case.split()
    code, out, _ = run_cli(
        capsys,
        "blend",
        "lengths",
        f"--weights0={w0}",
        f"--weights1={w1}",
        "--lambda",
        lam,
        "--maxlen",
        maxlen,
    )
    assert code == 1
    assert out == (
        "rtreelab blend lengths\n"
        f"config: lambda={lam} maxlen={maxlen} tol=0 weights0={w0} weights1={w1} seed=0\n"
        + LENGTHS_REPORTS[case]
    )


def test_action_file_input(tmp_path, capsys):
    action = tmp_path / "act.txt"
    action.write_text("line\nweight a 1\nweight b sqrt:2\n")
    code, out, _ = run_cli(
        capsys, "qmap", "estimate", "--action", str(action), "--word", ";A", "--depth", "50"
    )
    assert code == 0
    assert "estimate: -inf" in out


CONFIG_FILES = {
    "path.tree": PATH_TREE,
    "square.table": SQUARE_TABLE,
    "line.seq": "".join(f"{(-1) ** n}/{n}\n" for n in range(1, 9)),
    "tree.seq": "A\nC\nA\nC\nA\nC\n",
    "arms.seq": "".join(f"arm {n} 1\n" for n in range(4)),
    "act.txt": "line\nweight a 1\nweight b sqrt:2\n",
    "ends.pairs": ";a | ;A\n",
    "shape.pair": PAIR_FILE,
    "t0.len": "a 1\nb 2\nab 3\n",
    "t1.len": "a 3\nb 1\nab 4\n",
    "tb.len": "a 2\nb 3/2\nab 7/2\n",
    "square.report": 'WITNESS {"delta": "0", "distances": [["a", "b", "1"], ["a", "c", "2"],'
    ' ["a", "d", "1"], ["b", "c", "1"], ["b", "d", "2"], ["c", "d", "1"]], "kind": "four_point",'
    ' "margin": "1", "quadruple": ["a", "b", "c", "d"]}\n',
}

# one run per subcommand; {name} stands for the path of CONFIG_FILES[name]
CONFIG_LINES = {
    "certify": ("--seed 7 certify --table {square.table} --delta 1/2",
                "delta=1/2 table={square.table} seed=7"),
    "center": ("center --tree {path.tree} A C B", "p=A q=C r=B tree={path.tree} seed=0"),
    "segment": ("segment --tree {path.tree} C A", "p=C q=A tree={path.tree} seed=0"),
    # --line is echoed as a flag, and an unset --head is left out
    "observers liminf": ("observers liminf --line --seq {line.seq} --basepoint -5 --depth 8",
                         "basepoint=-5 depth=8 line=True seq={line.seq} tol=1e-9 seed=0"),
    "observers converge": (
        "observers converge --tree {path.tree} --seq {tree.seq} --limit A --probes auto:3 --depth 6",
        "depth=6 limit=A line=False probes=auto:3 seq={tree.seq} tree={path.tree} seed=0",
    ),
    "observers extract": ("observers extract --multipod 4 --seq {arms.seq} --dirs auto:2 --depth 4",
                          "depth=4 dirs=auto:2 line=False multipod=4 seq={arms.seq} seed=0"),
    "qmap estimate": ("qmap estimate --weights 1,sqrt:2 --word ;a",
                      "basepoint=0 depth=10000 tol=1e-6 weights=1,sqrt:2 word=;a seed=0"),
    "qmap fibers": ("qmap fibers --action {act.txt} --pairs {ends.pairs} --depth 50",
                    "action={act.txt} depth=50 pairs={ends.pairs} tol=1e-6 seed=0"),
    "qmap lamination": ("qmap lamination --weights 1,3/7 --epsilon 1/2 --maxlen 3 --depth 20",
                        "depth=20 epsilon=1/2 maxlen=3 tol=1e-6 weights=1,3/7 seed=0"),
    "qmap smallwords": ("qmap smallwords --weights 1,sqrt:2 --epsilon 0.2 --maxlen 4",
                        "epsilon=0.2 maxlen=4 weights=1,sqrt:2 seed=0"),
    "blend metric": ("blend metric --pair {shape.pair} --lambda 1/3", "lambda=1/3 pair={shape.pair} seed=0"),
    "blend lengths": (
        "blend lengths --table0 {t0.len} --table1 {t1.len} --tableb {tb.len} --lambda 1/2",
        "lambda=1/2 maxlen=6 table0={t0.len} table1={t1.len} tableb={tb.len} tol=0 seed=0",
    ),
    "blend axioms": ("blend axioms --marking a:a,b:ba --marking0 a:a,b:b --maxlen 2",
                     "lambda_grid=0:1:1/10 marking=a:a,b:ba marking0=a:a,b:b maxlen=2 seed=0"),
    "replay": ("replay {square.report}", "report={square.report} seed=0"),
}


@pytest.mark.parametrize("argv, config", list(CONFIG_LINES.values()), ids=list(CONFIG_LINES))
def test_config_line_lists_the_set_arguments_sorted_then_the_seed(tmp_path, capsys, argv, config):
    paths = {}
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
        paths["{" + name + "}"] = str(tmp_path / name)

    def fill(text):
        for key, path in paths.items():
            text = text.replace(key, path)
        return text

    code, out, err = run_cli(capsys, *fill(argv).split())
    assert code in (0, 1, 2), err
    assert out.splitlines()[1] == "config: " + fill(config)


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


def test_observers_liminf_still_rejects_a_bad_term_before_the_head(tmp_path, capsys):
    # the fold never reaches the first term; the command still checks it
    tree, seq = tmp_path / "path.tree", tmp_path / "seq.txt"
    tree.write_text(PATH_TREE)
    seq.write_text("Z\nA\nB\nC\nC\nC\n")
    code, out, err = run_cli(
        capsys, "observers", "liminf", "--tree", str(tree), "--seq", str(seq),
        "--basepoint", "A", "--depth", "6",
    )
    assert code == 65
    assert "RESULT" not in out and err == "parameter error: 'Z'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["blend", "axioms", "--marking", "a:a,b:ba", "--lambda-grid", "0:1:1/2", "--maxlen", "0"],
        ["blend", "lengths", "--weights0", "1,3", "--weights1", "1,2", "--lambda", "1/2", "--maxlen", "0"],
        ["blend", "lengths", "--weights0", "1,3", "--weights1", "1,2", "--lambda", "1/2", "--maxlen", "-2"],
    ],
)
def test_blend_checks_reject_an_empty_word_range(argv, capsys):
    # with no word to check, a pass would be vacuous
    code, out, err = run_cli(capsys, *argv)
    assert code == 65
    assert "RESULT" not in out and "no violation" not in out
    assert err == "parameter error: maxlen must be >= 1\n"


@pytest.mark.parametrize("w0, w1", [("1,2", "1,2,3"), ("1,2,3", "1,2")])
def test_blend_lengths_rejects_weight_lists_of_different_lengths(w0, w1, capsys):
    # a weight without a partner was dropped, or read as a missing generator
    code, out, err = run_cli(
        capsys, "blend", "lengths", "--weights0", w0, "--weights1", w1, "--lambda", "1/2", "--maxlen", "3"
    )
    assert code == 65 and "RESULT" not in out
    n0, n1 = len(w0.split(",")), len(w1.split(","))
    assert err == f"parameter error: --weights0 has {n0} weights but --weights1 has {n1}\n"


@pytest.mark.parametrize(
    "flags, keys",
    [
        (["--marking0", "a:a,b:b,c:c"], "['a', 'b', 'c']"),
        (["--marking0", "a:a"], "['a']"),
        (["--marking0", "a:a,c:c"], "['a', 'c']"),
    ],
)
def test_blend_axioms_rejects_a_marking_off_the_generators(flags, keys, capsys):
    # an extra generator was ignored and a missing one printed a bare 'b'
    code, out, err = run_cli(capsys, "blend", "axioms", "--marking", "a:a,b:ba", *flags, "--maxlen", "2")
    assert code == 65 and "RESULT" not in out and "no violation" not in out
    assert err == f"parameter error: marking keys {keys} are not the generators ['a', 'b']\n"


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


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    good, bad = tmp_path / "path.tree", tmp_path / "bad.tree"
    good.write_text(PATH_TREE)
    bad.write_text("edge A B\n")
    calls = [
        ["--format", "xml", "certify", "--tree", str(good)],  # argparse error, 65
        ["certify", "--tree", str(bad)],  # input parse error, 64
        ["--format", "table", "qmap", "estimate", "--weights", "1/2,1/3", "--word", ";abAB", "--depth", "40"],
        ["certify", "--tree", str(good)],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "rtreelab", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(fresh.returncode)
    assert codes == [65, 64, 0, 0]


FORK_TREE = "edge a b 1\nedge b c 1\nedge b d 1\npoint m a b 1\n"


@pytest.mark.parametrize("command", ["converge", "extract"])
@pytest.mark.parametrize(
    "rows, lineno",
    [("b | b\n", 1), ("b | a\nc | c\n", 2), ("b | a\n# comment\nm | b\n", 3)],
)
def test_observers_reject_a_direction_whose_representative_is_its_base(
    tmp_path, capsys, command, rows, lineno
):
    # such a direction contains nothing, so a probe or a step made of it is void;
    # m is a second name of the vertex b
    tree, seq, dirs = tmp_path / "fork.tree", tmp_path / "seq.txt", tmp_path / "dirs.txt"
    tree.write_text(FORK_TREE)
    seq.write_text("a\na\na\na\n")
    dirs.write_text(rows)
    flag = "--probes" if command == "converge" else "--dirs"
    extra = ["--limit=c"] if command == "converge" else []
    code, out, err = run_cli(
        capsys, "observers", command, "--tree", str(tree), "--seq", str(seq), *extra,
        flag, str(dirs), "--depth", "4",
    )
    assert code == 64
    assert "RESULT" not in out
    assert err == f"parse error: line {lineno}: a direction needs a representative distinct from its base\n"


def test_observers_converge_without_a_probe_holding_the_limit_is_inconclusive(tmp_path, capsys):
    # the probe b | a misses c: nothing was tested, so there is no pass
    tree, seq, probes = tmp_path / "fork.tree", tmp_path / "seq.txt", tmp_path / "probes.txt"
    tree.write_text(FORK_TREE)
    seq.write_text("a\na\na\na\n")
    probes.write_text("b | a\n")
    code, out, _ = run_cli(
        capsys, "observers", "converge", "--tree", str(tree), "--seq", str(seq), "--limit=c",
        "--probes", str(probes), "--depth", "4",
    )
    assert code == 2
    assert out.splitlines()[-2:] == [
        "probes: 1 total, 0 containing the limit",
        "RESULT: inconclusive (no probe direction contains the limit)",
    ]


@pytest.mark.parametrize("command", ["converge", "extract"])
@pytest.mark.parametrize("spec", ["auto:", "auto:x", "auto:1", "auto:-3", "auto:2.5"])
def test_observers_reject_a_bad_auto_subbasis_size(tmp_path, capsys, command, spec):
    seq = tmp_path / "seq.txt"
    seq.write_text("0\n1\n0\n1\n")
    flag = "--probes" if command == "converge" else "--dirs"
    extra = ["--limit=0"] if command == "converge" else []
    code, out, err = run_cli(
        capsys, "observers", command, "--line", "--seq", str(seq), *extra, flag, spec, "--depth", "4",
    )
    assert code == 65
    assert "RESULT" not in out
    assert err == "parameter error: auto:<k> needs an integer k >= 2\n"


# -- certify --table against the reference table and the brute-force scans ------------


def _tree_rows(rng):
    tree = helpers.random_tree(rng, 6, edge_points=rng.randint(0, 2))
    return {(x, y): tree.distance(x, y) for x, y in combinations(tree.point_names, 2)}


def _cycle_rows(rng):
    """A 4-cycle's shortest-path metric: fails the four-point condition."""
    w = [1 + Fr(rng.randint(0, 32), 32) for _ in range(4)]
    rows = {("a", "b"): w[0], ("b", "c"): w[1], ("c", "d"): w[2], ("a", "d"): w[3]}
    return rows | {("a", "c"): min(w[0] + w[1], w[2] + w[3]), ("b", "d"): min(w[1] + w[2], w[3] + w[0])}


def _break_triangle(rng, rows):
    """Lengthen d(x, y) past d(x, z) + d(z, y)."""
    names = sorted({p for key in rows for p in key})
    if len(names) < 3:
        return rows
    x, y, z = rng.sample(names, 3)
    d = {frozenset(k): v for k, v in rows.items()}
    key = (x, y) if (x, y) in rows else (y, x)
    return rows | {key: d[frozenset((x, z))] + d[frozenset((z, y))] + Fr(1, rng.randint(1, 9))}


def _table_rows(kind, rng):
    """Rows (x, y, value) of a table of the given kind, in file order."""
    extra = []
    if kind in ("cycle", "triangle and cycle"):
        rows = _cycle_rows(rng)
    else:
        rows = _tree_rows(rng)
    if kind in ("perturbed", "perturbed twice"):
        keys = [rng.choice(sorted(rows))]
        if kind == "perturbed twice":  # one pair at the anchor, the first sorted name
            first = min(p for key in rows for p in key)
            keys = [rng.choice([key for key in sorted(rows) if first in key])]
            keys += rng.sample([key for key in sorted(rows) if key != keys[0]], min(1, len(rows) - 1))
        for key in keys:
            eps = Fr(1, rng.randint(2, 8))
            rows[key] = max(rows[key] - eps, eps) if rng.random() < 0.8 else rows[key] + eps
    elif kind in ("triangle", "triangle and cycle"):
        rows = _break_triangle(rng, rows)
    elif kind == "missing":
        del rows[rng.choice(sorted(rows))]
    elif kind == "zero":
        names = sorted({p for key in rows for p in key})
        twin = rng.choice(names)
        d = {frozenset(k): val for k, val in rows.items()}
        rows |= {(twin, "z"): Fr(0)} | {(p, "z"): d[frozenset((p, twin))] for p in names if p != twin}
    elif kind == "conflict":
        (x, y) = rng.choice(sorted(rows))
        changed = rows[(x, y)] + Fr(1, rng.randint(1, 5))
        extra.append((y, x, changed))
        if rng.random() < 0.3:
            extra.append((x, y, changed))  # the later row overwrites: no conflict left
    elif kind == "two conflicts":  # the first line in its second order is reported
        for x, y in rng.sample(sorted(rows), min(2, len(rows))):
            extra.append((y, x, rows[(x, y)] + Fr(1, rng.randint(1, 5))))
    listed = [(x, y, v) if rng.random() < 0.5 else (y, x, v) for (x, y), v in rows.items()]
    rng.shuffle(listed)
    for row in extra:
        listed.insert(rng.randint(0, len(listed)), row)
    return listed


def _literal(rng, value):
    p, q = value.numerator, value.denominator
    if q == 1 and rng.random() < 0.5:
        return rng.choice(["", "+"]) + str(p) if p >= 0 else str(p)
    if 10**6 % q == 0 and rng.random() < 0.5:
        whole, frac = divmod(abs(p) * (10**6 // q), 10**6)
        return f"{'-' if p < 0 else ''}{whole}.{frac:06d}".rstrip("0")
    return f"{p}/{q}" if rng.random() < 0.8 else f"{2 * p}/{2 * q}"


_TABLE_KINDS = [
    "tree", "perturbed", "perturbed twice", "triangle", "cycle", "triangle and cycle", "conflict", "missing", "zero",
    "two conflicts", "bad row", "bad number", "bad number before bad row",
]
_BAD_ROWS = ["dist a b", "dist a b 1 2", "dst a b 1", "a b 1", "dist"]
_BAD_NUMBERS = ["1/0", "x", "1.2.3", "--1", "1e", "2/", "/2", "1/2/3", "\u0663/"]
# line breaks of str.splitlines; the CLI reads "\r" and "\r\n" as "\n"
_BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0c"]


def _table_lines(kind, rng):
    """The lines of a table file of the given kind: rows with comments and
    blank lines, a bad row or number spliced in for the bad kinds."""
    lines = [f"dist {x} {y} {_literal(rng, v)}" for x, y, v in _table_rows(kind, rng)]
    if kind in ("bad number", "bad number before bad row"):
        at = rng.randrange(len(lines))
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + rng.choice(_BAD_NUMBERS)
        lo = at + 1
    else:
        lo = 0
    if kind in ("bad row", "bad number before bad row"):
        lines.insert(rng.randint(lo, len(lines)), rng.choice(_BAD_ROWS))
    if rng.random() < 0.3:
        lines.insert(rng.randint(0, len(lines)), "# a comment")
        lines.insert(rng.randint(0, len(lines)), "")
    if rng.random() < 0.3:
        lines = [line + "  # dist a b 1" if rng.random() < 0.3 else line for line in lines]
    return lines


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_TABLE_KINDS), st.integers(0, 2**32 - 1))
def test_certify_table_matches_the_reference_table(tmp_path, capsys, kind, seed):
    """Exit code, stdout and stderr of ``certify --table`` at delta 0, at the
    defect and just below it, against ReferenceTable (eager Fraction dict and
    O(n³) triangle scan) and the brute-force four-point scans."""
    rng = random.Random(seed)
    lines = _table_lines(kind, rng)
    if rng.random() < 0.5:
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(line + rng.choice(_BREAKS) for line in lines)
    path = tmp_path / "table.metric"
    path.write_bytes(text.encode())
    helpers.assert_parses_as_reference(text)
    deltas = ["0"]
    try:
        defect = helpers.brute_force_max_defect(helpers.reference_parse_table(text))
    except FormatError:
        defect = 0
    if defect > 0:
        deltas += [format_number(defect), format_number(defect * Fr(63, 64))]
    for delta in deltas:
        expected = helpers.reference_certify_table(text, str(path), delta)
        assert run_cli(capsys, "certify", "--table", str(path), "--delta", delta) == expected
