import contextlib
import io
import json
import math
import random
import shlex
from fractions import Fraction as Fr
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rtreelab.cli import main
from rtreelab.formats import FormatError, format_number, format_oracle_point, parse_tree, replay_witness
from rtreelab.observers import Direction, subbasis_from_sample
from rtreelab.oracles import LINE_MINUS, LINE_PLUS, LineOracle, MultipodOracle

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


@pytest.mark.parametrize(
    "terms, probe, limit, distances",
    [
        # the term is a line end: it stands one unit below -1/2, the lowest finite point
        ("-475536/1000003\n2/3\n-3\n-inf\n", "-1/2 | 2", "5/2",
         '"d_base_rep": "5/2", "d_base_term": "1", "d_rep_term": "7/2"'),
        # the representative is a line end: it stands one unit above the base
        ("1\n-1\n", "0 | +inf", "2", '"d_base_rep": "1", "d_base_term": "1", "d_rep_term": "2"'),
        # the base and the term are the same line end: they stand at one point
        ("0\n1\n+inf\n", "+inf | 0", "0", '"d_base_rep": "1", "d_base_term": "0", "d_rep_term": "1"'),
        # no finite point: the ends stand at 1 and -1
        ("+inf\n+inf\n", "+inf | -inf", "0", '"d_base_rep": 2, "d_base_term": 0, "d_rep_term": 2'),
    ],
)
def test_a_direction_exit_witness_at_a_line_end_replays(tmp_path, capsys, terms, probe, limit, distances):
    (tmp_path / "s.seq").write_text(terms)
    (tmp_path / "p.dirs").write_text(probe + "\n")
    depth = str(terms.count("\n"))
    code, out, err = run_cli(
        capsys, "observers", "converge", "--line", "--seq", str(tmp_path / "s.seq"),
        "--probes", str(tmp_path / "p.dirs"), f"--limit={limit}", "--depth", depth,
    )
    assert (code, err) == (1, "")
    index = int(depth) - 1
    assert out.splitlines()[-1] == (
        f'WITNESS {{{distances}, "kind": "direction_exit", "term_index": {index}}}'
    )
    (tmp_path / "report.txt").write_text(out)
    assert run_cli(capsys, "replay", str(tmp_path / "report.txt"))[:2] == (
        0, f"rtreelab replay\nconfig: report={tmp_path / 'report.txt'} seed=0\n"
        "witness 0 (direction_exit): confirmed\nRESULT: pass (1 witnesses)\n",
    )


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


def test_observers_extract_defaults_to_the_first_kept_finite_term(tmp_path, capsys):
    """Without --basepoint the liminf runs from the first kept term that is
    not a line end; with only ends kept, or an end given, it exits 65."""
    (tmp_path / "mixed.seq").write_text("+inf\n1\n2\n3\n")
    (tmp_path / "ends.seq").write_text("1\n+inf\n2\n+inf\n-inf\n+inf\n")
    (tmp_path / "up.dirs").write_text("0 | 5\n")
    (tmp_path / "ends.dirs").write_text("+inf | 0\n0 | +inf\n-inf | 5\n")

    def extract(seq, dirs, *extra):
        return run_cli(capsys, "observers", "extract", "--line", "--seq", str(tmp_path / seq),
                       "--dirs", str(tmp_path / dirs), "--depth", "6", *extra)

    code, out, err = extract("mixed.seq", "up.dirs")
    assert (code, err) == (2, "")
    assert out.splitlines()[2:5] == ["indices: 0 1 2 3", "limit estimate: 2", "certificate: 1"]
    code, _, err = extract("ends.seq", "ends.dirs")
    assert (code, err) == (65, "parameter error: every kept term is a boundary point; give a basepoint\n")
    code, _, err = extract("mixed.seq", "up.dirs", "--basepoint=+inf")
    assert (code, err) == (65, "parameter error: basepoint must not be a boundary point\n")


def test_observers_extract_with_a_moving_certificate_is_inconclusive(tmp_path, capsys):
    """extract compares its liminf certificate with liminf's default --tol:
    a certificate of 1 is no pass, as `observers liminf` says on the same
    terms, and the config line gains no tolerance."""
    (tmp_path / "mixed.seq").write_text("+inf\n1\n2\n3\n")
    (tmp_path / "up.dirs").write_text("0 | 5\n")
    code, out, err = run_cli(capsys, "observers", "extract", "--line", "--seq", str(tmp_path / "mixed.seq"),
                             "--dirs", str(tmp_path / "up.dirs"), "--depth", "6")
    lines = out.splitlines()
    assert (code, err) == (2, "")
    assert not [word for word in lines[1].split() if word.startswith("tol=")]
    assert lines[4:] == ["certificate: 1", "RESULT: inconclusive (estimate still moving at this depth)"]
    code, out, _ = run_cli(capsys, "observers", "liminf", "--line", "--seq", str(tmp_path / "mixed.seq"),
                           "--basepoint", "1", "--depth", "6")
    assert code == 2 and out.splitlines()[-2:] == lines[-2:]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["qmap", "estimate", "--weights", "1,2", "--word", ";ab"],  # a drift pass reads no certificate
        ["qmap", "estimate", "--weights", "1,2", "--word", ";abAB"],
        ["observers", "liminf", "--line", "--seq", "{seq}", "--basepoint", "0", "--depth", "4"],
    ],
    ids=["drift", "liminf estimate", "observers liminf"],
)
def test_a_bad_tol_is_a_parse_error_before_any_work(argv, tmp_path, capsys):
    seq = tmp_path / "s.seq"
    seq.write_text("1\n-1\n1\n-1\n")
    code, out, err = run_cli(capsys, *(a.format(seq=seq) for a in argv), "--tol", "nan")
    assert (code, err) == (64, "parse error: bad number 'nan'\n")
    banner, config = out.splitlines()
    assert banner == f"rtreelab {argv[0]} {argv[1]}" and config.startswith("config: ")


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


def _lamination(capsys, depth, maxlen):
    code, out, _ = run_cli(
        capsys, "qmap", "lamination", "--weights", "1,sqrt:2", "--epsilon", "0.9", "--maxlen", str(maxlen),
        "--depth", str(depth),
    )
    lines = out.splitlines()
    return code, lines, [line.split()[1] for line in lines if line.startswith("pair word=")]


def test_qmap_lamination_pairs_do_not_depend_on_the_depth(capsys):
    """Pairs are told apart exactly, not by their first --depth letters: at
    depth 1 the ten classes give the same ten pairs, in the same order, as
    at depth 1000."""
    _, lines, words = _lamination(capsys, 1, 4)
    _, _, deep_words = _lamination(capsys, 1000, 4)
    assert "sample: 10 pairs at depth 1 from 10 classes" in lines
    assert words == deep_words and len(words) == 10


def test_qmap_lamination_reads_at_most_maxlen_letters_per_point(capsys, monkeypatch):
    """At depth 10**12 each point w^inf of a class reads at most |w| <=
    maxlen letters: a drifting one none, a zero-drift one one period."""
    from rtreelab.boundary import BoundaryPoint

    read, letters = [], BoundaryPoint.prefix
    monkeypatch.setattr(BoundaryPoint, "prefix", lambda self, k: read.append(k) or letters(self, k))
    code, lines, words = _lamination(capsys, 10**12, 5)
    monkeypatch.undo()
    assert code == 0 and lines[-1] == "RESULT: pass" and words
    assert read and max(read) <= 5


def test_the_readme_command_lines_without_input_files_run(capsys):
    """The README's qmap, blend lengths and blend axioms examples, which
    read no file, run with the flags as written and give their exits."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    runs = [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith(("rtreelab qmap ", "rtreelab blend lengths ", "rtreelab blend axioms "))
    ]
    assert [argv[:2] for argv in runs] == [
        ["qmap", "estimate"], ["qmap", "fibers"], ["qmap", "lamination"], ["qmap", "smallwords"],
        ["blend", "lengths"], ["blend", "axioms"],
    ]
    assert [run_cli(capsys, *argv)[0] for argv in runs] == [0, 1, 0, 0, 0, 0]


def test_blend_metric(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE)
    code, out, _ = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "1/2")
    assert code == 0
    assert "edge A B 2" in out
    assert "edge B C 3/2" in out


def test_blend_metric_with_a_point_at_a_vertex(tmp_path, capsys):
    """The point blends as the vertex it sits at, and the blend's table
    takes the place once, under the vertex name."""
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE + "point P A B 0 0\n")
    code, out, err = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "1/3")
    assert (code, err) == (0, "")
    assert out == (
        f"rtreelab blend metric\nconfig: lambda=1/3 pair={pair} seed=0\n"
        "edge A B 5/3\nedge B C 5/3\npoint P A B 0\n"
        "certification: 0-hyperbolic; realized exactly by a finite tree\nRESULT: pass\n"
    )


def test_certify_tree_with_a_point_at_a_vertex(tmp_path, capsys):
    path = tmp_path / "tree.txt"
    path.write_text(PATH_TREE + "point P A B 0\n")
    code, out, err = run_cli(capsys, "certify", "--tree", str(path))
    assert (code, err) == (0, "")
    assert out == (
        f"rtreelab certify\nconfig: delta=0 tree={path} seed=0\nloaded tree: 3 vertices, 2 edges\n"
        "four-point defect: 0\nrealization: 0-hyperbolic; realized exactly by a finite tree\n"
        "RESULT: pass (delta=0)\n"
    )


def test_blend_metric_rejects_bad_lambda(tmp_path, capsys):
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE)
    code, _, err = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "3/2")
    assert code == 65


def test_blend_metric_rejects_a_point_name_a_tree_file_rejects(tmp_path, capsys):
    """A pair file names its points as a tree file does, so a blend it
    accepts is a tree file that certify accepts."""
    pair = tmp_path / "pair.txt"
    pair.write_text(PAIR_FILE + "point .q A B 1/2 3/4\n")
    code, out, err = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "1/2")
    assert (code, err) == (64, "parse error: line 3: point names must not start with '.'\n")
    assert "RESULT" not in out


def _pair_text(pair) -> str:
    t1 = pair.tree1
    lines = [f"edge {u} {v} {format_number(l)} {format_number(t1.edge_length(u, v))}" for u, v, l in pair.tree0.edges]
    for name, loc in sorted(pair.tree0.designated.items()):
        u, v = loc.edge
        lines.append(f"point {name} {u} {v} {format_number(loc.offset)} {format_number(t1.designated[name].offset)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(6))
def test_blend_metric_prints_a_tree_that_certify_accepts(tmp_path, capsys, seed):
    pair = tmp_path / "pair.txt"
    pair.write_text(_pair_text(helpers.random_compatible_pair(random.Random(seed))))
    code, out, err = run_cli(capsys, "blend", "metric", "--pair", str(pair), "--lambda", "2/7")
    assert (code, err) == (0, "")
    tree = tmp_path / "blend.tree"
    tree.write_text("".join(line + "\n" for line in out.splitlines() if line.startswith(("edge ", "point "))))
    code, out, err = run_cli(capsys, "certify", "--tree", str(tree))
    assert (code, err) == (0, "") and out.endswith("RESULT: pass (delta=0)\n")


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


def test_blend_axioms_still_scans_a_rank_3_marking_with_the_identity_matrix(capsys):
    """a:a,b:b,c:cabAB abelianizes to the identity, yet its blend at 1/2
    breaks the pairing bound: in rank 3 a matrix does not decide the pair."""
    code, out, _ = run_cli(
        capsys, "blend", "axioms", "--marking", "a:a,b:b,c:cabAB", "--lambda-grid", "0:1:1/2", "--maxlen", "3"
    )
    assert code == 1
    assert out == (
        "rtreelab blend axioms\n"
        "config: lambda_grid=0:1:1/2 marking=a:a,b:b,c:cabAB maxlen=3 seed=0\n"
        "lambda 0: no violation found (words <= 3)\n"
        "lambda 1/2: VIOLATION u=A v=BCb uv=3 uv_inv=5 bound=4\n"
        'WITNESS {"axiom": "product", "kind": "axiom", "u": "A", "v": "BCb", "values":'
        ' {"u": "1", "uv": "3", "uv_inv": "5", "v": "3"}}\n'
        "lambda 1: no violation found (words <= 3)\n"
        "RESULT: fail (1 violating lambdas)\n"
    )


def test_blend_axioms_passes_a_rank_2_pair_one_theta_graph_apart_at_maxlen_8(capsys):
    """a:a,b:ba and the identity collapse from one theta graph, so every
    lambda passes without the scan over the words of length <= 8."""
    code, out, _ = run_cli(
        capsys, "blend", "axioms", "--marking", "a:a,b:ba", "--lambda-grid", "0:1:1/10", "--maxlen", "8"
    )
    lams = ["0", "1/10", "1/5", "3/10", "2/5", "1/2", "3/5", "7/10", "4/5", "9/10", "1"]
    assert code == 0
    assert out == (
        "rtreelab blend axioms\n"
        "config: lambda_grid=0:1:1/10 marking=a:a,b:ba maxlen=8 seed=0\n"
        + "".join(f"lambda {lam}: no violation found (words <= 8)\n" for lam in lams)
        + "RESULT: pass (0 violating lambdas)\n"
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


BLEND_WEIGHTS = ["1", "3", "1/2", "-2", "-7/3", "sqrt:2", "sqrt:12"]


def blend_weights_and_maxlen():
    """Two weight lists of one rank, and a maxlen of 1-7 in rank 2, 1-5 in rank 3."""
    return st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.tuples(*[st.lists(st.sampled_from(BLEND_WEIGHTS), min_size=n, max_size=n)] * 2),
        st.integers(1, 7 if n == 2 else 5),
    ))


@settings(max_examples=40, deadline=None)
@given(blend_weights_and_maxlen(), st.sampled_from(["0", "1/2", "3/10", "1"]), st.sampled_from(["0", "-1", "1/2"]))
# ties: with -w0 every key of the largest |mu0| attains the deviation, and
# with 2*w0 every word attains 0 (shown through a negative tol)
@example(((["1", "1"], ["-1", "-1"]), 4), "3/10", "0")
@example(((["1", "3", "1/2"], ["2", "6", "1"]), 3), "3/10", "-1")
@example(((["1", "sqrt:2"], ["2", "3"]), 4), "1/3", "0")
@example(((["1", "3"], ["2", "-5"]), 5), "3/10", "0")
# a zero weight
@example(((["0", "1"], ["2", "-5"]), 7), "3/10", "0")
# lambda 0 and 1 blend to lf0 and lf1: every word attains 0
@example(((["1", "3"], ["2", "-5"]), 6), "0", "-1")
@example(((["1", "sqrt:2", "-2"], ["2", "-5", "1/2"]), 5), "1", "0")
# a negative tol: every word of rank-3 sqrt weights attains 0 and fails
@example(((["sqrt:2", "1", "sqrt:12"], ["sqrt:2", "1", "sqrt:12"]), 5), "1/2", "-1")
# witnesses shorter than maxlen: the tied key (-3, 2) has odd length
# (bbAAA at maxlen 6), and bbbAB, the one length-5 word of key (-1, 2)
# after bb, ends in the inverse of its first letter (bbA at maxlen 5)
@example(((["1", "1"], ["1", "3"]), 6), "3/10", "0")
@example(((["3", "1"], ["sqrt:2", "1"]), 5), "1/2", "0")
def test_blend_lengths_reports_as_the_per_word_reference(case, lam, tol):
    (weights, maxlen) = case
    w0, w1 = (",".join(w) for w in weights)
    argv = ["blend", "lengths", f"--weights0={w0}", f"--weights1={w1}", "--lambda", lam, "--maxlen", str(maxlen)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, f"--tol={tol}"])
    expected = helpers.reference_blend_lengths(w0, w1, Fr(lam), maxlen, Fr(tol))
    assert (code, out.getvalue().splitlines()[2:], err.getvalue()) == (*expected, "")


def test_blend_lengths_at_maxlen_24_counts_by_the_closed_form_and_replays(capsys, tmp_path):
    """At maxlen 24 the report counts the (2k-1)^n + 1 + (k-1)(1 + (-1)^n)
    cyclically reduced words of each length n (4.2 * 10**11 of them) and
    its witness b^24 replays."""
    code, out, _ = run_cli(
        capsys, "blend", "lengths", "--weights0", "1,3", "--weights1", "2,-5", "--lambda", "3/10", "--maxlen", "24"
    )
    count = sum(3**n + 1 + (1 + (-1) ** n) for n in range(1, 25))
    assert (code, count) == (1, 423644304768)
    assert f"words checked: {count}\n" in out
    assert "(word " + "b" * 24 + ")" in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code, replayed, _ = run_cli(capsys, "replay", str(report))
    assert code == 0 and "NOT CONFIRMED" not in replayed


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


@pytest.mark.parametrize(
    "record, error",
    [
        ("[1,2]", "bad witness [1, 2]: not a JSON object\n"),
        ('"four_point"', 'bad witness "four_point": not a JSON object\n'),
        ('{"kind": "direction_exit", "d_base_rep": null, "d_base_term": 1, "d_rep_term": "1"}', "bad witness direction_exit: "),
        ('{"kind": "axiom", "axiom": "product", "u": "a", "v": "b", "values": [1]}', "bad witness axiom: "),
        ('{"kind": "four_point"}', "bad witness four_point: missing 'distances'\n"),
        ('{"kind": "fiber_mismatch", "first": "1"}', "bad witness fiber_mismatch: missing 'second'\n"),
        ('{"kind": "fiber_mismatch", "first": [1], "second": "2"}', "bad witness fiber_mismatch: "),
    ],
)
def test_replay_of_a_malformed_witness_is_a_parse_error(tmp_path, capsys, record, error):
    """A record that is not an object, or has a field missing or of the
    wrong type, exits 64 with one line on stderr, after the lines of the
    witnesses before it; a mistyped field's line ends in Python's own
    words for it, which are not pinned here."""
    square = tmp_path / "square.table"
    square.write_text(SQUARE_TABLE)
    report = tmp_path / "report.txt"
    report.write_text(run_cli(capsys, "certify", "--table", str(square))[1] + f"WITNESS {record}\n")
    code, out, err = run_cli(capsys, "replay", str(report))
    assert code == 64 and err.startswith(f"parse error: {error}") and err.count("\n") == 1
    assert out.endswith("witness 0 (four_point): confirmed\n")


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


_REPEATING_SEQ = (
    "u\nedge u v 1/2\nedge v u 3/2\nx\n# settles at w\nw\nedge v w 1/2\nw\nedge w v 1/2\nw\n"
    "edge u v 1/2\nw\nedge v w 1/2\nw\nw\n"
)


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["liminf", "--basepoint", "u"],
            ["terms used: 14 (head 7)", "liminf: edge u v 1/2", "certificate: 0", "RESULT: pass (stabilized at this depth)"],
        ),
        (
            ["converge", "--limit", "w", "--probes", "auto:3"],
            [
                "probes: 6 total, 3 containing the limit",
                "probe dir[edge u v 1 -> v]: last outside index 9",
                "probe dir[edge u v 3/2 -> v]: last outside index 9",
                "probe dir[edge v w 1/2 -> w]: last outside index 11",
                "RESULT: pass (consistent with convergence at depth 14)",
            ],
        ),
        (
            ["extract", "--dirs", "auto:3"],
            ["indices: 4 6 8 10 12 13", "limit estimate: w", "certificate: 0", "RESULT: pass"],
        ),
    ],
)
def test_observers_read_a_sequence_with_repeated_lines(tmp_path, capsys, monkeypatch, args, expected):
    # repeated lines, and one point written along both orientations of its edge
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tree").write_text("edge u v 2\nedge v w 1\nedge v x 1\n")
    (tmp_path / "s.seq").write_text(_REPEATING_SEQ)
    code, out, err = run_cli(capsys, "observers", *args, "--tree", "t.tree", "--seq", "s.seq", "--depth", "14")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == expected


def test_observers_report_the_first_of_a_repeated_bad_sequence_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tree").write_text("edge u v 2\n")
    (tmp_path / "s.seq").write_text("u\nv\n\nbad point\nv\nbad point\n")
    code, out, err = run_cli(capsys, "observers", "liminf", "--tree", "t.tree", "--seq", "s.seq", "--basepoint", "u", "--depth", "5")
    assert code == 64
    assert "RESULT" not in out and err == "parse error: line 4: bad tree point 'bad point'\n"


_TREE4, _POD3 = ["--tree", "t.tree", "--seq", "s.seq"], ["--multipod", "3", "--seq", "m.seq"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["liminf", *_TREE4, "--basepoint", "zz", "--depth", "1"], "'zz'"),
        (["liminf", *_TREE4, "--basepoint", "zz", "--depth", "2"], "'zz'"),
        (["liminf", *_TREE4, "--basepoint", "zz", "--depth", "4", "--head", "0"], "'zz'"),
        (["liminf", "--tree", "t.tree", "--seq", "one.seq", "--basepoint", "zz", "--depth", "4", "--head", "0"], "'zz'"),
        (["extract", *_TREE4, "--basepoint", "zz", "--depth", "1", "--dirs", "auto:2"], "'zz'"),
        (["liminf", *_POD3, "--basepoint", "arm:7:1/2", "--depth", "1"], "arm 7 out of range"),
        (["liminf", *_POD3, "--basepoint", "arm:7:1/2", "--depth", "1", "--head", "0"], "arm 7 out of range"),
        (["extract", *_POD3, "--basepoint", "arm:7:1/2", "--depth", "1", "--dirs", "auto:2"], "arm 7 out of range"),
    ],
)
def test_observers_reject_a_bad_basepoint_at_head_0(tmp_path, capsys, monkeypatch, argv, err):
    # at head 0 the fold of a one-term window never reaches the basepoint
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.tree").write_text("edge a b 1\nedge b c 2\nedge b d 1\n")
    (tmp_path / "s.seq").write_text("a\nc\nzz\nd\n")
    (tmp_path / "one.seq").write_text("a\n")
    (tmp_path / "m.seq").write_text("arm 0 1\narm 1 1/2\n")
    code, out, stderr = run_cli(capsys, "observers", *argv)
    assert code == 65
    assert "RESULT" not in out and stderr == f"parameter error: {err}\n"


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


@pytest.mark.parametrize(
    "grid, err",
    [
        # start past the end: no lambda to check, so a pass would be vacuous
        ("1:0:1/2", "grid start must not exceed its end"),
        ("1/2:1/3:1", "grid start must not exceed its end"),
        # the first value out of range is named as written by format_number
        ("-1/2:1:1/2", "lambda must lie in [0, 1], got -1/2"),
        ("0.5:2:0.25", "lambda must lie in [0, 1], got 5/4"),
        ("1/3:5:1/3", "lambda must lie in [0, 1], got 4/3"),
    ],
)
def test_blend_axioms_rejects_an_empty_or_out_of_range_grid(grid, err, capsys):
    code, out, stderr = run_cli(
        capsys, "blend", "axioms", "--marking", "a:a,b:ba", f"--lambda-grid={grid}", "--maxlen", "2"
    )
    assert code == 65
    assert "RESULT" not in out and "no violation" not in out
    assert stderr == f"parameter error: {err}\n"


@pytest.mark.parametrize("grid", ["0:1:1e-400", "0:1:1/1000000000", "0:1:1/100000", "-1:1:1e-9"])
def test_blend_axioms_refuses_a_grid_of_more_than_100000_points_before_making_it(grid, capsys):
    # the count floor((end - start)/step) + 1 is taken first: the grid 0:1:1e-400
    # was built a Fraction at a time and never returned
    code, out, stderr = run_cli(
        capsys, "blend", "axioms", "--marking", "a:a,b:ba", f"--lambda-grid={grid}", "--maxlen", "2"
    )
    assert code == 65
    assert "RESULT" not in out and "no violation" not in out
    assert stderr == "parameter error: grid has more than 100000 points\n"


def test_blend_axioms_accepts_a_rank_3_marking_that_greedy_reduction_refused(capsys):
    # ba*(ca)^-1 = bC, and then b, a and c follow: a composite of Nielsen moves
    # in which no single move shortens an image
    code, out, stderr = run_cli(
        capsys, "blend", "axioms", "--marking", "a:ba,b:bCb,c:ca", "--lambda-grid", "0:1:1/2", "--maxlen", "2"
    )
    assert code == 0 and stderr == ""
    assert out.count("no violation found (words <= 2)") == 3 and "RESULT: pass" in out


@pytest.mark.parametrize("w0, w1",[("1,2", "1,2,3"), ("1,2,3", "1,2")])
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


@pytest.mark.parametrize(
    "flags, gen",
    [
        # the last entry won: the marking a:abb,b:b was scanned, exit 1
        (["--marking", "a:a,a:abb,b:b", "--lambda-grid", "0:1:1/2", "--maxlen", "3"], "a"),
        # the rank-1 marking a:b was refused without naming an entry
        (["--marking", "a:a,a:b"], "a"),
        (["--marking", "a:a,b:ba", "--marking0", "b:b, b :a,a:a"], "b"),
    ],
)
def test_blend_axioms_rejects_a_repeated_generator(flags, gen, capsys):
    code, out, err = run_cli(capsys, "blend", "axioms", *flags)
    assert code == 65 and "RESULT" not in out and "no violation" not in out and "WITNESS" not in out
    assert err == f"parameter error: marking entries repeat the generator {gen!r}\n"


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


def test_certify_a_250_point_table_with_one_shortened_leaf_distance(tmp_path, capsys):
    """A failing certify at scale, on a tree table with one leaf distance
    shortened by eps as the refute benchmark builds them: it prints the
    defect eps/2 and a witness that replays."""
    d, eps = helpers.shortened_leaf_pair(random.Random(250), 250, (250 // 3, 2 * 250 // 3))
    path = tmp_path / "near-tree.metric"
    path.write_text("".join(f"dist {x} {y} {format_number(v)}\n" for (x, y), v in d.items()))
    code, out, _ = run_cli(capsys, "certify", "--table", str(path))
    assert code == 1
    assert f"four-point defect: {format_number(eps / 2)}\n" in out
    report = tmp_path / "report.txt"
    report.write_text(out)
    code, out, _ = run_cli(capsys, "replay", str(report))
    assert code == 0 and "NOT CONFIRMED" not in out


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


def test_a_closed_output_pipe_exits_141_without_a_traceback():
    # the read end is closed before each run, so the report's first write
    # meets a closed pipe however fast the command is
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # the console script imports its target and exits with what it returns
    # one regex, not tomllib, which Python 3.10, the declared floor, lacks
    pyproject = (root / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\s*^rtreelab\s*=\s*"([^"]+)"', pyproject, re.M)[1]
    module, function = target.split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    for launch in (["-m", "rtreelab"], ["-m", "rtreelab.cli"], ["-c", script]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, *launch, "blend", "axioms", "--marking", "a:a,b:ba", "--maxlen", "6"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (launch[1], proc.returncode, proc.stderr) == (launch[1], 141, "")


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


# denominators of the grid tests: small ones, and primes whose lcm is huge
_GRID_DENOMS = (1, 2, 3, 4, 6, 7, 10, 12, 9973, 1_000_003, 2**61 - 1)


def _grid_number(rng, low, high):
    den = rng.choice(_GRID_DENOMS)
    return Fr(rng.randint(low * den, high * den), den)


def _grid_literal(x):
    # the same value under another denominator, so equal points have unequal texts
    k = random.Random(hash(x)).choice((1, 1, 2, 5))
    return f"{x.numerator * k}/{x.denominator * k}"


def _grid_point(rng, pod, rays=True):
    """A random line or multipod point (from the --multipod arm count) and its text."""
    if pod:
        if rng.random() < 0.2:
            return "hub", "hub"
        arm, off = rng.randrange(pod), _grid_number(rng, 0, 1)
        return (arm, off), f"arm {arm} {_grid_literal(off)}"
    if rays and rng.random() < 0.1:
        return (LINE_PLUS, "+inf") if rng.random() < 0.5 else (LINE_MINUS, "-inf")
    x = _grid_number(rng, -3, 3)
    return x, _grid_literal(x)


def _grid_expected_converge(oracle, terms, limit, dirs):
    """Report lines and exit code of converge from the center-query reference."""
    lines, refuting = [], None

    def inside(d, r):
        return not oracle.points_equal(r, d.base) and helpers.reference_in_direction(oracle, d, r)

    for d in dirs:
        if not inside(d, limit):
            continue
        last = max((i for i, r in enumerate(terms) if not inside(d, r)), default=-1)
        base, rep = (format_oracle_point(p, oracle) for p in (d.base, d.representative))
        lines.append(f"probe dir[{base} -> {rep}]: last outside index {last}")
        if last == len(terms) - 1 and refuting is None:
            refuting = d
    code = 2 if not lines else 0 if refuting is None else 1
    return [f"probes: {len(dirs)} total, {len(lines)} containing the limit", *lines], code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["liminf", "converge", "extract"]), st.sampled_from([0, 1, 3, 5]), st.integers(0, 2**32 - 1))
@example("liminf", 3, 1)
@example("converge", 0, 2)
@example("converge", 0, 6)  # refuted: the sequence ends at +inf, the witness's term
@example("converge", 0, 47)  # refuted: the sequence ends at -inf
def test_observers_on_the_grid_report_as_the_references(tmp_path, capsys, command, pod, seed):
    """liminf, converge and extract on the line (pod 0) and the multipod (pod
    arms) report the points, certificates, probe lines, indices and exit
    codes of the slow references run on the Fraction points, with mixed and
    huge denominators, ends, the hub, probe files and auto:<k>; a
    direction_exit witness replays, line ends included."""
    rng = random.Random(seed)
    oracle = MultipodOracle(pod) if pod else LineOracle()
    flag = ["--multipod", str(pod)] if pod else ["--line"]
    n = rng.randint(1, 14)
    terms, texts = zip(*(_grid_point(rng, pod) for _ in range(n)))
    terms = list(terms)
    (tmp_path / "s.seq").write_text("".join(t + "\n" for t in texts))
    argv = ["observers", command, *flag, "--seq", str(tmp_path / "s.seq"), "--depth", str(n)]
    dirs = None
    if command != "liminf":
        if rng.random() < 0.4:
            k = rng.randint(2, 6)
            spec, dirs = f"auto:{k}", subbasis_from_sample(oracle, oracle.sample_stream(), k)
        else:
            dirs, rows = [], []
            while len(dirs) < rng.randint(1, 5):
                (base, bt), (rep, rt) = _grid_point(rng, pod, rays=False), _grid_point(rng, pod)
                if not oracle.points_equal(base, rep):
                    dirs.append(Direction(base, rep))
                    rows.append(f"{bt.replace(' ', ':')} | {rt}\n")
            spec = str(tmp_path / "d.dirs")
            (tmp_path / "d.dirs").write_text("".join(rows))
        argv += ["--probes" if command == "converge" else "--dirs", spec]
    point, text = _grid_point(rng, pod, rays=command == "converge")
    if command == "liminf":
        head = rng.choice([None, 0, rng.randint(0, n)])
        argv += ["--basepoint=" + text.replace(" ", ":")] + ([] if head is None else ["--head", str(head)])
        ref = helpers.reference_liminf(oracle, point, terms, head)
        expected = [f"terms used: {n} (head {ref.head})", f"liminf: {format_oracle_point(ref.point, oracle)}",
                    f"certificate: {format_number(ref.certificate)}"]
        code = 0 if ref.certificate <= Fr(1, 10**9) else 2
    elif command == "converge":
        argv.append("--limit=" + text.replace(" ", ":"))
        expected, code = _grid_expected_converge(oracle, terms, point, dirs)
    else:
        basepoint = point if rng.random() < 0.5 else None
        argv += [] if basepoint is None else ["--basepoint=" + text.replace(" ", ":")]
        indices, exhausted = helpers.reference_extract_window(oracle, terms, dirs)
        if basepoint is None:
            # the first kept term that is not a line end
            basepoint = next((terms[i] for i in indices if not oracle.is_boundary(terms[i])), None)
        if basepoint is None:
            message = "every kept term is a boundary point; give a basepoint"
            assert run_cli(capsys, *argv)[::2] == (65, f"parameter error: {message}\n")
            return
        ref = helpers.reference_liminf(oracle, basepoint, [terms[i] for i in indices])
        expected = ["indices: " + " ".join(map(str, indices)),
                    f"limit estimate: {format_oracle_point(ref.point, oracle)}",
                    f"certificate: {format_number(ref.certificate)}"]
        code = 2 if exhausted is not None or ref.certificate > Fr(1, 10**9) else 0
    got_code, out, err = run_cli(capsys, *argv)
    assert (got_code, err) == (code, "")
    lines = out.splitlines()[2:]
    assert [line for line in lines if not line.startswith(("RESULT", "WITNESS"))] == expected
    witnesses = [json.loads(line[len("WITNESS "):]) for line in lines if line.startswith("WITNESS ")]
    assert len(witnesses) == (code == 1 and command == "converge")
    assert all(replay_witness(w) for w in witnesses)


def test_observers_name_the_first_bad_multipod_offset_in_file_units(tmp_path, capsys):
    """The fold meets arm 1 at 5/4 before the file's first bad term, and the
    error names it as the file writes it."""
    seq = tmp_path / "bad.seq"
    seq.write_text("arm 1 1/2\narm 2 3/2\narm 1 5/4\narm 0 1/3\n")
    argv = ["observers", "liminf", "--multipod", "3", "--seq", str(seq), "--basepoint", "arm:0:1/2", "--depth", "4"]
    assert run_cli(capsys, *argv) == (
        65,
        "rtreelab observers liminf\n"
        f"config: basepoint=arm:0:1/2 depth=4 line=False multipod=3 seq={seq} tol=1e-9 seed=0\n",
        "parameter error: offset 5/4 outside [0, 1]\n",
    )


@pytest.fixture
def fraction_count(monkeypatch):
    """The number of Fractions constructed so far, as a callable."""
    made, new = [0], Fr.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fr, "__new__", counting)
    return lambda: made[0]


@pytest.mark.parametrize("n", [250, 500])
def test_observers_line_makes_fractions_only_for_its_report(tmp_path, capsys, fraction_count, n):
    """liminf on the line runs on ints: a rational file of n terms makes the
    same few Fractions at any n, for the tolerance and the reported values."""
    rng = random.Random(n)
    terms = [Fr(rng.randint(-500, 500), rng.choice((3, 7, 8, 11, 12))) for _ in range(n)]
    (tmp_path / "s.seq").write_text("".join(f"{x.numerator}/{x.denominator}\n" for x in terms))
    before = fraction_count()
    code, out, _ = run_cli(capsys, "observers", "liminf", "--line", "--seq", str(tmp_path / "s.seq"),
                           "--basepoint=-100/3", "--depth", str(n))
    made = fraction_count() - before
    assert code in (0, 2) and "liminf: " in out
    assert made <= 6


def test_parse_tree_makes_a_fraction_per_designated_point_only(fraction_count):
    """Edge literals go to the build as integer ratios and a designated point
    is kept as its address, so the build makes no Fraction; only each
    designated point's Location offset is one, made when it is asked for."""
    rng = random.Random(5)
    lines = [f"edge v{i} v{i + 1} {rng.randint(1, 99)}/{rng.choice((2, 3, 5, 7))}" for i in range(200)]
    lines += [f"point p{i} v{i} v{i + 1} 1/{rng.choice((4, 9, 11))}" for i in range(0, 200, 20)]
    before = fraction_count()
    tree = parse_tree("\n".join(lines) + "\n")
    assert fraction_count() == before
    points = tree.designated
    assert fraction_count() - before == 10 == len(points)


def _primes_from(low: int, count: int) -> list[int]:
    out, x = [], low
    while len(out) < count:
        x += 1
        if all(x % p for p in range(2, math.isqrt(x) + 1)):
            out.append(x)
    return out


@pytest.mark.parametrize("count", [80, 300])
def test_observers_line_with_many_large_denominators(tmp_path, capsys, count):
    """Distinct prime denominators near 10^5: 80 of them put S past the
    float range (an int coordinate no longer converts to a float), and 300
    put it past the grid's bound, where the points stay Fractions; liminf,
    extract and converge report as the references, a term of 1e400
    included."""
    rng = random.Random(count)
    terms = [Fr(rng.randint(-5 * p, 5 * p), p) for p in _primes_from(10**5, count)] + [Fr(10**400)]
    rng.shuffle(terms)
    (tmp_path / "s.seq").write_text("".join("1e400\n" if x == 10**400 else f"{x.numerator}/{x.denominator}\n" for x in terms))
    seq, line, n = str(tmp_path / "s.seq"), LineOracle(), len(terms)
    code, out, err = run_cli(capsys, "observers", "liminf", "--line", "--seq", seq, "--basepoint=0", "--depth", str(n))
    ref = helpers.reference_liminf(line, Fr(0), terms)
    assert (code, err) == (0 if ref.certificate <= Fr(1, 10**9) else 2, "")
    assert f"liminf: {format_number(ref.point)}\ncertificate: {format_number(ref.certificate)}\n" in out
    dirs = subbasis_from_sample(line, line.sample_stream(), 4)
    indices, _ = helpers.reference_extract_window(line, terms, dirs)
    ref = helpers.reference_liminf(line, terms[indices[0]], [terms[i] for i in indices])
    code, out, err = run_cli(capsys, "observers", "extract", "--line", "--seq", seq, "--dirs", "auto:4", "--depth", str(n))
    assert err == "" and "indices: " + " ".join(map(str, indices)) + "\n" in out
    assert f"limit estimate: {format_number(ref.point)}\ncertificate: {format_number(ref.certificate)}\n" in out
    expected, code = _grid_expected_converge(line, terms, Fr(10**400), subbasis_from_sample(line, line.sample_stream(), 5))
    got = run_cli(capsys, "observers", "converge", "--line", "--seq", seq, "--limit=1e400", "--probes", "auto:5",
                  "--depth", str(n))
    assert got[::2] == (code, "") and "\n".join(expected) in got[1]
