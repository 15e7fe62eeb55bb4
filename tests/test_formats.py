import math
import random
from fractions import Fraction as Fr
from itertools import accumulate, combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from rtreelab.cli import main
from rtreelab.formats import (
    _CHUNK,
    FormatError,
    _chunks,
    format_number,
    format_oracle_point,
    format_point,
    format_tree,
    parse_action_file,
    parse_boundary_pairs,
    parse_directions,
    parse_length_table,
    parse_number,
    parse_oracle_point,
    parse_pair_file,
    parse_ratio,
    parse_sequence,
    parse_table,
    parse_tree,
    parse_witness_lines,
    replay_witness,
    witness_line,
)
from rtreelab.oracles import LINE_MINUS, LINE_PLUS, LineOracle, MultipodOracle
from rtreelab.tree import Location, MetricTree
from rtreelab.words import Basis

import helpers

TREE_TEXT = """
# a path with one marked point
edge A B 1
edge B C 3/2
point M B C 1/2
"""


def test_parse_tree_round_trip():
    tree = parse_tree(TREE_TEXT)
    assert tree.distance("A", "C") == Fr(5, 2)
    assert tree.distance("A", "M") == Fr(3, 2)
    again = parse_tree(format_tree(tree))
    assert again.distance("A", "M") == Fr(3, 2)
    assert again.edges == tree.edges


def test_parse_tree_errors():
    with pytest.raises(FormatError):
        parse_tree("edge A B\n")
    with pytest.raises(FormatError):
        parse_tree("edge A B 1\npoint .s1 A B 1/2\n")
    with pytest.raises(FormatError):
        parse_tree("squiggle A B 1\n")
    with pytest.raises(FormatError):
        parse_tree("# nothing\n")
    with pytest.raises(FormatError):
        parse_tree("edge A B 0\n")


def test_parse_number_and_format():
    assert parse_number("3/4") == Fr(3, 4)
    assert parse_number("1.25") == Fr(5, 4)
    assert format_number(Fr(3, 4)) == "3/4"
    assert format_number(Fr(4)) == "4"
    assert format_number(math.inf) == "inf"
    with pytest.raises(FormatError):
        parse_number("1/0")
    with pytest.raises(FormatError):
        parse_number("abc")


def test_parse_table():
    table = parse_table("dist a b 1\ndist b c 1\ndist a c 2\n")
    assert table.distance("a", "c") == 2
    with pytest.raises(FormatError):
        parse_table("dist a b\n")
    with pytest.raises(FormatError):
        parse_table("dist a b 10\ndist b c 1\ndist a c 2\n")  # triangle fails


def test_parse_sequence_per_oracle():
    line_pts = parse_sequence("0\n1/2\n-3\n", LineOracle())
    assert line_pts == [0, Fr(1, 2), -3]
    pod_pts = parse_sequence("hub\narm 2 1\narm 0 1/2\n", MultipodOracle(4))
    assert pod_pts == ["hub", (2, 1), (0, Fr(1, 2))]
    tree = parse_tree(TREE_TEXT)
    tree_pts = parse_sequence("A\nM\nedge B C 1\n", None, tree)
    assert tree_pts[0] == "A"
    assert tree.same_point(tree_pts[2], Location(("B", "C"), 1))


def test_parse_sequence_reads_a_repeated_line_as_its_first_occurrence():
    tree = parse_tree("edge u v 2\nedge v w 1\n")
    lines = ["u", "edge u v 1/2", "edge v u 1/2", "u", "edge u v 1/2", "edge v u 3/2", "edge v u 1/2", "w"]
    pts = parse_sequence("\n# a comment\n".join(lines) + "\n", None, tree)
    assert pts == [parse_oracle_point(line.split(), None, tree) for line in lines]
    assert pts[1] is pts[4] and pts[2] is pts[6]
    # the two orientations of one edge are two lines: one point, two Locations
    assert pts[5] == Location(("v", "u"), Fr(3, 2)) != pts[1] and tree.same_point(pts[1], pts[5])
    assert not tree.same_point(pts[1], pts[2])
    assert parse_sequence("1/2\n2/4\n1/2\n-inf\n1/2 \n", LineOracle()) == [Fr(1, 2)] * 3 + [LINE_MINUS, Fr(1, 2)]
    pod = parse_sequence("arm 0 1\nhub\narm  0  1\narm 0 2/2\nhub\n", MultipodOracle(2))
    assert pod == [(0, 1), "hub", (0, 1), (0, 1), "hub"]


@pytest.mark.parametrize(
    "text, oracle, error",
    [
        ("arm 0 1\nhub\n\narm 0 x\narm 0 1\narm 0 x\n", MultipodOracle(2), "line 4: bad number 'x'"),
        ("1\n# two\n1\n2 3\n1\n2 3\n", LineOracle(), "line 4: bad line point '2 3'"),
        ("hub\nhub\nspoke 1\nhub\nspoke 1\n", MultipodOracle(2), "line 3: bad multipod point 'spoke 1'"),
    ],
)
def test_parse_sequence_reports_the_first_bad_line_when_it_repeats(text, oracle, error):
    with pytest.raises(FormatError) as info:
        parse_sequence(text, oracle)
    assert str(info.value) == error


def test_parse_oracle_point_colon_form():
    assert parse_oracle_point("arm:3:1/2", MultipodOracle(5)) == (3, Fr(1, 2))
    assert parse_oracle_point("+inf", LineOracle()) == LINE_PLUS


def test_format_oracle_point_round_trips():
    pod = MultipodOracle(4)
    assert format_oracle_point((2, Fr(1, 2)), pod) == "arm 2 1/2"
    assert format_oracle_point("hub", pod) == "hub"
    line = LineOracle()
    assert format_oracle_point(Fr(-3, 2), line) == "-3/2"
    assert format_oracle_point(LINE_PLUS, line) == "+inf"


def test_parse_directions():
    dirs = parse_directions("0 | 1\n-1 | +inf\n", LineOracle())
    assert dirs[0].base == 0 and dirs[0].representative == 1
    assert dirs[1].representative == LINE_PLUS


def test_parse_action_file():
    rows = parse_action_file("line\nweight a 1\nweight b sqrt:2\n")
    assert rows == [("a", "1"), ("b", "sqrt:2")]
    with pytest.raises(FormatError):
        parse_action_file("weight a 1\n")


def test_parse_pair_file():
    t0, t1 = parse_pair_file("edge A B 1 3\nedge B C 2 1\npoint M A B 1/2 3/4\n")
    assert t0.edge_length("A", "B") == 1
    assert t1.edge_length("A", "B") == 3
    assert t0.distance("A", "M") == Fr(1, 2)
    assert t1.distance("A", "M") == Fr(3, 4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("edge A B 1\n", "line 1: bad pair record"),
        ("edge A B 1 2 3\n", "line 1: bad pair record"),
        ("edge A B 1 2\npoint p A B 1/2\n", "line 2: bad pair record"),
        ("edge A B 1 2\n\n# a comment\nvertex A\n", "line 4: bad pair record"),
        ("edge A B 1 2\npoint .s A B 1/2 1\n", "line 2: point names must not start with '.'"),
        ("edge A B 1 2\npoint .s A B 1/2\n", "line 2: bad pair record"),
        ("squiggle\nedge A B 1 x\n", "line 1: bad pair record"),
        ("edge A B 1 x\nsquiggle\n", "bad number 'x'"),
        ("point p A B 1 2\n", "pair file has no edges"),
        ("edge A B 1 2\nedge B A 1 2\n", "duplicate edge B-A"),
        ("edge A B 1 0\n", "edge A-B has nonpositive length 0"),
        ("edge A B 1 2\npoint p A B 3/2 1\n", "offset 3/2 outside edge ('A', 'B') of length 1"),
        ("edge A B 1 2\npoint p A B 1/2 5/2\n", "offset 5/2 outside edge ('A', 'B') of length 2"),
        ("edge A B 1 2\npoint p B A 1/2 -1/2\n", "offset 5/2 outside edge ('A', 'B') of length 2"),
        # the first column's tree is built first, so its error wins
        ("edge A B 1 2\npoint p A B 1/2 3\npoint q A B 5 1\n", "offset 5 outside edge ('A', 'B') of length 1"),
    ],
)
def test_pair_file_errors_and_which_one_wins(text, message):
    """A bad pair file raises one FormatError with this exact message: the
    first bad record or number in line order, then the first tree's
    structure error, then the second's."""
    with pytest.raises(FormatError) as raised:
        parse_pair_file(text)
    assert str(raised.value) == message


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\x85"])
def test_pair_file_errors_are_numbered_past_a_chunk_boundary(newline):
    """A pair text of more than two chunks names a bad record by its line
    number in the file, whatever its line break."""
    edges = [f"edge vertex{i} vertex{i + 1} {i % 7 + 1} {i % 5 + 1}" for i in range(5000)]
    lines = ["# a path"] + edges[:3000] + ["", "edge vertex1 vertex2 1"] + edges[3000:]
    text = newline.join(lines) + newline
    assert len(newline.join(lines[:3002])) > _CHUNK and len(list(_chunks(text))) > 2
    with pytest.raises(FormatError, match=r"^line 3003: bad pair record$"):
        parse_pair_file(text)
    lines[3002] = "point .q vertex1 vertex2 1/2 1 # a comment"
    with pytest.raises(FormatError, match=r"^line 3003: point names must not start with '.'$"):
        parse_pair_file(newline.join(lines))
    lines[3002] = "point q vertex1 vertex2 1/2 1"
    t0, t1 = parse_pair_file(newline.join(lines))
    assert (t0.distance("vertex0", "q"), t1.distance("vertex0", "q")) == (Fr(3, 2), 2)


def test_parse_length_table():
    table = parse_length_table("a 1\nab 2\n1 0\n")
    assert table["a"] == 1 and table[""] == 0


def test_parse_boundary_pairs():
    pairs = parse_boundary_pairs(";a | ;A\nab;ba | ;b\n", Basis(2))
    assert pairs == [(";a", ";A"), ("ab;ba", ";b")]


def test_format_point_prefers_names():
    tree = parse_tree(TREE_TEXT)
    assert format_point(tree, "M") == "M"
    assert format_point(tree, Location(("B", "C"), Fr(1, 2))) == "M"
    assert format_point(tree, Location(("A", "B"), Fr(1, 3))) == "edge A B 1/3"


# -- witnesses ------------------------------------------------------------------


def test_witness_round_trip_four_point():
    payload = {
        "quadruple": ["a", "b", "c", "d"],
        "distances": {
            "a|b": Fr(1),
            "a|c": Fr(2),
            "a|d": Fr(1),
            "b|c": Fr(1),
            "b|d": Fr(2),
            "c|d": Fr(1),
        },
        "delta": Fr(0),
        "margin": Fr(1),  # min((a,b)_d, (b,c)_d) - (a,c)_d = 1 - 0
    }
    line = witness_line("four_point", payload)
    records = parse_witness_lines("junk\n" + line + "\nmore junk\n")
    assert len(records) == 1
    assert replay_witness(records[0])


def test_witness_four_point_rejects_wrong_margin():
    payload = {
        "quadruple": ["a", "b", "c", "d"],
        "distances": {
            "a|b": Fr(1),
            "a|c": Fr(2),
            "a|d": Fr(1),
            "b|c": Fr(1),
            "b|d": Fr(2),
            "c|d": Fr(1),
        },
        "delta": Fr(0),
        "margin": Fr(1, 3),  # wrong on purpose
    }
    assert not replay_witness(parse_witness_lines(witness_line("four_point", payload))[0])


def test_witness_direction_exit():
    line = witness_line(
        "direction_exit",
        {"d_base_rep": Fr(1, 2), "d_base_term": Fr(1, 2), "d_rep_term": Fr(1), "term_index": 9},
    )
    assert replay_witness(parse_witness_lines(line)[0])


def test_witness_fiber_mismatch():
    rays = witness_line(
        "fiber_mismatch", {"first": "+inf", "second": "-inf", "residual": math.inf, "tol": 1e-6}
    )
    assert replay_witness(parse_witness_lines(rays)[0])
    near = witness_line(
        "fiber_mismatch", {"first": "0.5", "second": "0.5", "residual": 0.0, "tol": 1e-6}
    )
    assert not replay_witness(parse_witness_lines(near)[0])


def test_witness_axiom():
    line = witness_line(
        "axiom",
        {"axiom": "product", "u": "a", "v": "a", "values": {"uv": 4, "uv_inv": 0, "u": 1, "v": 1}},
    )
    assert replay_witness(parse_witness_lines(line)[0])


@pytest.mark.parametrize("kind", ["mystery", "realization_mismatch"])
def test_unknown_witness_kind(kind):
    with pytest.raises(FormatError):
        replay_witness({"kind": kind})


_LITERAL_PIECES = st.sampled_from(
    ["0", "1", "7", "12", "007", "+", "-", "/", "/0", ".", "e", "E", "e-", "1_0", " ", "\t", "x", "٣", "²", "inf", "nan"]
)
_LITERALS = st.one_of(
    st.lists(_LITERAL_PIECES, min_size=0, max_size=6).map("".join),
    st.builds(
        "{}{}{}/{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "+", "-", "--"]),
        st.integers(0, 10**30),
        st.integers(0, 99),
        st.sampled_from(["", " ", "x"]),
    ),
    st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), st.integers(0, 10**30)),
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        st.integers(0, 999),
        st.integers(0, 999),
        st.integers(-5, 5),
    ),
    st.text(max_size=8),
)


def _fraction(text):
    """Fraction(text), but a ValueError for a literal whose decimal exponent
    exceeds 4300, before Fraction builds its power of ten."""
    _, e, exponent = text.strip().lower().rpartition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > 4300
    except ValueError:
        huge = False
    if huge:
        raise ValueError(text)
    return Fr(text)


@settings(max_examples=500, deadline=None)
@given(_LITERALS)
def test_number_literals_read_as_fraction_reads_them(text):
    """The literal fast path against Fraction(text): the same value, or the
    same 'bad number' error."""
    try:
        expected = _fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError, match="^bad number ") as exc:
            parse_number(text)
        assert str(exc.value) == f"bad number {text!r}"
        with pytest.raises(FormatError) as exc_ratio:
            parse_ratio(text)
        assert str(exc_ratio.value) == str(exc.value)
        return
    assert parse_number(text) == expected
    num, den = parse_ratio(text)
    assert den > 0 and Fr(num, den) == expected


@pytest.mark.parametrize("text", ["1e7007007007", "-2.5E-9_999_999_999", "007e007007007007", "1e4301"])
def test_number_literal_with_a_huge_exponent_is_a_bad_number(text):
    with pytest.raises(FormatError, match="^bad number "):
        parse_number(text)
    assert parse_number("1e4300") == 10**4300 and parse_number("-1E-4_300") == Fr(-1, 10**4300)


@pytest.mark.parametrize("text", ["3/0", "-0/0", "1/-2", "+-1", "1 /2", "١٢/٣", "²", "1" * 5000])
def test_number_literal_edge_cases_match_fraction(text):
    try:
        expected = Fr(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError, match="^bad number "):
            parse_number(text)
        return
    assert parse_number(text) == expected


# -- the chunked reader ---------------------------------------------------------

_TOKEN_LITERALS = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(0, 40)),
    st.builds(str, st.integers(0, 10**6)),
    st.sampled_from(["+3", "-1/2", "0", "2.5", "1e2", "07", "1_0", "x", "1/", "/2", "1//2", "٣", "1" * 5000]),
    st.text("0123456789/.+-e", min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKEN_LITERALS, min_size=3, max_size=6))
@example(["5e7669", "65536/11", "8970"])
@example(["0", "0e4301", "x"])
def test_table_literals_read_as_the_reference_reads_them(literals):
    """A column of literals, read at once when every one is an unsigned
    ASCII p or p/q, else one by one: the reference's values or first error."""
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a"), ("b", "a"), ("c", "b")]
    helpers.assert_parses_as_reference("".join(f"dist {x} {y} {v}\n" for (x, y), v in zip(pairs, literals)))


def _chunked_table(rng, fault, newline):
    """The lines of a table text of about three chunks with this line break:
    a line metric's rows repeated in random orders and orientations, comment
    lines, one row whose line break ends exactly at the first chunk
    boundary, and the fault after that row (a bad number, when a bad row
    follows, before it; two conflicting rows at the end)."""
    xs = {f"p{i}": rng.randint(0, 60) + Fr(i, 64) for i in range(12)}

    def row():
        p, q = rng.sample(sorted(xs), 2)
        d = abs(xs[p] - xs[q])
        return f"dist {p} {q} {d}" if rng.random() < 0.8 else f"dist {p} {q} {2 * d.numerator}/{2 * d.denominator}"

    lines = [f"dist {p} {q} {abs(xs[p] - xs[q])}" for p, q in combinations(sorted(xs), 2)]
    size = sum(len(line) + len(newline) for line in lines)
    while size < _CHUNK - 200:
        lines.append(row() if rng.random() < 0.9 else "# " + "x" * rng.randint(0, 80))
        size += len(lines[-1]) + len(newline)
    last = row()
    lines.append("#" * (_CHUNK + 1 - size - 2 * len(newline) - len(last)))
    lines.append(last)
    boundary = len(lines)
    for _ in range(2 * boundary):
        lines.append(row() + (" # dist a b 1" if rng.random() < 0.05 else ""))
    at = rng.randrange(boundary, len(lines))
    if fault == "bad row":
        lines.insert(at, rng.choice(["dist p1 p2", "dst p1 p2 1", "dist p1 p2 1 1"]))
    elif fault == "bad number":
        lines[at] = lines[at].split("#")[0].rsplit(" ", 1)[0] + " " + rng.choice(["1/0", "1.2.3", "1" * 5000])
    elif fault == "bad number before bad row":
        bad = "dist p1 p2 --1"
        # over a line at least as long, padded, so the boundary stays
        at_number = rng.choice([i for i in range(boundary - 1) if len(lines[i]) >= len(bad)])
        lines[at_number] = bad.ljust(len(lines[at_number]))
        lines.insert(at, "dist p1 p2")
    elif fault == "conflicts":  # the last rows of their orders, so they stand
        for p, q in rng.sample(list(combinations(sorted(xs), 2)), 2):
            lines.append(f"dist {p} {q} {abs(xs[p] - xs[q]) + 1}" if rng.random() < 0.5 else f"dist {q} {p} 1/3")
    return lines, boundary


@settings(max_examples=15, deadline=None)
@example(fault="bad number before bad row", newline="\n", seed=35578)
@given(
    st.sampled_from(["none", "bad row", "bad number", "bad number before bad row", "conflicts"]),
    st.sampled_from(["\n", "\r\n", "\x85", "mixed"]),
    st.integers(0, 2**32 - 1),
)
def test_a_table_of_several_chunks_reads_as_the_reference(fault, newline, seed):
    rng = random.Random(seed)
    lines, boundary = _chunked_table(rng, fault, "\n" if newline == "mixed" else newline)
    if newline == "mixed":
        text = "".join(line + rng.choice(["\n", "\r", "\r\n", "\u2028", "\x0c"]) for line in lines)
    else:
        text = "".join(line + newline for line in lines)
        # the row before the boundary ends the first chunk
        assert text[_CHUNK] == newline[-1] and len(text[: _CHUNK + 1].splitlines()) == boundary
    table = helpers.assert_parses_as_reference(text)
    assert (table is None) == (fault != "none")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x85", "\u2028"])
def test_tree_errors_are_numbered_past_a_chunk_boundary(newline):
    """A text of about 150,000 characters is read as more than one chunk
    whatever its line break, with the same line numbers and messages."""
    edges = [f"edge vertex{i} vertex{i + 1} {i % 7 + 1}" for i in range(5000)]
    lines = ["# a path"] + edges[:3000] + ["", "edge vertex1 vertex2"] + edges[3000:]
    text = newline.join(lines) + newline
    assert len(newline.join(lines[:3002])) > _CHUNK and len(text) > 2 * _CHUNK
    chunks = list(_chunks(text))
    assert len(chunks) > 2 and [first for first, _ in chunks] == list(
        accumulate((len(rows) for _, rows in chunks[:-1]), initial=1))
    assert [fields for _, rows in chunks for fields in rows] == [line.partition("#")[0].split() for line in lines]
    with pytest.raises(FormatError, match=r"^line 3003: edge needs <v1> <v2> <length>$"):
        parse_tree(text)
    lines[3002] = "point q vertex1 vertex2 1/2 # a comment"
    lines.insert(4500, "squiggle")
    with pytest.raises(FormatError, match=r"^line 4501: unknown record 'squiggle'$"):
        parse_tree(newline.join(lines))
    del lines[4500]
    assert parse_tree(newline.join(lines)).distance("vertex0", "q") == Fr(3, 2)


def _tree_literal(rng, x: Fr) -> str:
    """x as a file writes it: p/q, the same over another denominator, an
    int, or a decimal when it has one."""
    k = rng.choice((1, 3))
    forms = [f"{x.numerator * k}/{x.denominator * k}"]
    if x.denominator == 1:
        forms.append(str(x.numerator))
    if 10**6 % x.denominator == 0:
        forms.append(f"{float(x):.6f}")
    return rng.choice(forms)


def _assert_same_tree(got, want):
    assert got.edges == want.edges and got.point_names == want.point_names
    assert got.designated == want.designated
    names = got.point_names
    assert [[got.distance(p, q) for q in names] for p in names] == [[want.distance(p, q) for q in names] for p in names]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tree_files_build_the_trees_of_their_fractions(seed):
    """parse_tree and parse_pair_file hand integer ratios to the tree build;
    the trees equal the ones MetricTree builds from the Fractions: edges,
    designated points and distances."""
    rng = random.Random(seed)
    t0, lines, pair_lines = helpers.random_tree(rng, 8, edge_points=rng.randint(0, 3)), [], []
    for u, v, length in t0.edges:
        lines.append(f"edge {u} {v} {_tree_literal(rng, length)}")
    for name, loc in sorted(t0.designated.items()):
        lines.append(f"point {name} {loc.edge[0]} {loc.edge[1]} {_tree_literal(rng, loc.offset)}")
    _assert_same_tree(parse_tree("\n".join(lines) + "\n"), t0)
    # a second metric on t0's shape: its lengths scaled edge by edge
    factors = {(u, v): Fr(rng.randint(1, 9), rng.randint(1, 9)) for u, v, _ in t0.edges}
    edges1 = [(u, v, length * factors[u, v]) for u, v, length in t0.edges]
    for (u, v, l0), (_, _, l1) in zip(t0.edges, edges1):
        pair_lines.append(f"edge {u} {v} {_tree_literal(rng, l0)} {_tree_literal(rng, l1)}")
    points1 = []
    for name, loc in sorted(t0.designated.items()):
        f = factors[loc.edge]
        points1.append((name, *loc.edge, loc.offset * f))
        pair_lines.append(f"point {name} {loc.edge[0]} {loc.edge[1]} "
                          f"{_tree_literal(rng, loc.offset)} {_tree_literal(rng, loc.offset * f)}")
    p0, p1 = parse_pair_file("\n".join(pair_lines) + "\n")
    _assert_same_tree(p0, t0)
    _assert_same_tree(p1, MetricTree(edges1, points1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("edge A B -6/4\n", "edge A-B has nonpositive length -3/2"),
        ("edge A B 4/2\npoint P A B 5/2\n", "offset 5/2 outside edge ('A', 'B') of length 2"),
    ],
)
def test_tree_file_errors_name_the_reduced_values(tmp_path, capsys, text, message):
    """A tree file's bad length or offset is named as its reduced Fraction,
    by parse_tree and, with exit 64, by the CLI."""
    with pytest.raises(FormatError) as raised:
        parse_tree(text)
    assert str(raised.value) == message
    (tmp_path / "t.tree").write_text(text)
    assert main(["certify", "--tree", str(tmp_path / "t.tree")]) == 64
    assert capsys.readouterr().err == f"parse error: {message}\n"
