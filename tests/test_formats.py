import math
import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rtreelab.formats import (
    _CHUNK,
    FormatError,
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
from rtreelab.oracles import LINE_PLUS, LineOracle, MultipodOracle
from rtreelab.tree import Location
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
        at_number = rng.randrange(boundary - 1)  # padded, so the boundary stays
        lines[at_number] = "dist p1 p2 --1".ljust(len(lines[at_number]))
        lines.insert(at, "dist p1 p2")
    elif fault == "conflicts":  # the last rows of their orders, so they stand
        for p, q in rng.sample(list(combinations(sorted(xs), 2)), 2):
            lines.append(f"dist {p} {q} {abs(xs[p] - xs[q]) + 1}" if rng.random() < 0.5 else f"dist {q} {p} 1/3")
    return lines, boundary


@settings(max_examples=15, deadline=None)
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


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\x85"])
def test_tree_errors_are_numbered_past_a_chunk_boundary(newline):
    edges = [f"edge vertex{i} vertex{i + 1} {i % 7 + 1}" for i in range(5000)]
    lines = ["# a path"] + edges[:3000] + ["", "edge vertex1 vertex2"] + edges[3000:]
    text = newline.join(lines) + newline
    assert len(newline.join(lines[:3002])) > _CHUNK and len(text) > 2 * _CHUNK
    with pytest.raises(FormatError, match=r"^line 3003: edge needs <v1> <v2> <length>$"):
        parse_tree(text)
    lines[3002] = "point q vertex1 vertex2 1/2 # a comment"
    lines.insert(4500, "squiggle")
    with pytest.raises(FormatError, match=r"^line 4501: unknown record 'squiggle'$"):
        parse_tree(newline.join(lines))
    del lines[4500]
    assert parse_tree(newline.join(lines)).distance("vertex0", "q") == Fr(3, 2)
