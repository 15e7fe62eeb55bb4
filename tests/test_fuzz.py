"""Seeded randomized consistency checks across the trickier code paths."""
import io
import json
import math
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Fr
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from rtreelab.boundary import BoundaryPoint, act
from rtreelab.cli import main
from rtreelab.formats import WITNESS_PREFIX, format_number
from rtreelab.hyperbolicity import InvalidTableError, MetricTable, reconstruct_tree
from rtreelab.observers import PointSequence, liminf_from
from rtreelab.oracles import FiniteTreeOracle
from rtreelab.words import Basis, cyclic_reduce, cyclically_reduced_words, reduce_word, reduced_words

from helpers import (
    leaf_tree_distances,
    nielsen_composites,
    random_tree,
    reference_max_gap,
    reference_point_on_segment,
)

B2 = Basis(2)


def random_point(rng, tree):
    names = list(tree.point_names)
    if rng.random() < 0.5:
        return rng.choice(names)
    u, v, length = rng.choice(tree.edges)
    from rtreelab.tree import Location

    return Location((u, v), length * Fr(rng.randint(0, 16), 16))


def test_segment_lengths_and_centers_on_random_trees_with_edge_points():
    rng = random.Random(17)
    for _ in range(60):
        tree = random_tree(rng, 9, edge_points=rng.randint(0, 3))
        pts = [random_point(rng, tree) for _ in range(5)]
        for p, q in combinations(pts, 2):
            pieces = tree.segment(p, q)
            assert sum(piece.length for piece in pieces) == tree.distance(p, q)
        for _ in range(6):
            p, q, r = (rng.choice(pts) for _ in range(3))
            z = tree.center(p, q, r)
            for x, y in ((p, q), (p, r), (q, r)):
                assert tree.distance(x, y) == tree.distance(x, z) + tree.distance(z, y)
        for _ in range(6):
            p, q, r = (rng.choice(pts) for _ in range(3))
            adds = tree.distance(p, r) + tree.distance(r, q) == tree.distance(p, q)
            assert reference_point_on_segment(tree, r, p, q) == adds


def test_point_along_is_inverse_of_distance():
    rng = random.Random(19)
    for _ in range(40):
        tree = random_tree(rng, 8, edge_points=rng.randint(0, 2))
        p, q = random_point(rng, tree), random_point(rng, tree)
        total = tree.distance(p, q)
        if total == 0:
            continue
        for k in range(5):
            t = total * Fr(k, 4)
            z = tree.point_along(p, q, t)
            assert tree.distance(p, z) == t
            assert tree.distance(z, q) == total - t


def test_reconstruct_round_trip_with_edge_point_tables():
    rng = random.Random(23)
    for _ in range(60):
        tree = random_tree(rng, 7, edge_points=rng.randint(1, 3))
        table = MetricTable.from_tree(tree)
        rebuilt = reconstruct_tree(table)
        for x, y in combinations(table.points, 2):
            assert rebuilt.distance(x, y) == table.distance(x, y)


def test_act_periodic_matches_reduce_oracle_broadly():
    rng = random.Random(29)
    blocks = cyclically_reduced_words(B2, 3)
    prefixes = [""] + reduced_words(B2, 2)
    words = reduced_words(B2, 6)
    checked = 0
    while checked < 300:
        prefix, block = rng.choice(prefixes), rng.choice(blocks)
        try:
            x = BoundaryPoint.periodic(B2, prefix, block)
        except ValueError:
            continue
        w = rng.choice(words)
        k = rng.randint(1, 15)
        expected = reduce_word(w + x.prefix(k + len(w)))[:k]
        got = act(w, x)
        assert got.prefix(k) == expected
        checked += 1


def test_liminf_head_parameter_bounds():
    rng = random.Random(31)
    tree = random_tree(rng, 6)
    oracle = FiniteTreeOracle(tree)
    names = list(tree.point_names)
    seq = PointSequence([rng.choice(names) for _ in range(10)])
    full = liminf_from(oracle, names[0], seq, depth=10, head=0)
    assert full.head == 0 and full.certificate == math.inf  # nothing compared
    assert not full.stabilized()
    clamped = liminf_from(oracle, names[0], seq, depth=10, head=99)
    assert clamped.head == 9  # capped at the last term
    assert oracle.points_equal(clamped.point, seq.point(9))


# -- CLI fuzz over line actions ------------------------------------------------------

_EXIT_CODES = {0, 1, 2, 64, 65}

_VALID_WEIGHT = st.one_of(
    st.integers(-4, 4).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(0, 13).map(lambda n: f"sqrt:{n}"),
)
_MALFORMED_WEIGHT = st.sampled_from(["sqrt:-2", "sqrt:x", "-sqrt:2", ""])


@st.composite
def _weights(draw):
    """Two or three weight literals, one in ten lists with a malformed one."""
    literals = draw(st.lists(_VALID_WEIGHT, min_size=2, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        literals[draw(st.integers(0, len(literals) - 1))] = draw(_MALFORMED_WEIGHT)
    return ",".join(literals)


@st.composite
def _reduced(draw, min_size=0):
    word = ""
    for c in draw(st.lists(st.sampled_from("abAB"), min_size=min_size, max_size=6)):
        if not word or word[-1] != c.swapcase():
            word += c
    return word


_MALFORMED_BOUNDARY = st.sampled_from(["ab", "ab;", "a;x", "A;ab", ";aA", ";abA"])


@st.composite
def _boundary(draw):
    """A prefix;block word, one in ten malformed: no ';', an empty block, an
    unknown letter, a prefix that cancels into the block or a block that is
    not cyclically reduced."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_MALFORMED_BOUNDARY)
    block = cyclic_reduce(draw(_reduced(1))) or "ab"
    prefix = draw(_reduced())
    while prefix and prefix[-1] == block[0].swapcase():
        prefix = prefix[:-1]
    return f"{prefix};{block}"


_NUMBERS = st.sampled_from(["0", "1/3", "1/2", "-2", "1e-6", "1/10", "1", "2", "x"])


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _assert_witnesses_replay(out: str) -> None:
    """Every WITNESS line of a report replays through ``rtreelab replay``."""
    if WITNESS_PREFIX not in out:
        return
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.txt")
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(out)
        replay_code, replay_out = _run(["replay", report])
    assert replay_code == 0 and "NOT CONFIRMED" not in replay_out


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["estimate", "fibers", "lamination", "smallwords", "lengths"]),
    _weights(),
    _weights(),
    _boundary(),
    _boundary(),
    _NUMBERS,
    st.integers(1, 4),
    st.one_of(st.integers(1, 400), st.just(10**12)),
    st.integers(1, 12),
    _NUMBERS,
)
@example("estimate", "1,sqrt:2", "1,1", "ab;abAB", ";a", "1/3", 1, 10**12, 1, "0")
@example("fibers", "1,sqrt:2,sqrt:3", "1,1", ";abAB", "aa;bABa", "1e-6", 1, 10**12, 1, "0")  # a witness
@example("lamination", "1,sqrt:2", "1,1", ";a", ";b", "1/3", 4, 10**12, 1, "0")
@example("lengths", "1,sqrt:2,sqrt:3", "1,sqrt:2,sqrt:3", ";a", ";b", "1/2", 1, 1, 12, "-2")  # every word fails
def test_line_action_commands_exit_cleanly_and_their_witnesses_replay(
    command, weights, weights1, x, y, number, maxlen, depth, lengths_maxlen, tol
):
    """Any sqrt:/rational weight list and boundary word gives a documented
    exit code and no traceback, and every printed WITNESS replays; estimate,
    fibers and lamination also run at depth 10**12, where a zero-drift word
    reads one period and a drifting one reads none, and blend lengths up to
    maxlen 12, whose vector walk never lists the words."""
    if command == "estimate":
        argv = ["qmap", "estimate", f"--weights={weights}", f"--word={x}", f"--basepoint={number}",
                "--depth", str(depth)]
    elif command == "fibers":
        argv = ["qmap", "fibers", f"--weights={weights}", f"--pair={x} | {y}", f"--tol={number}",
                "--depth", str(depth)]
    elif command == "lamination":
        argv = ["qmap", "lamination", f"--weights={weights}", f"--epsilon={number}", "--maxlen", str(maxlen),
                "--depth", str(depth)]
    elif command == "smallwords":
        argv = ["qmap", "smallwords", f"--weights={weights}", f"--epsilon={number}", "--maxlen", str(maxlen)]
    else:
        argv = ["blend", "lengths", f"--weights0={weights}", f"--weights1={weights1}",
                f"--lambda={number}", "--maxlen", str(lengths_maxlen), f"--tol={tol}"]
    code, out = _run(argv)
    assert code in _EXIT_CODES
    _assert_witnesses_replay(out)


# -- observers fuzz over the line with its ends ----------------------------------------

_LINE_POINT = st.sampled_from(["0", "1", "-2", "3", "1/3", "-7/2", "2/4", "0.5", "-0.25", "+inf", "-inf", "inf"])


@st.composite
def _line_observers_run(draw):
    """A line observers command as (command, sequence text, directions text
    or auto:<k> spec, further argv): terms, the basepoint or limit and both
    sides of each direction mix literals with the ends, a direction's
    representative is its base one time in five, k runs 0-6, --depth 0 to n+2 and
    --head -1 to n+1."""
    command = draw(st.sampled_from(["liminf", "converge", "extract"]))
    terms = draw(st.lists(_LINE_POINT, min_size=1, max_size=8))
    n = len(terms)
    args = ["--depth", str(draw(st.integers(0, n + 2)))]
    point = draw(_LINE_POINT)
    dirs = None
    if command == "liminf":
        args.append(f"--basepoint={point}")
        if draw(st.booleans()):
            args.append(f"--head={draw(st.integers(-1, n + 1))}")
    else:
        if draw(st.booleans()):
            dirs = f"auto:{draw(st.integers(0, 6))}"
        else:
            rows = draw(st.lists(st.tuples(_LINE_POINT, _LINE_POINT, st.integers(0, 4)), min_size=1, max_size=4))
            dirs = "".join(f"{b} | {r if k else b}\n" for b, r, k in rows)
        if command == "converge":
            args.append(f"--limit={point}")
        elif draw(st.booleans()):
            args.append(f"--basepoint={point}")
    return command, "".join(t + "\n" for t in terms), dirs, args


@settings(max_examples=200, deadline=None)
@given(_line_observers_run())
def test_line_observers_with_ends_exit_cleanly_and_their_witnesses_replay(run):
    """observers liminf, converge and extract on the line, with +inf and
    -inf among the terms, as the basepoint or limit and on either side of a
    direction, give a documented exit code and no traceback, and every
    printed WITNESS replays."""
    command, seq, dirs, args = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["observers", command, "--line", "--seq", os.path.join(tmp, "s.seq"), *args]
        with open(argv[4], "w", encoding="utf-8") as fh:
            fh.write(seq)
        if dirs is not None:
            spec = dirs if dirs.startswith("auto:") else os.path.join(tmp, "d.dirs")
            if spec != dirs:
                with open(spec, "w", encoding="utf-8") as fh:
                    fh.write(dirs)
            argv += ["--probes" if command == "converge" else "--dirs", spec]
        code, out = _run(argv)
    assert code in _EXIT_CODES
    _assert_witnesses_replay(out)


# -- blend axioms fuzz over markings and grids ---------------------------------------

_MALFORMED_MARKING = st.sampled_from(
    ["", "a", "a:a", "a:a,b", "a:x,b:b", "a:ab,b:ab", "a:,b:b", "a:a,c:c", ":a,b:b", "a:a,b:b,c:ab",
     "a:aa,b:b"]
)
_BAD_NUMBER = st.sampled_from(["-1/2", "3/2", "1e-400", "x", "1/0", ""])
_BAD_STEP = st.sampled_from(["0", "-1/4", "2", "1e-400", "1/1000000000", "x"])


@st.composite
def _grid(draw):
    """A comma list of lambdas or start:end:step, one in four with a part
    out of range, malformed, or a step that is zero, negative or makes more
    than 100000 points."""
    listed = draw(st.booleans())
    if listed:
        lambdas = st.sampled_from(["0", "1", "1/3", "0.25", "2/3", "0.1"])
        parts = draw(st.lists(lambdas, min_size=1, max_size=4))
        bad = _BAD_NUMBER
    else:
        parts = [draw(st.sampled_from(options)) for options in (["0", "1/4", "1/3"], ["1/2", "2/3", "1"])]
        parts.append(draw(st.sampled_from(["1/2", "1/3", "1/10", "0.25", "1"])))
        bad = _BAD_STEP if draw(st.booleans()) else _BAD_NUMBER
    if draw(st.integers(0, 3)) == 0:
        parts[draw(st.integers(0, len(parts) - 1))] = draw(bad)
    return ("," if listed else ":").join(parts)


@st.composite
def _blend_axioms_argv(draw):
    """Markings of one rank, 2 or 3, each a Nielsen composite as gen:image
    text or, one in six, malformed; marking0 half the time."""
    rank = draw(st.sampled_from([2, 3]))

    def marking():
        if draw(st.integers(0, 5)) == 0:
            return draw(_MALFORMED_MARKING)
        images = draw(st.sampled_from(nielsen_composites(rank, 3)))
        return ",".join(f"{g}:{w}" for g, w in zip("abc", images))

    argv = ["blend", "axioms", f"--marking={marking()}", f"--lambda-grid={draw(_grid())}"]
    argv += ["--maxlen", str(draw(st.integers(0, 4)))]
    return argv + [f"--marking0={marking()}"] if draw(st.booleans()) else argv


@settings(max_examples=120, deadline=None)
@given(_blend_axioms_argv())
def test_blend_axioms_exits_cleanly_and_its_witnesses_replay(argv):
    """Any marking (a Nielsen composite or malformed), with or without a
    marking0, on a grid of either syntax, gives a documented exit code and
    no traceback, and every printed WITNESS replays."""
    code, out = _run(argv)
    assert code in {0, 1, 64, 65}
    _assert_witnesses_replay(out)


# -- certify --table fuzz over near-tree tables --------------------------------------


# literals a row may take instead of its own, with their values; None for
# the ones the file format rejects (a zero denominator, an exponent above 4300)
_ROW_LITERALS = {
    "-3": Fr(-3), "0": Fr(0), "1/0": None, "1e400": Fr(10) ** 400, "1e4301": None, "7" * 41: Fr(int("7" * 41))
}


@st.composite
def _near_tree_table(draw):
    """A table file of 4-12 leaves of a random tree (``leaf_tree_distances``),
    with 0-3 distances moved by ±k/16; half the time the first move is on
    the anchor's row.  A move beyond 2 can break the triangle inequality.
    Sometimes one row's literal is one of ``_ROW_LITERALS``, and one point is
    renamed ``.s1`` (a Steiner-like name, which the realization skips) or
    ``up``.  Returns the text and its distances, or None for distances when
    a literal is rejected."""
    d = leaf_tree_distances(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(4, 12)))
    moves = draw(st.lists(st.sampled_from(sorted(d)), max_size=3))
    if moves and draw(st.booleans()):
        moves[0] = draw(st.sampled_from([key for key in sorted(d) if "q0" in key]))
    for key in moves:
        d[key] += draw(st.sampled_from([-1, 1])) * Fr(draw(st.integers(1, 48)), 16)
    literals = {key: format_number(v) for key, v in d.items()}
    if (literal := draw(st.none() | st.sampled_from(sorted(_ROW_LITERALS)))) is not None:
        key = draw(st.sampled_from(sorted(d)))
        literals[key], d[key] = literal, _ROW_LITERALS[literal]
    if (name := draw(st.none() | st.sampled_from([".s1", "up"]))) is not None:
        old = draw(st.sampled_from(sorted({p for key in d for p in key})))

        def rename(key):
            return tuple(name if p == old else p for p in key)

        literals, d = {rename(k): v for k, v in literals.items()}, {rename(k): v for k, v in d.items()}
    text = "".join(f"dist {x} {y} {v}\n" for (x, y), v in literals.items())
    return text, None if None in d.values() else d


@settings(max_examples=150, deadline=None)
@given(_near_tree_table(), st.fractions(0, 2, max_denominator=64))
def test_certify_table_on_near_tree_tables_exits_cleanly_and_its_witnesses_replay(case, delta):
    """certify --table at delta 0, at the defect and at a random delta: a
    table that is no metric or holds a bad literal is a parse error, any
    other prints the reference defect, and every printed WITNESS replays."""
    text, d = case
    try:
        table = None if d is None else MetricTable(d)
    except InvalidTableError:
        table = None
    defect = None if table is None else Fr(reference_max_gap(table), 2 * table.scale)
    with tempfile.TemporaryDirectory() as tmp:
        path, report = os.path.join(tmp, "table.metric"), os.path.join(tmp, "report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for value in {Fr(0), delta} if defect is None else {Fr(0), defect, delta}:
            code, out = _run(["certify", "--table", path, f"--delta={format_number(value)}"])
            if defect is None:
                assert code == 64
                continue
            assert code == (1 if defect > value else 0)
            assert f"four-point defect: {format_number(defect)}\n" in out
            if WITNESS_PREFIX in out:
                with open(report, "w", encoding="utf-8") as fh:
                    fh.write(out)
                replay_code, replay_out = _run(["replay", report])
                assert replay_code == 0 and "NOT CONFIRMED" not in replay_out


# -- replay fuzz over witness records ------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_WNUM = st.one_of(
    st.sampled_from(["0", "1/2", "-3", "2.5", "inf", "-inf", "1e400", "1/0", "x"]), st.integers(), st.floats()
)
_NAME = st.sampled_from("abcd")
_WITNESS_FIELDS = {
    "four_point": {
        "distances": st.lists(st.tuples(_NAME, _NAME, _WNUM).map(list), max_size=8)
        | st.dictionaries(st.tuples(_NAME, _NAME).map("|".join), _WNUM, max_size=6),
        "quadruple": st.lists(_NAME, min_size=3, max_size=5),
        "delta": _WNUM,
        "margin": _WNUM,
    },
    "axiom": {
        "axiom": st.sampled_from(["inversion", "conjugation", "product"]),
        "u": _NAME,
        "v": _NAME,
        "values": st.dictionaries(st.sampled_from(["u", "v", "uv", "uv_inv", "u_inv", "conjugated"]), _WNUM),
    },
    "direction_exit": dict.fromkeys(["d_base_rep", "d_base_term", "d_rep_term"], _WNUM),
    "fiber_mismatch": dict.fromkeys(["first", "second", "tol"], _WNUM | st.sampled_from(["+inf"])),
    "affine_deviation": dict.fromkeys(["lambda", "lf0", "lf1", "blend", "tol"], _WNUM),
}


@st.composite
def _witness_record(draw):
    """Arbitrary JSON, or a record of a known kind whose fields are each
    missing, of a plausible shape, or arbitrary JSON."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_JSON)
    kind = draw(st.sampled_from(sorted(_WITNESS_FIELDS)))
    record = {"kind": kind}
    for name, plausible in _WITNESS_FIELDS[kind].items():
        choice = draw(st.integers(0, 5))
        if choice:
            record[name] = draw(plausible if choice > 1 else _JSON)
    return record


@settings(max_examples=300, deadline=None)
@given(st.lists(_witness_record(), min_size=1, max_size=3))
def test_replay_of_any_witness_records_exits_cleanly(records):
    """replay confirms, refutes or rejects as a parse error any WITNESS
    line, and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.txt")
        with open(report, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{WITNESS_PREFIX}{json.dumps(r)}\n" for r in records))
        code, _ = _run(["replay", report])
    assert code in {0, 1, 64}
