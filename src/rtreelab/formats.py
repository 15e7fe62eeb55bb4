"""Text formats: tree files, metric tables, point sequences, line-action
weights, compatible pairs, length tables, and self-contained witness
records.

Numbers in files are decimals or rationals ``p/q`` (parsed exactly);
weight values additionally admit ``sqrt:<n>`` literals.  ``#`` starts a
comment; blank lines are ignored.  Files are read a chunk of lines at a time.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import count
from typing import Iterator

from .hyperbolicity import MetricTable
from .oracles import LINE_MINUS, LINE_PLUS, LineOracle, MultipodOracle, TreeOracle, _infinite
from .surds import Surd
from .tree import Location, MetricTree


class FormatError(ValueError):
    pass


# Fraction("1e7007007007") would build a seven-billion-digit integer; an
# exponent above the default digit limit of int(str) is a bad number
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[+-]?([\d_]+)\s*$", re.IGNORECASE)


def parse_ratio(text: str) -> tuple[int, int]:
    """A number literal as (numerator, denominator), the denominator
    positive and not necessarily in lowest terms.  Signed ASCII integers
    and ``p/q`` take a fast path; any other literal is read by
    ``Fraction(text)``, unless its decimal exponent exceeds 4300."""
    head, slash, tail = text.partition("/")
    digits = head[1:] if head[:1] in ("+", "-") else head
    try:
        if digits.isascii() and digits.isdigit() and (not slash or tail.isascii() and tail.isdigit()):
            den = int(tail) if slash else 1
            if not den:
                raise ZeroDivisionError(text)
            return int(head), den
        exponent = _EXPONENT.search(text)
        if exponent and int(exponent[1]) > _MAX_EXPONENT:
            raise ValueError(text)
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad number {text!r}") from exc
    return value.numerator, value.denominator


def parse_number(text: str) -> Fraction:
    return Fraction(*parse_ratio(text))


def format_number(x) -> str:
    """A rational as an int or p/q, a float as its repr, and a Surd (a
    number with a nonzero irrational part) as the repr of its correctly
    rounded float."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, Surd):
        return repr(float(x))
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


_CHUNK = 1 << 16
# the line breaks of str.splitlines, a "\r\n" as one; the two breaks past
# Latin-1 stand alone, since a class holding them costs 128-256 KB to compile
_BREAK = re.compile("\r\n?|[\n\v\f\x1c-\x1e\x85]|\u2028|\u2029")


def _chunks(text: str) -> Iterator[tuple[int, list[list[str]]]]:
    """The fields of the lines of str.splitlines, a chunk of lines at a time
    with the number of its first line: a chunk runs to the first line break
    after about 64 K characters.  A comment starts at ``#``; a blank line has
    no fields."""
    lineno, start, end = 1, 0, len(text)
    while start < end:
        stop = _BREAK.search(text, start + _CHUNK)
        stop = stop.end() if stop else end
        chunk = text[start:stop]
        lines = chunk.splitlines()
        if "#" in chunk:
            lines = [line.partition("#")[0] for line in lines]
        yield lineno, list(map(str.split, lines))
        lineno += len(lines)
        start = stop


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for first, rows in _chunks(text):
        for lineno, fields in enumerate(rows, first):
            if fields:
                yield lineno, fields


def _bar_pairs(text: str, expected: str) -> Iterator[tuple[int, str, str]]:
    """The two sides of each ``<left> | <right>`` line."""
    for lineno, fields in _content_lines(text):
        left, bar, right = " ".join(fields).partition("|")
        if not bar:
            raise FormatError(f"line {lineno}: expected {expected}")
        yield lineno, left.strip(), right.strip()


# -- trees ---------------------------------------------------------------------


_TREE_USAGE = {"edge": "edge needs <v1> <v2> <length>", "point": "point needs <name> <v1> <v2> <offset>"}


def _tree_rows(text: str, columns: int, usage) -> tuple[list[list], list[list]]:
    """The ``edge <v1> <v2>`` and ``point <name> <v1> <v2>`` records of a
    tree or pair file, each followed by ``columns`` numbers, as edge and
    point rows: the fields after the kind, each distinct number literal read
    once into its integer ratio.  The first bad line is the error: a record
    of another kind or length is ``usage(kind)``, and a point name must not
    start with '.'; a bad number is named without its line."""
    edges, points, ratios = [], [], {}
    for first, lines in _chunks(text):
        for lineno, fields in enumerate(lines, first):
            if not fields:
                continue
            kind, numbers = fields[0], len(fields) - columns
            if kind == "edge" and numbers == 3:
                edges.append(row := fields[1:3])
            elif kind == "point" and numbers == 4:
                if fields[1].startswith("."):
                    raise FormatError(f"line {lineno}: point names must not start with '.'")
                points.append(row := fields[1:4])
            else:
                raise FormatError(f"line {lineno}: {usage(kind)}")
            for literal in fields[numbers:]:
                ratio = ratios.get(literal)
                if ratio is None:
                    ratio = ratios[literal] = parse_ratio(literal)
                row.append(ratio)
    return edges, points


def _built(what: str, *columns: tuple[list, list]) -> tuple[MetricTree, ...]:
    """One tree per (edges, points) column."""
    if not columns[0][0]:
        raise FormatError(f"{what} file has no edges")
    try:
        return tuple(MetricTree(edges, points) for edges, points in columns)
    except (ValueError, KeyError) as exc:
        raise FormatError(str(exc)) from exc


def parse_tree(text: str) -> MetricTree:
    """``edge <v1> <v2> <length>`` and ``point <name> <v1> <v2> <offset>``
    records, one per line; each distinct number is read once, and goes to
    the tree as its integer ratio."""
    return _built("tree", _tree_rows(text, 1, lambda kind: _TREE_USAGE.get(kind, f"unknown record {kind!r}")))[0]


def format_tree(tree: MetricTree) -> str:
    edges = tree.edges
    lines = [f"edge {u} {v} {format_number(l)}" for u, v, l in edges]
    for name, loc in sorted(tree.designated.items()):
        if isinstance(loc, str):
            for u, v, l in edges:
                if loc in (u, v):
                    off = 0 if loc == u else l
                    lines.append(f"point {name} {u} {v} {format_number(off)}")
                    break
        else:
            u, v = loc.edge
            lines.append(f"point {name} {u} {v} {format_number(loc.offset)}")
    return "\n".join(lines) + "\n"


def format_point(tree: MetricTree, p) -> str:
    """Point as it is addressed: a name, or ``edge <u> <v> <offset>``."""
    loc = tree.resolve(p)
    if isinstance(loc, str):
        return loc
    name = tree.name_of(loc)
    if name is not None:
        return name
    u, v = loc.edge
    return f"edge {u} {v} {format_number(loc.offset)}"


# -- metric tables ----------------------------------------------------------------


def parse_table(text: str) -> MetricTable:
    """``dist <x> <y> <value>`` records, read a chunk of lines at a time into
    columns of name and literal indexes, each distinct literal read once;
    the table is one scaled int matrix built from them.  The first bad line,
    a bad row or a bad number, is the error.  A repeated ``dist x y`` keeps
    its last value, while ``dist y x`` with a different value is a conflict,
    reported at the first line that named the second order of a pair.
    """
    # name and literal indexes, the literals' integer ratios, the columns
    index, ids, ratios, xs, ys, ks = {}, {}, [], [], [], []
    for first, lines in _chunks(text):
        rows = list(filter(None, lines))
        if not rows:
            continue
        try:
            kinds, x, y, literals = zip(*rows, strict=True)
            if kinds.count("dist") != len(rows):
                raise ValueError
            new = set(literals).difference(ids)
            ratios += map(parse_ratio, new)
            ids.update(zip(new, count(len(ids))))
        except ValueError:
            # the first bad line, a bad row or a bad number, is the error
            for lineno, fields in enumerate(lines, first):
                if fields and (fields[0] != "dist" or len(fields) != 4):
                    raise FormatError(f"line {lineno}: expected 'dist <x> <y> <value>'") from None
                if fields:
                    parse_ratio(fields[3])
        index.update(zip(set(x).union(y).difference(index), count(len(index))))
        xs += map(index.__getitem__, x)
        ys += map(index.__getitem__, y)
        ks += map(ids.__getitem__, literals)
    if not index:
        raise FormatError("table file has no distances")
    table = MetricTable.__new__(MetricTable)
    try:
        table._load(list(index), xs, ys, ks, ratios)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return table


# -- oracle points and sequences -----------------------------------------------------


def parse_oracle_point(fields: list[str] | str, oracle: TreeOracle, tree: MetricTree | None = None, *,
                       number=parse_number):
    """A point in the oracle's own syntax: a tree point name, ``hub`` /
    ``arm <i> <offset>`` (colon form ``arm:i:offset`` accepted), a line
    coordinate, or ``+inf`` / ``-inf`` for the line ends; ``number`` reads
    an offset or coordinate."""
    if isinstance(fields, str):
        fields = fields.replace(":", " ").split()
    if not fields:
        raise FormatError("empty point")
    if isinstance(oracle, MultipodOracle):
        if fields[0] == "hub":
            return "hub"
        if fields[0] == "arm" and len(fields) == 3:
            return (int(fields[1]), number(fields[2]))
        raise FormatError(f"bad multipod point {' '.join(fields)!r}")
    if isinstance(oracle, LineOracle):
        if fields[0] in ("+inf", "inf"):
            return LINE_PLUS
        if fields[0] == "-inf":
            return LINE_MINUS
        if len(fields) == 1:
            return number(fields[0])
        raise FormatError(f"bad line point {' '.join(fields)!r}")
    if tree is None:
        raise FormatError("tree oracle points need the tree")
    if len(fields) == 4 and fields[0] == "edge":
        return Location((fields[1], fields[2]), parse_number(fields[3]))
    if len(fields) == 1:
        return fields[0]
    raise FormatError(f"bad tree point {' '.join(fields)!r}")


def parse_sequence(text: str, oracle: TreeOracle, tree: MetricTree | None = None, *, number=parse_number) -> list:
    """One point per line, its numbers read by ``number``; each distinct
    line is parsed once, and a repeated line gives the point parsed at its
    first occurrence."""
    pts, parsed = [], {}
    for lineno, fields in _content_lines(text):
        key = tuple(fields)
        p = parsed.get(key)
        if p is None:
            try:
                p = parsed[key] = parse_oracle_point(fields, oracle, tree, number=number)
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        pts.append(p)
    if not pts:
        raise FormatError("sequence file has no points")
    return pts


def parse_directions(text: str, oracle: TreeOracle, tree: MetricTree | None = None) -> list:
    """``<base> | <representative>`` per line, each side in point syntax."""
    from .observers import Direction

    dirs = []
    for lineno, left, right in _bar_pairs(text, "'<base> | <representative>'"):
        base, rep = parse_oracle_point(left, oracle, tree), parse_oracle_point(right, oracle, tree)
        if oracle.points_equal(base, rep):
            raise FormatError(f"line {lineno}: a direction needs a representative distinct from its base")
        dirs.append(Direction(base, rep))
    if not dirs:
        raise FormatError("no directions given")
    return dirs


def format_oracle_point(p, oracle: TreeOracle, tree: MetricTree | None = None) -> str:
    if isinstance(oracle, MultipodOracle):
        if oracle.points_equal(p, "hub"):
            return "hub"
        return f"arm {p[0]} {format_number(p[1])}"
    if isinstance(oracle, LineOracle):
        return ("+inf" if p > 0 else "-inf") if _infinite(p) else format_number(p)
    if tree is not None:
        return format_point(tree, p)
    return str(p)


# -- weights and pairs ------------------------------------------------------------------


def parse_action_file(text: str):
    """``line`` header plus ``weight <gen> <value>`` lines; values may be
    ``sqrt:<n>`` literals.  Returns the list of (generator, literal) rows."""
    rows = []
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != ["line"]:
        raise FormatError("action file must start with a 'line' header")
    for lineno, fields in lines[1:]:
        if fields[0] != "weight" or len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 'weight <gen> <value>'")
        rows.append((fields[1], fields[2]))
    if not rows:
        raise FormatError("action file has no weights")
    return rows


def parse_pair_file(text: str):
    """Shape records with two metric columns: ``edge <v1> <v2> <len0> <len1>``
    and ``point <name> <v1> <v2> <off0> <off1>``.  Returns the two trees."""
    edges, points = _tree_rows(text, 2, lambda kind: "bad pair record")
    column0 = [(u, v, x) for u, v, x, _ in edges], [(name, u, v, x) for name, u, v, x, _ in points]
    column1 = [(u, v, y) for u, v, _, y in edges], [(name, u, v, y) for name, u, v, _, y in points]
    return _built("pair", column0, column1)


def parse_length_table(text: str) -> dict[str, Fraction]:
    """``<word> <value>`` lines; the empty word is written ``1``."""
    table = {}
    for lineno, fields in _content_lines(text):
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected '<word> <value>'")
        word = "" if fields[0] == "1" else fields[0]
        table[word] = parse_number(fields[1])
    if not table:
        raise FormatError("length table is empty")
    return table


def parse_boundary_pairs(text: str, basis) -> list[tuple[str, str]]:
    """``X | X'`` per line in prefix;period notation."""
    pairs = [(left, right) for _, left, right in _bar_pairs(text, "'X | X''")]
    if not pairs:
        raise FormatError("pair file has no boundary pairs")
    return pairs


# -- witnesses ---------------------------------------------------------------------------


WITNESS_PREFIX = "WITNESS "


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_number(x)
    if isinstance(x, Surd):
        return float(x)
    if isinstance(x, float):
        # strict JSON has no Infinity: non-finite floats go as "inf"/"-inf"
        return x if math.isfinite(x) else format_number(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def witness_line(kind: str, payload: dict) -> str:
    body = {"kind": kind} | _jsonable(payload)
    return WITNESS_PREFIX + json.dumps(body, sort_keys=True)


def parse_witness_lines(text: str) -> list[dict]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith(WITNESS_PREFIX):
            try:
                out.append(json.loads(line[len(WITNESS_PREFIX) :]))
            except (ValueError, RecursionError) as exc:  # JSON errors, ints past the digit limit, deep nesting
                raise FormatError(f"bad witness line: {line!r}") from exc
    return out


def _wnum(x):
    if isinstance(x, str):
        return float(x) if x in ("inf", "-inf") else parse_number(x)
    return x


def replay_witness(data: dict) -> bool:
    """Re-verify a self-contained witness record from its own numbers; a
    record that is not an object, or lacks or mistypes a field, is a FormatError."""
    if not isinstance(data, dict):
        raise FormatError(f"bad witness {json.dumps(data)}: not a JSON object")
    try:
        return _replay(data)
    except FormatError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        missing = "missing " if isinstance(exc, KeyError) else ""
        raise FormatError(f"bad witness {data['kind']}: {missing}{exc}") from exc


def _replay(data: dict) -> bool:
    kind = data.get("kind")
    if kind == "four_point":
        raw = data["distances"]
        if isinstance(raw, dict):  # "x|y" keys, as in reports written before [x, y, value] rows
            raw = [(*k.split("|"), v) for k, v in raw.items()]
        d = {(x, y): _wnum(v) for x, y, v in raw}

        def dist(x, y):
            if x == y:
                return Fraction(0)
            return d[(x, y)] if (x, y) in d else d[(y, x)]

        x, y, z, w = data["quadruple"]

        def gp(a, b, c):
            return (dist(c, a) + dist(c, b) - dist(a, b)) / 2

        margin = min(gp(x, y, w), gp(y, z, w)) - gp(x, z, w) - _wnum(data["delta"])
        return margin > 0 and margin == _wnum(data["margin"])
    if kind == "axiom":
        from .blend import AxiomWitness

        values = {k: _wnum(v) for k, v in data["values"].items()}
        return AxiomWitness(data["axiom"], data["u"], data.get("v"), values).violates()
    if kind == "direction_exit":
        # the sequence term R sits outside dir_base(rep): (rep, R)_base == 0
        d_br = _wnum(data["d_base_rep"])
        d_bt = _wnum(data["d_base_term"])
        d_rt = _wnum(data["d_rep_term"])
        return (d_br + d_bt - d_rt) / 2 == 0
    if kind == "fiber_mismatch":
        first, second = data["first"], data["second"]
        ends = {"+inf", "-inf"}
        if first in ends or second in ends:
            return first != second
        return abs(_wnum(first) - _wnum(second)) > _wnum(data["tol"])
    if kind == "affine_deviation":
        lam = _wnum(data["lambda"])
        combo = lam * _wnum(data["lf1"]) + (1 - lam) * _wnum(data["lf0"])
        return abs(_wnum(data["blend"]) - combo) > _wnum(data["tol"])
    raise FormatError(f"unknown witness kind {kind!r}")
