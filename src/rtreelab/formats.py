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
from .oracles import LINE_MINUS, LINE_PLUS, LineOracle, MultipodOracle, Ray, TreeOracle
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


def _chunks(text: str) -> Iterator[tuple[int, list[list[str]]]]:
    """The fields of the lines of str.splitlines, a chunk of lines at a time
    with the number of its first line: a chunk runs to the first "\n" after
    about 64 K characters.  A comment starts at ``#``; a blank line has no
    fields."""
    lineno, start, end = 1, 0, len(text)
    while start < end:
        stop = text.find("\n", start + _CHUNK)
        stop = end if stop < 0 else stop + 1
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


def parse_tree(text: str) -> MetricTree:
    """``edge <v1> <v2> <length>`` and ``point <name> <v1> <v2> <offset>``
    records, one per line."""
    edges, points = [], []
    for lineno, fields in _content_lines(text):
        kind, *rest = fields
        if kind == "edge":
            if len(rest) != 3:
                raise FormatError(f"line {lineno}: edge needs <v1> <v2> <length>")
            edges.append((rest[0], rest[1], parse_number(rest[2])))
        elif kind == "point":
            if len(rest) != 4:
                raise FormatError(f"line {lineno}: point needs <name> <v1> <v2> <offset>")
            if rest[0].startswith("."):
                raise FormatError(f"line {lineno}: point names must not start with '.'")
            points.append((rest[0], rest[1], rest[2], parse_number(rest[3])))
        else:
            raise FormatError(f"line {lineno}: unknown record {kind!r}")
    if not edges:
        raise FormatError("tree file has no edges")
    try:
        return MetricTree(edges, points)
    except (ValueError, KeyError) as exc:
        raise FormatError(str(exc)) from exc


def format_tree(tree: MetricTree) -> str:
    lines = [f"edge {u} {v} {format_number(l)}" for u, v, l in tree.edges]
    for name in sorted(tree.designated):
        loc = tree.designated[name]
        if isinstance(loc, str):
            for u, v, l in tree.edges:
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


def parse_oracle_point(fields: list[str] | str, oracle: TreeOracle, tree: MetricTree | None = None):
    """A point in the oracle's own syntax: a tree point name, ``hub`` /
    ``arm <i> <offset>`` (colon form ``arm:i:offset`` accepted), a line
    coordinate, or ``+inf`` / ``-inf`` for the line ends."""
    if isinstance(fields, str):
        fields = fields.replace(":", " ").split()
    if not fields:
        raise FormatError("empty point")
    if isinstance(oracle, MultipodOracle):
        if fields[0] == "hub":
            return "hub"
        if fields[0] == "arm" and len(fields) == 3:
            return (int(fields[1]), parse_number(fields[2]))
        raise FormatError(f"bad multipod point {' '.join(fields)!r}")
    if isinstance(oracle, LineOracle):
        if fields[0] in ("+inf", "inf"):
            return LINE_PLUS
        if fields[0] == "-inf":
            return LINE_MINUS
        if len(fields) == 1:
            return parse_number(fields[0])
        raise FormatError(f"bad line point {' '.join(fields)!r}")
    if tree is None:
        raise FormatError("tree oracle points need the tree")
    if len(fields) == 4 and fields[0] == "edge":
        return Location((fields[1], fields[2]), parse_number(fields[3]))
    if len(fields) == 1:
        return fields[0]
    raise FormatError(f"bad tree point {' '.join(fields)!r}")


def parse_sequence(text: str, oracle: TreeOracle, tree: MetricTree | None = None) -> list:
    pts = []
    for lineno, fields in _content_lines(text):
        try:
            pts.append(parse_oracle_point(fields, oracle, tree))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
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
    if isinstance(p, Ray):
        return "+inf" if p == LINE_PLUS else "-inf" if p == LINE_MINUS else f"ray:{p.label}"
    if isinstance(oracle, MultipodOracle):
        if oracle.points_equal(p, "hub"):
            return "hub"
        return f"arm {p[0]} {format_number(p[1])}"
    if isinstance(oracle, LineOracle):
        return format_number(p)
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
    edges0, edges1, points0, points1 = [], [], [], []
    for lineno, fields in _content_lines(text):
        kind, *rest = fields
        if kind == "edge" and len(rest) == 4:
            edges0.append((rest[0], rest[1], parse_number(rest[2])))
            edges1.append((rest[0], rest[1], parse_number(rest[3])))
        elif kind == "point" and len(rest) == 5:
            points0.append((rest[0], rest[1], rest[2], parse_number(rest[3])))
            points1.append((rest[0], rest[1], rest[2], parse_number(rest[4])))
        else:
            raise FormatError(f"line {lineno}: bad pair record")
    if not edges0:
        raise FormatError("pair file has no edges")
    try:
        return MetricTree(edges0, points0), MetricTree(edges1, points1)
    except (ValueError, KeyError) as exc:
        raise FormatError(str(exc)) from exc


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
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad witness line: {line!r}") from exc
    return out


def _wnum(x):
    if isinstance(x, str):
        return float(x) if x in ("inf", "-inf") else parse_number(x)
    return x


def replay_witness(data: dict) -> bool:
    """Re-verify a self-contained witness record from its own numbers."""
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
        rays = {"+inf", "-inf"}
        if first in rays or second in rays:
            return first != second
        return abs(_wnum(first) - _wnum(second)) > _wnum(data["tol"])
    if kind == "affine_deviation":
        lam = _wnum(data["lambda"])
        combo = lam * _wnum(data["lf1"]) + (1 - lam) * _wnum(data["lf0"])
        return abs(_wnum(data["blend"]) - combo) > _wnum(data["tol"])
    raise FormatError(f"unknown witness kind {kind!r}")
