"""Text formats: tree files, metric tables, point sequences, line-action
weights, compatible pairs, length tables, and self-contained witness
records.

Numbers in files are decimals or rationals ``p/q`` (parsed exactly);
weight values additionally admit ``sqrt:<n>`` literals.  Comment lines
start with ``#``; blank lines are ignored.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
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


# line breaks of str.splitlines other than "\n"
_OTHER_BREAKS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _raw_lines(text: str) -> Iterator[str]:
    """The lines of str.splitlines, one at a time when "\n" is the only
    line break, so that a large file is never held as a list of lines."""
    if _OTHER_BREAKS.search(text):
        yield from text.splitlines()
        return
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        yield text[start:stop]
        start = stop + 1


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(_raw_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


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
    """``dist <x> <y> <value>`` records.

    The lines are read one at a time into numerator and denominator
    matrices indexed by first appearance, one cell per ordered pair: a
    repeated ``dist x y`` keeps its last value, while ``dist y x`` with a
    different value is a conflict, reported at the first line that named
    the second order of a pair.
    """
    index: dict[str, int] = {}
    num: list[list] = []
    den: list[list] = []
    second_orders: list[tuple[int, int]] = []

    def add_point(name: str) -> int:
        i = index[name] = len(index)
        for row in chain(num, den):
            row.append(None)
        num.append([None] * (i + 1))
        den.append([None] * (i + 1))
        return i

    for lineno, fields in _content_lines(text):
        if fields[0] != "dist" or len(fields) != 4:
            raise FormatError(f"line {lineno}: expected 'dist <x> <y> <value>'")
        _, x, y, literal = fields
        i = index.get(x)
        if i is None:
            i = add_point(x)
        j = index.get(y)
        if j is None:
            j = add_point(y)
        p, q = parse_ratio(literal)
        if num[i][j] is None and num[j][i] is not None:
            second_orders.append((i, j))
        num[i][j], den[i][j] = p, q
    if not index:
        raise FormatError("table file has no distances")
    names = list(index)
    for i, j in second_orders:
        if num[i][j] * den[j][i] != num[j][i] * den[i][j]:
            raise FormatError(f"conflicting distances for {names[i]},{names[j]}")
    # sorted point order; a pair named in one order only fills both cells
    order = sorted(range(len(names)), key=names.__getitem__)

    def merged(cells):
        return [[cells[i][j] if cells[i][j] is not None else cells[j][i] for j in order] for i in order]

    num = merged(num)
    den = merged(den)
    try:
        return MetricTable._from_fractions([names[i] for i in order], num, den)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


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
    for lineno, fields in _content_lines(text):
        joined = " ".join(fields)
        if "|" not in joined:
            raise FormatError(f"line {lineno}: expected '<base> | <representative>'")
        left, right = (part.strip() for part in joined.split("|", 1))
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
    pairs = []
    for lineno, fields in _content_lines(text):
        joined = " ".join(fields)
        if "|" not in joined:
            raise FormatError(f"line {lineno}: expected 'X | X''")
        left, right = (part.strip() for part in joined.split("|", 1))
        pairs.append((left, right))
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
