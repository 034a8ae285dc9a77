"""Command-line interface.

Every command reads an arrangement JSON file ({"lines": N, "points": [...]}),
computes exactly, and writes JSON (default) or a plain-text table to stdout.
Exit codes: 0 on success, 1 when the mathematics rejects the input (an
incidence axiom fails, or a verification reports a mismatch), 2 for I/O,
parse, and usage errors, and when the input is too large for memory.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import click

from . import arrangement as arrmod
from .arrangement import Arrangement, ArrangementError, FormatError, beta, nbc_set, random_arrangement
from .boundary_ring import _cohomology_of, _compare, intersection_ring, verify_double_isomorphism
from .os_algebra import DoubledAlgebra, ProductList, double, os_algebra
from .plumbing import PlumbingGraph, h1_boundary, incidence_graph
from .resonance import (
    AomotoPoint,
    betti_numbers,
    generic_betti,
    r11_prediction,
)

EXIT_MATH = 1
EXIT_IO = 2
MAX_DIGITS = 4300  # the interpreter's default limit on int() of a string, which JSON integers meet too


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_arrangement(path: str) -> Arrangement:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:  # also not UTF-8, an over-long integer, or nesting too deep
        _fail(EXIT_IO, f"{path}: invalid JSON: {exc}")
    try:
        return arrmod.from_json(doc)
    except FormatError as exc:
        _fail(EXIT_IO, f"{path}: {exc}")
    except ArrangementError as exc:
        _fail(EXIT_MATH, f"{path}: {exc}")


def _emit(ctx: click.Context, doc: dict, table) -> None:
    """Write ``doc`` as JSON, or the text that ``table()`` returns. The JSON
    goes to ``click.echo`` in blocks of about BLOCK characters, so the text
    of a large document is never held whole; a smaller one is one call. The
    writer escapes every control character, so the JSON holds no ANSI code
    and ``color=True`` spares click a regex pass over it."""
    if ctx.obj["format"] == "table":
        click.echo(table())
    else:
        out = _Text(lambda text: click.echo(text, nl=False, color=True))
        _write(doc, "\n", out)
        out.append("\n")
        out.flush()


BLOCK = 1 << 20  # characters of JSON that _emit passes to click.echo at once
CHUNK = 4096  # products that _write_products joins into one piece


class _Text(list):
    """Output text in pieces. ``_write`` appends the small pieces; the leaves
    that write the large lists ``add`` theirs, which are counted, and once
    BLOCK characters are counted the pieces go to ``sink``."""

    def __init__(self, sink=None):
        super().__init__()
        self.sink = sink
        self.size = 0

    def add(self, text: str) -> None:
        self.append(text)
        self.size += len(text)
        if self.size >= BLOCK and self.sink:
            self.flush()

    def flush(self) -> None:
        self.sink("".join(self))
        self.clear()
        self.size = 0


_SCALAR_TEXT = {int: int.__repr__, str: _quote}  # exact types only: a bool is written as true or false


def _write(o, nl: str, out: _Text) -> None:
    """Append the text of ``o``; ``nl`` is a newline plus the indent of o's line.

    The text is that of ``json.dumps(o, indent=2, sort_keys=True)``, byte for
    byte, which with ``indent`` set the stdlib encodes in pure Python through
    generators. ``o`` may hold the dicts (``str`` keys), lists, tuples,
    ``str``, ``int``, ``bool`` and ``None`` that plumbline emits, and two
    leaves that stand for large lists: a ``ProductList`` is written as its
    ``to_json()`` would be, and a ``PlumbingGraph`` as the row-major entries
    of its plumbing matrix, each a string. Anything else raises
    ``TypeError``: a float, a ``Fraction`` or a non-``str`` key, which
    ``json.dumps`` would write differently or not at all. A list of exact
    ``int`` or exact ``str`` items, and a list (not a tuple) of non-empty
    lists of exact ``int``, is written in one piece.
    """
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(o):
            out.append(sep + _quote(key) + ": ")  # TypeError on a key that is not a str
            _write(o[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        types = set(map(type, o))
        if len(types) == 1 and types <= _SCALAR_TEXT.keys():  # all exactly int or all exactly str
            out.append("[" + inner + ("," + inner).join(map(_SCALAR_TEXT[type(o[0])], o)) + nl + "]")
            return
        if type(o) is list and types == {list} and all(o) and set(map(type, chain.from_iterable(o))) == {int}:
            # Rows of ints, such as the nbc pairs and the points: list.__repr__
            # writes every int as int.__repr__ does, ", " between two ints and
            # "], [" between two rows, and three replaces lay that out as above.
            i2 = inner + "  "
            rows = repr(o)[2:-2].replace("], [", "\0").replace(", ", "," + i2)
            rows = rows.replace("\0", inner + "]," + inner + "[" + i2)
            out.append("[" + inner + "[" + i2 + rows + inner + "]" + nl + "]")
            return
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, ProductList):
        _write_products(o, nl, out)
    elif isinstance(o, PlumbingGraph):
        _write_entries(o, nl, out)
    else:
        raise TypeError(f"cannot write {type(o).__name__} as JSON")


def _write_products(products: ProductList, nl: str, out: _Text) -> None:
    """``products.to_json()`` as ``_write`` would write it: each label quoted
    once, one f-string per product, joined CHUNK products at a time."""
    if not products.table:
        out.append("[]")
        return
    xy = list(map(_quote, products.xy_labels))
    z = xy if products.z_labels is products.xy_labels else list(map(_quote, products.z_labels))
    i1 = nl + "  "  # the indent of a product's braces, of its keys, and of its value's entries
    i2 = i1 + "  "
    i3 = i2 + "  "
    sep, comma = "[" + i1, "," + i3
    lines: list[str] = []
    put = lines.append
    for (x, y), vec in products.rows():
        if len(lines) == CHUNK:
            out.add(sep + ("," + i1).join(lines))
            lines.clear()
            sep = "," + i1
        if len(vec) == 1:
            [(k, c)] = vec.items()
            put(f'{{{i2}"value": {{{i3}{z[k]}: {c}{i2}}},{i2}"x": {xy[x]},{i2}"y": {xy[y]}{i1}}}')
        else:
            value = "{" + i3 + comma.join([f"{z[k]}: {c}" for k, c in vec.items()]) + i2 + "}" if vec else "{}"
            put(f'{{{i2}"value": {value},{i2}"x": {xy[x]},{i2}"y": {xy[y]}{i1}}}')
    out.add(sep + ("," + i1).join(lines) + nl + "]")


def _write_entries(g: PlumbingGraph, nl: str, out: _Text) -> None:
    """The V^2 entries of the plumbing matrix of ``g``, row-major, as strings.
    Each row is cut from one row of zeros, its ``g.nonzeros`` spliced in,
    and the rows go to ``out`` in blocks of about BLOCK characters."""
    nv = g.n_vertices
    if not nv:
        out.append("[]")
        return
    sep = "," + nl + "  "
    width = 3 + len(sep)  # a '"0"' and its separator
    zeros = ('"0"' + sep) * nv
    per = max(1, BLOCK // len(zeros))  # rows per block
    out.append("[" + sep[1:])
    parts: list[str] = []
    for r, row in enumerate(g.nonzeros, 1):
        at = 0
        for j, x in row:
            parts += (zeros[at : j * width], '"1"' if x == 1 else f'"{x}"')
            at = j * width + 3
        parts.append(zeros[at:] if r < nv else zeros[at : -len(sep)])  # no separator after the last entry
        if r % per == 0 or r == nv:
            out.add("".join(parts))
            parts.clear()
    out.append(nl + "]")


def _kv_table(doc: dict, prefix: str = "") -> str:
    lines = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, dict):
            lines.append(f"{prefix}{key}:")
            lines.append(_kv_table(val, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {val}")
    return "\n".join(lines)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


# click's own --help option, built here with its text as a literal: click
# builds it on first use through gettext, and that one lookup imports locale
# and searches the disk for catalogues, a large share of a command's first run.
HELP_OPTION = click.Option(
    ["--help"], is_flag=True, expose_value=False, is_eager=True,
    help="Show this message and exit.", callback=_show_help,
)


class _Command(click.Command):
    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        return HELP_OPTION if self.add_help_option else None


# The direct path: _Group runs argv that _match reads without click's parser; click parses any other.
# Click reads a param or runs a command that sets one of these some other way, so leaves it to click.
_EXTRA = "multiple envvar is_flag count prompt deprecated chain _result_callback context_settings".split()


def _grammar(cmd: click.Command, ctx: click.Context):
    """``cmd``'s options by name, arguments and defaults, read once from its params, or False."""
    if "_grammar" not in cmd.__dict__:
        ps = cmd.params
        plain = not any(getattr(x, a, None) for x in (cmd, *ps) for a in _EXTRA) and all(
            p.nargs == 1 and p.expose_value and not p.callback and (p.required or type(p.default) in (int, float, str))
            for p in ps)
        cmd._grammar = plain and ({o: p for p in ps if isinstance(p, click.Option) for o in p.opts},
                                  [p for p in ps if isinstance(p, click.Argument)],
                                  {p.name: p.type_cast_value(ctx, p.default) for p in ps if not p.required})
    return cmd._grammar


def _match(ctx: click.Context, name: str, cmd: click.Command, args: list[str]) -> list | None:
    """The ``(name, command, params)`` path from ``cmd`` down when ``args`` is a group's ``--name VALUE``
    pairs, its command's name, and so on to a command's ``--name VALUE`` pairs and exactly its arguments,
    none starting with ``-``, each value converted by its param's type; else None or an error."""
    if not (table := _grammar(cmd, ctx)):
        return None
    opts, positional, params, rest = table[0], iter(table[1]), dict(table[2]), iter(args)
    for a in rest:
        if a in opts:
            params[opts[a].name] = opts[a].type_cast_value(ctx, next(rest))
        elif a[:1] == "-":
            return None
        elif isinstance(cmd, click.Group):
            below = a in cmd.commands and _match(ctx, a, cmd.commands[a], list(rest))
            return [(name, cmd, params), *below] if below and len(params) == len(cmd.params) else None
        else:
            p = next(positional)
            params[p.name] = p.type_cast_value(ctx, a)
    return None if isinstance(cmd, click.Group) or len(params) != len(cmd.params) else [(name, cmd, params)]


class _Group(_Command, click.Group):
    command_class = _Command
    group_class = type  # a sub-group is a _Group too

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            found = not (ctx.resilient_parsing or ctx.default_map or ctx.auto_envvar_prefix or ctx.token_normalize_func
                         or "--help" in args or "--" in args) and _match(ctx, ctx.info_name, self, args)
        except (click.UsageError, StopIteration):  # a rejected value, a missing value, an extra argument
            found = None
        if not found:
            return super().parse_args(ctx, args)
        ctx.params.update(found[0][2])
        ctx.meta["plumbline.direct"] = found[1:]  # what invoke runs below this group
        return []

    def invoke(self, ctx: click.Context):
        try:
            if "plumbline.direct" not in ctx.meta:
                return super().invoke(ctx)
            for name, cmd, params in ctx.meta.pop("plumbline.direct"):
                ctx.invoked_subcommand = name
                click.Command.invoke(ctx.command, ctx)  # the callback, as click's Group.invoke calls it
                ctx = cmd.context_class(cmd, parent=ctx, info_name=name)
                ctx.params.update(params)
            return click.Command.invoke(ctx.command, ctx)
        except MemoryError:
            pass  # out of the handler, the traceback and the frames it holds are freed
        _fail(EXIT_IO, "out of memory: the input is too large")


@click.group(cls=_Group)
@click.option("--seed", default=0, show_default=True, help="Seed for `random`; echoed in the resonance output.")
@click.option(
    "--trials", default=5, show_default=True, type=click.IntRange(min=1),
    help="Echoed in the resonance output; changes no value.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "table"]),
    default="json",
    show_default=True,
    help="Output format.",
)
@click.pass_context
def main(ctx: click.Context, seed: int, trials: int, fmt: str) -> None:
    """Exact invariants of combinatorial line arrangements: Orlik-Solomon
    algebras and their doubles, plumbed boundary 3-manifolds, and resonance."""
    ctx.obj = {"seed": seed, "trials": trials, "format": fmt}


@main.command()
@click.argument("path")
@click.pass_context
def validate(ctx: click.Context, path: str) -> None:
    """Check the incidence axioms and echo the normalized arrangement."""
    arr = _load_arrangement(path)
    doc = arrmod.to_json(arr)
    _emit(ctx, doc, lambda: "\n".join(
        [f"lines: {arr.n_lines}", f"points: {len(arr.points)}"]
        + ["  " + ",".join(str(x) for x in pt) for pt in arr.points]
    ))


@main.command()
@click.argument("path")
@click.pass_context
def nbc(ctx: click.Context, path: str) -> None:
    """List the nbc pairs and the incidence-graph Betti number."""
    arr = _load_arrangement(path)
    pairs = nbc_set(arr)
    graph = incidence_graph(arr)
    b1 = len(graph.edges) - graph.n_vertices + 1  # E - V + 1: any two lines meet, so the graph is connected
    doc = {"nbc": [[p.j, p.k] for p in pairs], "b1": b1}
    _emit(ctx, doc, lambda: "\n".join([f"b1: {b1}"] + [f"({p.j},{p.k})" for p in pairs]))


@main.command("os")
@click.argument("path")
@click.pass_context
def os_cmd(ctx: click.Context, path: str) -> None:
    """Structure constants of the Orlik-Solomon algebra."""
    alg = os_algebra(_load_arrangement(path))
    _emit(ctx, alg.json_doc(), lambda: _os_table(alg.to_json()))


def _os_table(doc: dict) -> str:
    degrees = _kv_table({"degree1": ", ".join(doc["degree1"]), "degree2": ", ".join(doc["degree2"])})
    return degrees + "\n" + _products_table(doc)


def _products_table(doc: dict) -> str:
    return "\n".join(f"{p['x']} * {p['y']} = {p['value']}" for p in doc["products"])


@main.command("double")
@click.argument("path")
@click.pass_context
def double_cmd(ctx: click.Context, path: str) -> None:
    """Structure constants of the doubled Orlik-Solomon algebra."""
    dbl = double(os_algebra(_load_arrangement(path)))
    _emit(ctx, dbl.json_doc(), lambda: _products_table(dbl.to_json()))


@main.command()
@click.argument("path")
@click.pass_context
def homology(ctx: click.Context, path: str) -> None:
    """First homology of the boundary manifold, with the plumbing matrix."""
    res = h1_boundary(_load_arrangement(path))
    nv = res.graph.n_vertices
    doc = {**res.to_json(), "matrix": {"rows": nv, "cols": nv, "entries": res.graph}}
    _emit(ctx, doc, lambda: _kv_table(res.to_json()))


@main.command()
@click.argument("path")
@click.pass_context
def ring(ctx: click.Context, path: str) -> None:
    """Intersection ring of the boundary manifold."""
    rng_ = intersection_ring(_load_arrangement(path))
    _emit(ctx, rng_.json_doc(), lambda: _ring_table(rng_.to_json()))


def _ring_table(doc: dict) -> str:
    lines = ["intersection products (H2 x H2 -> H1):"]
    for item in doc["products"]:
        value = " + ".join(
            (f"{c}*{lab}" if c not in (1, -1) else (lab if c == 1 else f"-{lab}"))
            for lab, c in item["value"].items()
        )
        lines.append(f"  {item['x']} . {item['y']} = {value or '0'}")
    lines.append("all other products of basis surfaces vanish; the product is antisymmetric")
    return "\n".join(lines)


@main.command()
@click.argument("path")
@click.pass_context
def verify(ctx: click.Context, path: str) -> None:
    """Verify that boundary cohomology is the double of the OS algebra."""
    arr = _load_arrangement(path)
    report = verify_double_isomorphism(arr)
    doc = report.to_json()
    _emit(ctx, doc, lambda: f"ok: {report.ok}" + ("" if report.ok else f"\nmismatches: {len(report.mismatches)}"))
    if not report.ok:
        sys.exit(EXIT_MATH)


@main.command()
@click.argument("path")
@click.pass_context
def report(ctx: click.Context, path: str) -> None:
    """Everything at once: combinatorics, algebras, homology, verification."""
    arr = _load_arrangement(path)
    doc = build_report(arr, seed=ctx.obj["seed"], trials=ctx.obj["trials"])
    _emit(ctx, doc, lambda: _kv_table({
        "class": doc["class"],
        "beta": doc["beta"],
        "b1": doc["incidence"]["b1"],
        "free_rank": doc["homology"]["free_rank"],
        "isomorphism_ok": doc["isomorphism"]["ok"],
        "betti_generic": str(doc["resonance"]["betti_generic"]),
    }))
    if not doc["isomorphism"]["ok"]:
        sys.exit(EXIT_MATH)


def build_report(arr: Arrangement, seed: int, trials: int) -> dict:
    """The ``report`` document. Each piece is built once; the isomorphism
    check still compares the geometric ring with the doubling construction.
    The three product lists stay ``ProductList`` leaves, which ``_write``
    writes straight from the positional tables."""
    alg = os_algebra(arr)
    dbl = double(alg)
    ring = intersection_ring(arr)
    h1 = h1_boundary(arr)
    pairs = nbc_set(arr)
    res = _resonance_doc(arr, dbl, seed, trials)
    res["betti_generic"] = res.pop("betti")
    return {
        "arrangement": arrmod.to_json(arr),
        "class": res["class"],
        "beta": res["beta"],
        "nbc": [[p.j, p.k] for p in pairs],
        "incidence": {"vertices": h1.graph.n_vertices, "edges": len(h1.graph.edges), "b1": h1.graph.b1},
        "os_algebra": alg.json_doc(),
        "double": dbl.json_doc(),
        "homology": h1.to_json(),
        "intersection_ring": ring.json_doc(),
        "isomorphism": _compare(_cohomology_of(ring), dbl).to_json(),
        "resonance": res,
    }


def _resonance_doc(arr: Arrangement, dbl: DoubledAlgebra, seed: int, trials: int) -> dict:
    """Generic Betti numbers, beta, class and predicted R^1_1 dimension."""
    cls, dim = r11_prediction(arr)
    b1 = generic_betti(dbl, 1, trials=trials, seed=seed)
    return {
        "betti": [0, b1, b1, 0],
        "beta": beta(arr),
        "class": cls.value,
        "predicted_r11_dim": dim,
        "seed": seed,
        "trials": trials,
    }


@main.group()
def resonance() -> None:
    """Resonance varieties of the doubled algebra."""


def _plain(v: str) -> bool:
    """Whether ``v`` is a sign or none, ASCII digits, and optionally a slash
    and ASCII digits: a fraction that ``int`` reads part by part."""
    num, slash, den = v.partition("/")
    if num[:1] in ("+", "-"):
        num = num[1:]
    return v.isascii() and num.isdigit() and (den.isdigit() or not slash)


def _digits(v: int | str) -> int:
    """An int's decimal length, or for a string the most digits that the
    numerator or denominator of Fraction(v) can have: the digits and point v
    writes plus its exponent, read before Fraction builds anything."""
    if type(v) is int:
        return len(str(abs(v)))
    if _plain(v):
        return len(v) - (v[0] in "+-") - ("/" in v)
    mantissa, _, exp = v.lower().partition("e")
    exp = "".join(filter(str.isdecimal, exp)).lstrip("0")
    if len(exp) > 4:
        return MAX_DIGITS + 1
    return sum(c.isdecimal() or c == "." for c in mantissa) + int(exp or 0)


def _fraction(v: str) -> Fraction:
    """``Fraction(v)``; a plain fraction is read with ``int``, without the regex."""
    if _plain(v):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


def _parse_point(doc: dict) -> AomotoPoint:
    """The point of a --point document, which must hold at most MAX_DIGITS
    digits in all: the lcm of every denominator scales the whole point. An
    int 0 stays zero when it is scaled and is left out of the count. A
    point of ints only has no denominator, so there an int from -9 to 9
    stays one digit and is left out too. Only strings become ``Fraction``."""
    for what in "ab":
        if not all(type(v) in (int, str) for v in doc[what]):
            _fail(EXIT_IO, f'bad {what} coordinate: write an integer or a string such as "1/3" or "0.1"')
    coords = [v for v in doc["a"] + doc["b"] if v != 0]
    if all(type(v) is int for v in coords):
        coords = [v for v in coords if not -9 <= v <= 9]
    if any(total > MAX_DIGITS for total in accumulate(map(_digits, coords))):
        _fail(EXIT_IO, f"--point: more than {MAX_DIGITS} digits in all")
    try:
        return AomotoPoint(*(tuple(v if type(v) is int else _fraction(v) for v in doc[k]) for k in "ab"))
    except (ValueError, ZeroDivisionError) as exc:
        _fail(EXIT_IO, f"bad coordinate: {exc}")


@resonance.command("eval")
@click.argument("path")
@click.option("--point", "point_json", required=True, help='Point as JSON: {"a": [...], "b": [...]}.')
@click.pass_context
def resonance_eval(ctx: click.Context, path: str, point_json: str) -> None:
    """Betti numbers of the complex at one explicit rational point."""
    arr = _load_arrangement(path)
    dbl = double(os_algebra(arr))
    try:
        doc = json.loads(point_json)
    except (ValueError, RecursionError) as exc:
        _fail(EXIT_IO, f"--point: invalid JSON: {exc}")
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in "ab"):
        _fail(EXIT_IO, '--point must be an object with "a" and "b" arrays')
    pt = _parse_point(doc)
    try:
        numbers = betti_numbers(dbl, pt)
    except ValueError as exc:
        _fail(EXIT_MATH, str(exc))
    out = {"betti": list(numbers)}
    _emit(ctx, out, lambda: _kv_table({"betti": str(list(numbers))}))


@resonance.command("generic")
@click.argument("path")
@click.pass_context
def resonance_generic(ctx: click.Context, path: str) -> None:
    """Generic Betti numbers, the beta invariant, and the predicted dimension."""
    arr = _load_arrangement(path)
    doc = _resonance_doc(arr, double(os_algebra(arr)), ctx.obj["seed"], ctx.obj["trials"])
    _emit(ctx, doc, lambda: _kv_table({k: str(v) for k, v in doc.items()}))


@resonance.command("classify")
@click.argument("path")
@click.pass_context
def resonance_classify(ctx: click.Context, path: str) -> None:
    """Arrangement class and the predicted resonance dimension."""
    arr = _load_arrangement(path)
    cls, dim = r11_prediction(arr)
    doc = {"class": cls.value, "beta": beta(arr), "predicted_r11_dim": dim, "n": arr.n}
    _emit(ctx, doc, lambda: _kv_table(doc))


@main.command("random")
@click.option(
    "--lines", default=5, show_default=True, type=click.IntRange(min=3), help="Total number of lines (at least 3)."
)
@click.option(
    "--density",
    default=0.5,
    show_default=True,
    type=click.FloatRange(0.0, 1.0),
    help="How aggressively to create multiple points.",
)
@click.option(
    "--count", default=1, show_default=True, type=click.IntRange(min=0), help="How many arrangements to emit."
)
@click.pass_context
def random_cmd(ctx: click.Context, lines: int, density: float, count: int) -> None:
    """Emit random valid arrangements, one JSON document per line."""
    rng = random.Random(ctx.obj["seed"])
    for _ in range(count):
        arr = random_arrangement(rng, lines, density)
        click.echo(json.dumps(arrmod.to_json(arr), sort_keys=True, separators=(",", ":")))


if __name__ == "__main__":
    main()
