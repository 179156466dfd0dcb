"""JSON and CSV input and output.

One file format per object kind: distributions (atom lists or a named
continuous family), step curves, kernels, measures, tabulated kernel
grids, and check reports.  Infinities travel as the strings "inf" and
"-inf" in JSON and as those bare words in CSV; NaN is rejected wherever
it appears.  Rejections raise InputError carrying a stable code so the
command line can map them to exit status and a terse message:

    NO_FILE     missing or unreadable input file, or unwritable output file
    BAD_JSON    input is not JSON at all: malformed, nested too deeply to
                read, an integer past Python's digit limit, or not UTF-8
    BAD_SCHEMA  JSON is well-formed but not the expected shape
    NAN_VALUE   a NaN appeared where a value was expected
    MASS_SUM    atom masses do not sum to one

Measure and kernel objects are {"kind": ..., <parameters>}, read
generically off ``measures.FAMILIES``: each family's entry names its
kind and its parameters' keys and types (number or step curve).  Measure
objects are written the same way; kernel objects are only read.
Adding a family means adding its closed form, parameter check and
psi-kernel class, and one entry to that table; nothing here changes.
``dist._from_merged`` alone decides an atom list's mass sum.
A kernel grid file is read in one checked pass over each row: a
bisection over the cells' types splits the row into a live head of
falling floats and a dead tail of "-inf", and each part is checked
whole; the grid is then built through the grid type's trusted
constructor in ``kernels``.  A grid not of that form is read again
entry by entry, so the first bad entry is named with its code.  The
superlevel CSV reads a grid's cells directly, each sampled p snapped to
its column once.
A PsiGrid is written straight from its float rows, each run of equal
cells (a step kernel's row holds two or three) encoded once; 0.0 and
-0.0 are equal but print apart, so a row holding a zero is not merged.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import fields
from itertools import chain, islice
from operator import ge, neg, sub
from pathlib import Path
from typing import Any, TextIO, Union, get_type_hints

from .dist import ContinuousCDF, DiscreteDist, _from_merged
from .harness import PairWitness, PointWitness, ProbeWitness, StabilityReport, Witness
from .kernels import GridKernel, PsiGrid, PsiKernel, check_axes
from .measures import FAMILIES, STEP, RiskMeasure
from .steps import DEC, INC, MonotoneStep

INF = math.inf
# samples per axis for superlevel and nodes per construct-psi axis; a
# finer request is refused before any list is built
MAX_GRID_NODES = 10**6

Distribution = Union[DiscreteDist, ContinuousCDF]


class InputError(ValueError):
    """Input rejection with a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


def dump_num(v: float) -> Any:
    """JSON-safe number; infinities become sentinel strings."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return float(v)


def parse_num(v: Any, where: str) -> float:
    """Read a number, accepting the infinity sentinels, rejecting NaN."""
    if isinstance(v, bool):
        raise InputError("BAD_SCHEMA", f"{where}: expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        try:
            f = float(v)
        except OverflowError:  # an int past the float range
            raise InputError("BAD_SCHEMA", f"{where}: integer too large for a float") from None
        if math.isnan(f):
            raise InputError("NAN_VALUE", f"{where}: NaN is not a usable value")
        return f
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf"):
            return INF
        if s == "-inf":
            return -INF
        if s == "nan":
            raise InputError("NAN_VALUE", f"{where}: NaN is not a usable value")
    raise InputError("BAD_SCHEMA", f"{where}: expected a number, got {v!r}")


def parse_json_text(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("BAD_JSON", f"malformed JSON: {exc}") from None
    except RecursionError:
        raise InputError("BAD_JSON", "JSON nests too deeply to read") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InputError("BAD_JSON", f"unreadable JSON number: {exc}") from None


def load_json_file(path: str | Path) -> Any:
    """The JSON in the file at ``path``, read as UTF-8 as JSON requires."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError("NO_FILE", f"no such file: {p}") from None
    except OSError as exc:
        raise InputError("NO_FILE", f"cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError("BAD_JSON", f"{p} is not UTF-8 text: {exc}") from None
    return parse_json_text(text)


def dump_json(obj: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2)``
    plus a newline, and for a PsiGrid that of ``psi_grid_to_obj(obj)``,
    written from the grid's float rows by ``_row_text``.  With an indent,
    json always falls back to its pure-Python encoder, so each list of
    floats and strings (a grid axis or table row, infinities as "inf"
    and "-inf") is encoded by the C encoder in one call instead, and its
    ", " separators become the newline and indent.
    """
    if not isinstance(obj, PsiGrid):
        return _dump(obj, "\n") + "\n"
    nl = "\n  "
    settings = _psi_settings(obj)
    return "".join([  # psi_grid_to_obj(obj)'s keys, sorted
        '{\n  "p_grid": ', _dump(obj.p_grid, nl), ',\n  "table": [\n    [\n      ',
        "\n    ],\n    [\n      ".join([_row_text(row, ",\n      ") for row in obj.table]),
        '\n    ]\n  ],\n  "tol": ', _dump(settings["tol"], nl), ',\n  "x_grid": ', _dump(obj.x_grid, nl),
        ',\n  "y_max": ', _dump(settings["y_max"], nl), "\n}\n",
    ])


def _dump(obj: Any, nl: str) -> str:
    """``obj`` as the indented dump renders it after ``nl``, a newline and indent."""
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)) and obj:
        if {float, str}.issuperset(map(type, obj)):
            text = json.dumps(obj)
            # a float never holds ", ", so unless a string does ("inf"
            # and "-inf" do not), each ", " is a separator
            if text.count(", ") == len(obj) - 1:
                return "[" + inner + text[1:-1].replace(", ", sep) + nl + "]"
        return "[" + inner + sep.join(_dump(v, inner) for v in obj) + nl + "]"
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        return "{" + inner + sep.join(
            json.dumps(k) + ": " + _dump(obj[k], inner) for k in sorted(obj)) + nl + "}"
    # anything else as json renders it; its newlines are all layout
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)


# -- distributions --------------------------------------------------------


def distribution_to_obj(dist: DiscreteDist) -> dict:
    return {"atoms": [{"x": dump_num(x), "p": dump_num(p)} for x, p in dist.atoms]}


def parse_distribution_obj(obj: Any) -> Distribution:
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", "distribution must be a JSON object")
    if "atoms" in obj:
        raw = obj["atoms"]
        if not isinstance(raw, list) or not raw:
            raise InputError("BAD_SCHEMA", "atoms must be a non-empty list")
        # one pass: a plain float x, finite, and a plain float p in (0, 1]
        # go straight in; any other entry takes _parse_atom's checks
        merged: dict[float, float] = {}
        repeats: list[tuple[float, float]] = []
        for i, entry in enumerate(raw):
            if not (type(entry) is dict and type(x := entry.get("x")) is float
                    and type(p := entry.get("p")) is float and -INF < x < INF and 0.0 < p <= 1.0):
                x, p = _parse_atom(i, entry)
            if x in merged:
                repeats.append((x, p))
            else:
                merged[x] = p
        try:
            return _from_merged(merged, repeats)
        except ValueError as exc:  # the input's own mass sum is out of band
            raise InputError("MASS_SUM", str(exc)) from None
    if obj.get("family") == "uniform":
        a = parse_num(obj.get("a"), "uniform bound a")
        b = parse_num(obj.get("b"), "uniform bound b")
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise InputError("BAD_SCHEMA", f"uniform needs finite bounds a < b, got {a}, {b}")
        if not math.isfinite(b - a):  # the CDF divides by the width
            raise InputError("BAD_SCHEMA", f"uniform needs bounds a finite width apart, got {a}, {b}")
        return ContinuousCDF.uniform(a, b)
    raise InputError("BAD_SCHEMA", "distribution needs an atoms list or family: uniform")


def _parse_atom(i: int, entry: Any) -> tuple[float, float]:
    """Atom ``i`` as ``(x, p)``: x finite, p in (0, 1]."""
    if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
        raise InputError("BAD_SCHEMA", f"atom {i} must be an object with keys x and p")
    x = parse_num(entry["x"], f"atom {i} x")
    p = parse_num(entry["p"], f"atom {i} p")
    if not math.isfinite(x):
        raise InputError("BAD_SCHEMA", f"atom {i}: position must be finite, got {x}")
    if not 0.0 < p <= 1.0:
        raise InputError("BAD_SCHEMA", f"atom {i}: mass must lie in (0, 1], got {p}")
    return x, p


# -- step curves ----------------------------------------------------------


def step_to_obj(step: MonotoneStep) -> dict:
    obj = {
        "breakpoints": [dump_num(b) for b in step.breakpoints],
        "values": [dump_num(v) for v in step.values],
        "direction": step.direction,
    }
    if step.at_one is not None:
        obj["at_one"] = dump_num(step.at_one)
    return obj


def parse_step_obj(obj: Any, where: str = "step") -> MonotoneStep:
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", f"{where}: expected a step object")
    for key in ("breakpoints", "values"):
        if not isinstance(obj.get(key), list):
            raise InputError("BAD_SCHEMA", f"{where}: needs a list under {key!r}")
    bps = [parse_num(v, f"{where}.breakpoints[{i}]") for i, v in enumerate(obj["breakpoints"])]
    vals = [parse_num(v, f"{where}.values[{i}]") for i, v in enumerate(obj["values"])]
    direction = obj.get("direction", INC)
    if direction not in (INC, DEC):
        raise InputError("BAD_SCHEMA", f"{where}: direction must be {INC!r} or {DEC!r}")
    at_one = parse_num(obj["at_one"], f"{where}.at_one") if "at_one" in obj else None
    try:
        return MonotoneStep(tuple(bps), tuple(vals), direction, at_one)
    except ValueError as exc:
        raise InputError("BAD_SCHEMA", f"{where}: {exc}") from None


# -- kernels and measures -------------------------------------------------


def _parse_family_obj(obj: Any, what: str) -> Any:
    """Parse {"kind": ..., <parameters>} into that family's ``what``.

    ``what`` names the Family attribute that builds the value from the
    parameters, "measure" or "kernel"; a family without one is unknown.
    """
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", f"{what} must be a JSON object")
    kind = obj.get("kind")
    family = FAMILIES.get(kind)
    make = getattr(family, what, None)
    if make is None:
        raise InputError("BAD_SCHEMA", f"unknown {what} kind {kind!r}")
    values = [
        parse_step_obj(obj.get(key), key) if typ == STEP else parse_num(obj.get(key), f"{kind} {key}")
        for key, typ in family.params
    ]
    try:
        return make(*values)
    except ValueError as exc:
        raise InputError("BAD_SCHEMA", f"{what} {kind!r}: {exc}") from None


_INF_TEXT = {INF: "inf", -INF: "-inf"}
_INF_JSON = {INF: '"inf"', -INF: '"-inf"'}


def _grid_to_obj(grid: GridKernel) -> dict:
    # dump_num on every cell, one map per row: a grid holds floats and
    # no NaN, so each value is its own JSON form unless it is infinite
    def nums(values):
        return list(map(_INF_TEXT.get, values, values))

    return {
        "x_grid": nums(grid.x_grid),
        "p_grid": nums(grid.p_grid),
        "table": [nums(row) for row in grid.table],
    }


def _row_text(row: tuple[float, ...], sep: str) -> str:
    """A checked grid row's cells as JSON text, joined by ``sep``.

    The row holds floats and no NaN and falls along p, so its distinct
    values are its runs.  With few runs, each run's first cell is encoded
    once and the run laid out by repeating it; 0.0 and -0.0 are equal but
    print apart, so a row holding a zero has every cell encoded.
    """
    distinct = set(row)
    if 0.0 in distinct or 4 * len(distinct) >= len(row):
        text = json.dumps(row)[1:-1].replace("-Infinity", '"-inf"').replace("Infinity", '"inf"')
        return text.replace(", ", sep)
    heads = sorted(distinct, reverse=True)
    # a run ends after the last cell at or above its value
    ends = [bisect_right(row, -head, key=neg) for head in heads]
    cells = [_INF_JSON.get(head) or float.__repr__(head) for head in heads]  # json's float text
    return "".join((cell + sep) * k for cell, k in zip(cells, map(sub, ends, [0, *ends])))[: -len(sep)]


def parse_kernel_obj(obj: Any) -> PsiKernel:
    if isinstance(obj, dict) and "kind" not in obj and "table" in obj:
        return _parse_grid(obj, GridKernel)
    return _parse_family_obj(obj, "kernel")


def _parse_grid(obj: Any, cls: type[GridKernel]) -> GridKernel:
    """The grid object as a ``cls``, a GridKernel or a PsiGrid.

    ``_one_pass_grid`` reads a grid of float axes and list rows, each row
    live floats then a dead tail of "-inf", checking every cell once.
    Any other grid, or one that it or ``cls`` refuses, is read again
    through ``parse_num`` entry by entry, so the first bad entry names
    its code.
    """
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", "kernel grid must be a JSON object")
    for key in ("x_grid", "p_grid", "table"):
        if not isinstance(obj.get(key), list):
            raise InputError("BAD_SCHEMA", f"grid needs a list under {key!r}")
    try:
        return _one_pass_grid(obj["x_grid"], obj["p_grid"], obj["table"], cls)
    except ValueError:  # off its form, or refused: the entries are read again
        pass
    xg = _parse_nums(obj["x_grid"], "x_grid")
    pg = _parse_nums(obj["p_grid"], "p_grid")
    table = []
    for i, row in enumerate(obj["table"]):
        if not isinstance(row, list):
            raise InputError("BAD_SCHEMA", f"table[{i}] must be a list")
        table.append(_parse_nums(row, f"table[{i}]"))
    try:
        return cls(xg, pg, tuple(table))
    except ValueError as exc:
        raise InputError("BAD_SCHEMA", f"kernel grid: {exc}") from None


def _one_pass_grid(xs: list, ps: list, rows: list, cls: type[GridKernel]) -> GridKernel:
    """The grid with GridKernel's checks made in one pass per row; ValueError off its form.

    The axes must hold floats, so that ``check_axes`` sees no int or
    sentinel.  A row is a list of len(p_grid) cells: a live head of
    floats that falls along p, its last cell >= -inf so that even a lone
    NaN fails, then a dead tail of "-inf" strings; a row without one ends
    in a float -inf.  One bisection over the cells' types finds where the
    tail starts; a head or tail holding anything else is refused by the
    checks that follow, and so is the grid.
    """
    if not {float}.issuperset(map(type, chain(xs, ps))):
        raise ValueError
    xg, pg = check_axes(xs, ps)
    n = len(pg)
    if len(rows) != len(xg):
        raise ValueError
    dead, dead_floats = ["-inf"] * n, (-INF,) * n
    table = []
    for row in rows:
        if type(row) is not list or len(row) != n:
            raise ValueError
        k = bisect_left(row, True, key=str.__instancecheck__)
        head = row[:k]
        if not (row[k:] == dead[k:] and (k < n or row[-1] == -INF)
                and {float}.issuperset(map(type, head))
                and all(map(ge, head, islice(head, 1, None))) and (not k or head[-1] >= -INF)):
            raise ValueError
        table.append(tuple(head) + dead_floats[k:])
    return cls._trusted(xg, pg, tuple(table))


def _parse_nums(values: list, where: str) -> tuple[float, ...]:
    """``parse_num`` on each entry, the j-th reported as ``where[j]``."""
    return tuple(parse_num(v, f"{where}[{j}]") for j, v in enumerate(values))


def parse_measure_obj(obj: Any) -> RiskMeasure:
    return _parse_family_obj(obj, "measure")


def measure_to_obj(measure: RiskMeasure) -> dict:
    for family in FAMILIES.values():
        if measure.name != family.name:
            continue
        obj: dict[str, Any] = {"kind": family.kind}
        for (key, typ), (_, value) in zip(family.params, measure.params):
            if typ != STEP:
                obj[key] = dump_num(value)
            elif isinstance(value, MonotoneStep):
                obj[key] = step_to_obj(value)
            else:
                raise ValueError(f"{family.kind} parameter {key!r} has no JSON form: not a step curve")
        return obj
    raise ValueError(f"no JSON form for measure {measure.name!r}")


# -- kernel grids from the constructive engine ----------------------------


def psi_grid_to_obj(grid: PsiGrid) -> dict:
    """The grid form plus ``y_max`` and ``tol``, which the format keeps."""
    return {**_grid_to_obj(grid), **_psi_settings(grid)}


def _psi_settings(grid: PsiGrid) -> dict:
    """``y_max``, the grid max plus one span, and ``tol``, 1e-9; a read ignores both."""
    xg = grid.x_grid
    return {"y_max": dump_num(xg[-1] + (xg[-1] - xg[0])), "tol": 1e-9}


def parse_psi_grid_obj(obj: Any) -> PsiGrid:
    return _parse_grid(obj, PsiGrid)


# -- reports --------------------------------------------------------------


_WITNESS_TYPES = {PairWitness: "pair", PointWitness: "point", ProbeWitness: "probe"}
_DUMP_BY_TYPE = {float: dump_num, DiscreteDist: distribution_to_obj}


def witness_to_obj(w: Witness) -> dict:
    """The witness's type tag plus its fields, each dumped by its declared type."""
    tag = _WITNESS_TYPES.get(type(w))
    if tag is None:
        raise ValueError(f"no JSON form for witness type {type(w).__name__}")
    hints = get_type_hints(type(w))
    obj: dict[str, Any] = {"type": tag}
    for f in fields(w):
        value = getattr(w, f.name)
        dump = _DUMP_BY_TYPE.get(hints[f.name])
        obj[f.name] = value if dump is None else dump(value)
    return obj


def report_to_obj(report: StabilityReport) -> dict:
    obj = {
        "axiom": report.axiom,
        "seed": report.seed,
        "trials": report.trials,
        "violations": report.violations,
        "worst_gap": dump_num(report.worst_gap),
        "witness": None if report.witness is None else witness_to_obj(report.witness),
        "verdict": report.verdict,
    }
    if report.tail_gap is not None:
        obj["tail_gap"] = dump_num(report.tail_gap)
    return obj


def report_to_json(report: StabilityReport) -> str:
    return dump_json(report_to_obj(report))


# -- superlevel boundaries ------------------------------------------------


def superlevel_rows(
    kernel: PsiKernel,
    threshold: float,
    x_range: tuple[float, float],
    resolution: int = 101,
) -> list[tuple[float, float | None, bool]]:
    """Boundary of the region where the kernel meets a threshold.

    Both axes are sampled on regular grids of the given resolution, p
    over [0, 1].  Each row holds the largest sampled p at which
    psi(x, p) >= threshold, or None when no sampled level qualifies.
    The boundary is found by bisection over the sampled p, which relies
    on psi decreasing in p: every kernel the command line can build
    does, as grid rows and family curves are checked at construction.
    On a GridKernel (a PsiGrid is one) each sampled p is snapped to its
    p node once per call and each sampled x floored to its row once; one
    bisection finds the row's cells that meet the threshold, a prefix,
    and a second counts the sampled columns inside it, the cells
    ``eval`` would read.  Any other kernel is read through ``eval``.  A NaN
    threshold is rejected, and so are an x range whose ends or width
    are not finite and a resolution above ``MAX_GRID_NODES``.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    lo, hi = (float(x_range[0]), float(x_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"x range must be a finite interval, got {x_range}")
    if not math.isfinite(hi - lo):  # the samples scale by the width
        raise ValueError(f"x range must have a finite width, got {x_range}")
    if not 2 <= resolution <= MAX_GRID_NODES:
        raise ValueError(f"resolution must be from 2 to {MAX_GRID_NODES}, got {resolution}")
    steps = resolution - 1
    xs = [lo + (hi - lo) * k / steps for k in range(resolution)]
    ps = [k / steps for k in range(resolution)]
    # psi falls in p, so the levels that meet the threshold are a prefix of ps
    if isinstance(kernel, GridKernel):
        cols = [kernel.nearest_p_index(p) for p in ps]
        # the row left of the grid reads -inf, as eval does there
        by_x = ((-INF,) * len(kernel.p_grid), *kernel.table)

        def cut(x: float) -> int:
            # the row's cells >= threshold are a prefix; count the columns inside it
            row = by_x[bisect_right(kernel.x_grid, x)]
            return bisect_left(cols, bisect_right(row, -threshold, key=neg))
    else:
        def cut(x: float) -> int:
            return bisect_left(ps, True, key=lambda p: not kernel.eval(x, p) >= threshold)
    rows: list[tuple[float, float | None, bool]] = []
    for x in xs:
        k = cut(x)
        boundary = ps[k - 1] if k else None
        rows.append((x, boundary, boundary is not None))
    return rows


def csv_num(v: float) -> str:
    return str(dump_num(v))


def write_superlevel_csv(rows: list[tuple[float, float | None, bool]], fh: TextIO) -> None:
    """The rows as CSV text under a header, in one write; no field needs quoting."""
    fh.write("x,p_boundary,reachable\n" + "".join(
        f"{csv_num(x)},{'none' if p is None else csv_num(p)},{'true' if reachable else 'false'}\n"
        for x, p, reachable in rows))
