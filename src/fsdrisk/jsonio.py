"""JSON and CSV input and output.

One file format per object kind: distributions (atom lists or a named
continuous family), step curves, kernels, measures, tabulated kernel
grids, and check reports.  Infinities travel as the strings "inf" and
"-inf" in JSON and as those bare words in CSV; NaN is rejected wherever
it appears.  Rejections raise InputError carrying a stable code so the
command line can map them to exit status and a terse message:

    NO_FILE     missing or unreadable input file
    BAD_JSON    input is not JSON at all
    BAD_SCHEMA  JSON is well-formed but not the expected shape
    NAN_VALUE   a NaN appeared where a value was expected
    MASS_SUM    atom masses do not sum to one

Measure and kernel objects are {"kind": ..., <parameters>}, read and
written generically off ``measures.FAMILIES``: each family's entry names
its kind and its parameters' keys and types (number or step curve).
Adding a family means adding its closed form, parameter check and
psi-kernel class, and one entry to that table; nothing here changes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from math import fsum
from pathlib import Path
from typing import Any, TextIO, Union, get_type_hints

from .dist import MASS_TOL, ContinuousCDF, DiscreteDist
from .engine import PsiGrid
from .harness import PairWitness, PointWitness, ProbeWitness, StabilityReport, Witness
from .kernels import GridKernel, PsiKernel
from .measures import FAMILIES, STEP, Family, RiskMeasure
from .steps import DEC, INC, MonotoneStep

INF = math.inf

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
        f = float(v)
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


def load_json_file(path: str | Path) -> Any:
    p = Path(path)
    try:
        text = p.read_text()
    except FileNotFoundError:
        raise InputError("NO_FILE", f"no such file: {p}") from None
    except OSError as exc:
        raise InputError("NO_FILE", f"cannot read {p}: {exc}") from None
    return parse_json_text(text)


def dump_json(obj: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- distributions --------------------------------------------------------


def distribution_to_obj(dist: Distribution) -> dict:
    if isinstance(dist, ContinuousCDF):
        if not dist.name.startswith("uniform"):
            raise ValueError(f"no file form for continuous family {dist.name!r}")
        lo, hi = dist.support
        return {"family": "uniform", "a": lo, "b": hi}
    return {"atoms": [{"x": dump_num(x), "p": dump_num(p)} for x, p in dist.atoms]}


def parse_distribution_obj(obj: Any) -> Distribution:
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", "distribution must be a JSON object")
    if "atoms" in obj:
        raw = obj["atoms"]
        if not isinstance(raw, list) or not raw:
            raise InputError("BAD_SCHEMA", "atoms must be a non-empty list")
        atoms = [_parse_atom(i, entry) for i, entry in enumerate(raw)]
        # from_atoms checks the sum of the merged masses: unless atoms were
        # merged, that is the input's own sum, which a MASS_SUM error reports
        try:
            dist = DiscreteDist.from_atoms(atoms)
        except ValueError:
            _check_mass_sum(atoms)
            raise
        if dist.n_atoms < len(atoms):
            _check_mass_sum(atoms)
        return dist
    if obj.get("family") == "uniform":
        a = parse_num(obj.get("a"), "uniform bound a")
        b = parse_num(obj.get("b"), "uniform bound b")
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise InputError("BAD_SCHEMA", f"uniform needs finite bounds a < b, got {a}, {b}")
        return ContinuousCDF.uniform(a, b)
    raise InputError("BAD_SCHEMA", "distribution needs an atoms list or family: uniform")


def _parse_atom(i: int, entry: Any) -> tuple[float, float]:
    """Atom ``i`` as ``(x, p)``: x finite, p in (0, 1]."""
    if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
        raise InputError("BAD_SCHEMA", f"atom {i} must be an object with keys x and p")
    x, p = entry["x"], entry["p"]
    # plain floats in range are done; anything else (an int, a sentinel
    # string, NaN, an out-of-range value) takes the full checks and messages
    if type(x) is float and type(p) is float and -INF < x < INF and 0.0 < p <= 1.0:
        return x, p
    x = parse_num(x, f"atom {i} x")
    p = parse_num(p, f"atom {i} p")
    if not math.isfinite(x):
        raise InputError("BAD_SCHEMA", f"atom {i}: position must be finite, got {x}")
    if not 0.0 < p <= 1.0:
        raise InputError("BAD_SCHEMA", f"atom {i}: mass must lie in (0, 1], got {p}")
    return x, p


def _check_mass_sum(atoms: list[tuple[float, float]]) -> None:
    total = fsum(p for _, p in atoms)
    if abs(total - 1.0) > MASS_TOL:
        raise InputError("MASS_SUM", f"atom masses sum to {total!r}, need 1 within {MASS_TOL}")


def parse_distribution_file(path: str | Path) -> Distribution:
    return parse_distribution_obj(load_json_file(path))


def save_distribution_file(dist: Distribution, path: str | Path) -> None:
    Path(path).write_text(dump_json(distribution_to_obj(dist)))


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


def _family_to_obj(family: Family, values: list) -> dict:
    obj: dict[str, Any] = {"kind": family.kind}
    for (key, typ), value in zip(family.params, values):
        if typ != STEP:
            obj[key] = dump_num(value)
        elif isinstance(value, MonotoneStep):
            obj[key] = step_to_obj(value)
        else:
            raise ValueError(f"{family.kind} parameter {key!r} has no JSON form: not a step curve")
    return obj


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


def _grid_to_obj(grid: GridKernel) -> dict:
    return {
        "x_grid": [dump_num(v) for v in grid.x_grid],
        "p_grid": [dump_num(v) for v in grid.p_grid],
        "table": [[dump_num(v) for v in row] for row in grid.table],
    }


def kernel_to_obj(kernel: PsiKernel) -> dict:
    if isinstance(kernel, GridKernel):
        return _grid_to_obj(kernel)
    for family in FAMILIES.values():
        if type(kernel) is family.kernel:
            return _family_to_obj(family, [getattr(kernel, f.name) for f in fields(kernel)])
    raise ValueError(f"no JSON form for kernel type {type(kernel).__name__}")


def parse_kernel_obj(obj: Any) -> PsiKernel:
    if isinstance(obj, dict) and "kind" not in obj and "table" in obj:
        xg, pg, table = _parse_grid_fields(obj)
        try:
            return GridKernel(xg, pg, table)
        except ValueError as exc:
            raise InputError("BAD_SCHEMA", f"kernel grid: {exc}") from None
    return _parse_family_obj(obj, "kernel")


def _parse_grid_fields(obj: dict) -> tuple[tuple, tuple, tuple]:
    for key in ("x_grid", "p_grid", "table"):
        if not isinstance(obj.get(key), list):
            raise InputError("BAD_SCHEMA", f"grid needs a list under {key!r}")
    xg = tuple(parse_num(v, f"x_grid[{i}]") for i, v in enumerate(obj["x_grid"]))
    pg = tuple(parse_num(v, f"p_grid[{i}]") for i, v in enumerate(obj["p_grid"]))
    table = []
    for i, row in enumerate(obj["table"]):
        if not isinstance(row, list):
            raise InputError("BAD_SCHEMA", f"table[{i}] must be a list")
        table.append(tuple(parse_num(v, f"table[{i}][{j}]") for j, v in enumerate(row)))
    return xg, pg, tuple(table)


def parse_measure_obj(obj: Any) -> RiskMeasure:
    return _parse_family_obj(obj, "measure")


def measure_to_obj(measure: RiskMeasure) -> dict:
    for family in FAMILIES.values():
        if measure.name == family.name:
            return _family_to_obj(family, [value for _, value in measure.params])
    raise ValueError(f"no JSON form for measure {measure.name!r}")


# -- kernel grids from the constructive engine ----------------------------


def psi_grid_to_obj(grid: PsiGrid) -> dict:
    """The grid form plus ``y_max`` and ``tol``, which the format keeps.

    The table depends on neither: they are written as the grid max plus
    one span and 1e-9, and reading a grid file ignores them.
    """
    xg = grid.x_grid
    return {**_grid_to_obj(grid), "y_max": dump_num(xg[-1] + (xg[-1] - xg[0])), "tol": 1e-9}


def parse_psi_grid_obj(obj: Any) -> PsiGrid:
    if not isinstance(obj, dict):
        raise InputError("BAD_SCHEMA", "kernel grid must be a JSON object")
    xg, pg, table = _parse_grid_fields(obj)
    try:
        return PsiGrid(xg, pg, table)
    except ValueError as exc:
        raise InputError("BAD_SCHEMA", f"kernel grid: {exc}") from None


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
    """
    lo, hi = (float(x_range[0]), float(x_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"x range must be a finite interval, got {x_range}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    steps = resolution - 1
    xs = [lo + (hi - lo) * k / steps for k in range(resolution)]
    ps = [k / steps for k in range(resolution)]
    rows: list[tuple[float, float | None, bool]] = []
    for x in xs:
        boundary = None
        for p in ps:
            if kernel.eval(x, p) >= threshold:
                boundary = p
        rows.append((x, boundary, boundary is not None))
    return rows


def csv_num(v: float) -> str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return repr(float(v))


def write_superlevel_csv(rows: list[tuple[float, float | None, bool]], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["x", "p_boundary", "reachable"])
    for x, p, reachable in rows:
        writer.writerow([csv_num(x), "none" if p is None else csv_num(p), "true" if reachable else "false"])
