"""Command line front end.

Five subcommands: eval (measure values on distributions), lattice
(order tests, join, meet, decomposition), check (randomized axiom
verification), construct-psi (tabulate a kernel from a measure) and
superlevel (CSV boundary of a kernel's superlevel set).  Arguments that
take JSON accept either an inline object (anything starting with "{")
or a path to a file holding one.  A token that starts with "-" and that
``float`` reads is a value, never an option, so ``--threshold -1e-3``
and ``--x-range -1e-1 1e-1`` parse as typed.

Exit status: 0 on success and passing checks, 1 when a check finds a
violation or the construction gate rejects the measure, 2 on any input
problem and 3 on any other exception, which is a fault in the program.
Every randomized run prints the seed it can be replayed from.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
import traceback
from pathlib import Path
from typing import Any, Callable

from .dist import ContinuousCDF, DiscreteDist, fsd_join, fsd_leq, fsd_meet, join_decomposition
from .engine import GATE_SEED, StabilityGateError, construct_psi
from .harness import (
    DEFAULT_TOL,
    MAX_PROBE_CELLS,
    SamplerConfig,
    check_fsd_consistency,
    check_max_stability,
    check_min_stability,
    check_nondegeneracy,
    check_semicontinuity_probe,
)
from .jsonio import (
    MAX_GRID_NODES,
    InputError,
    csv_num,
    distribution_to_obj,
    dump_json,
    dump_num,
    load_json_file,
    measure_to_obj,
    parse_distribution_obj,
    parse_json_text,
    parse_kernel_obj,
    parse_measure_obj,
    psi_grid_to_obj,  # not called here; perfbench/tracer.py patches this name
    report_to_json,
    superlevel_rows,
    write_superlevel_csv,
)

_ND_GRID_POINTS = 50

# argparse reads a "-" token as an option unless its negative-number
# pattern matches, and the stock one misses -1e-3, -inf and -1_0; this one
# matches exactly the "-" tokens float reads, trailing whitespace included
# (float strips all but the separators \x1c-\x1f)
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][+-]?{_DIGITS})?"
    r"|(?ai:inf(?:inity)?|nan))[^\S\x1c-\x1f]*\Z"
)


def _load_obj(text_or_path: str) -> Any:
    s = text_or_path.strip()
    if s.startswith("{"):
        return parse_json_text(s)
    return load_json_file(text_or_path)


def _load_discrete(spec: str, index: int) -> DiscreteDist:
    dist = parse_distribution_obj(_load_obj(spec))
    if not isinstance(dist, DiscreteDist):
        raise InputError("BAD_SCHEMA", f"distribution {index}: this command needs an atom list")
    return dist


def _write_out(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError("NO_FILE", f"cannot write {path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_out(out, text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    if not args.dist:
        raise InputError("BAD_SCHEMA", "eval takes one or more --dist arguments")
    measure = parse_measure_obj(_load_obj(args.measure))
    # a measure is pure, so each distinct spec is read and evaluated once;
    # the cache keeps values, not distributions, so memory stays flat
    seen: dict[str, float] = {}
    values = []
    for i, spec in enumerate(args.dist):
        if spec not in seen:
            seen[spec] = measure(_load_discrete(spec, i))
        values.append(seen[spec])
    if args.out:
        # written before anything is printed, so NO_FILE leaves stdout empty
        payload = {"measure": measure_to_obj(measure), "values": [dump_num(v) for v in values]}
        _write_out(args.out, dump_json(payload))
    for v in values:
        print(csv_num(v))
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    dists = [_load_discrete(spec, i) for i, spec in enumerate(args.dist)]
    if len(dists) == 1:
        parts = join_decomposition(dists[0])
        obj: dict[str, Any] = {"decomposition": [distribution_to_obj(p) for p in parts]}
    elif len(dists) == 2:
        f, g = dists
        obj = {
            "leq_fg": fsd_leq(f, g),
            "leq_gf": fsd_leq(g, f),
            "join": distribution_to_obj(fsd_join(f, g)),
            "meet": distribution_to_obj(fsd_meet(f, g)),
        }
    else:
        raise InputError("BAD_SCHEMA", "lattice takes one or two --dist arguments")
    _emit(dump_json(obj), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.dist is not None and args.axiom != "ls":
        raise InputError("BAD_SCHEMA", f"--dist is read only by --axiom ls, not --axiom {args.axiom}")
    measure = parse_measure_obj(_load_obj(args.measure))
    limit = ContinuousCDF.uniform(0.0, 1.0)
    if args.dist is not None:
        if len(args.dist) != 1:
            raise InputError("BAD_SCHEMA", "the limit probe takes a single --dist")
        parsed = parse_distribution_obj(_load_obj(args.dist[0]))
        if not isinstance(parsed, ContinuousCDF):
            raise InputError("BAD_SCHEMA", "the limit probe needs a continuous distribution")
        limit = parsed
    if args.axiom == "ls" and not 2 <= args.trials <= MAX_PROBE_CELLS:
        # worded here, since the probe names its cell limit n_max
        bound = "at least 2" if args.trials < 2 else f"at most {MAX_PROBE_CELLS}"
        raise InputError("BAD_SCHEMA", f"--trials for ls must be {bound}, got {args.trials}")
    try:
        if args.axiom in ("maxs", "mins", "fsd"):
            cfg = SamplerConfig(seed=args.seed, trials=args.trials)
            run = {
                "maxs": check_max_stability,
                "mins": check_min_stability,
                "fsd": check_fsd_consistency,
            }[args.axiom]
            report = run(measure, cfg, args.tol)
        elif args.axiom == "nd":
            lo, hi = (-10.0, 10.0)
            grid = [lo + (hi - lo) * k / (_ND_GRID_POINTS - 1) for k in range(_ND_GRID_POINTS)]
            report = check_nondegeneracy(measure, grid, args.tol)
        else:
            report = check_semicontinuity_probe(measure, limit, n_max=args.trials, tol=args.tol)
    except ValueError as exc:
        # the checks validate --trials and --tol themselves
        raise InputError("BAD_SCHEMA", str(exc)) from None
    if args.out:
        # written before anything is printed, so NO_FILE leaves stdout empty
        _write_out(args.out, report_to_json(report))
    print(f"seed: {report.seed}")
    print(
        f"axiom: {report.axiom}  measure: {measure.name}  verdict: {report.verdict}"
        f"  violations: {report.violations}/{report.trials}  worst gap: {csv_num(report.worst_gap)}"
    )
    return 0 if report.passed else 1


def _regular_grid(lo: float, hi: float, step: float, label: str) -> list[float]:
    if not step > 0.0:
        raise InputError("BAD_SCHEMA", f"{label} step must be positive, got {step}")
    cells = (hi - lo) / step
    if not math.isfinite(cells):
        raise InputError(
            "BAD_SCHEMA", f"{label} range {lo} {hi} spans no finite number of steps of {step}"
        )
    count = round(cells)
    # an absolute 1e-9 is below one ulp of the range's ends from about 1e7 up
    tol = max(1e-9, 4 * math.ulp(max(abs(lo), abs(hi))))
    if count < 1 or abs(lo + count * step - hi) > tol:
        raise InputError("BAD_SCHEMA", f"{label} range is not a whole number of steps of {step}")
    if count + 1 > MAX_GRID_NODES:
        raise InputError(
            "BAD_SCHEMA", f"{label} step {step} gives more than {MAX_GRID_NODES} grid nodes"
        )
    return [lo + k * step for k in range(count)] + [hi]


def _cmd_construct_psi(args: argparse.Namespace) -> int:
    measure = parse_measure_obj(_load_obj(args.measure))
    lo, hi = args.x_range
    if not lo < hi:
        raise InputError("BAD_SCHEMA", f"x range needs lo < hi, got {lo} {hi}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError("BAD_SCHEMA", f"x range must be finite, got {lo} {hi}")
    x_grid = _regular_grid(lo, hi, args.x_step, "x")
    p_grid = _regular_grid(0.0, 1.0, args.p_step, "p")
    gate_line = f"stability gate: seed {GATE_SEED}, {args.trials} trials"
    try:
        grid = construct_psi(
            measure,
            x_grid,
            p_grid,
            stability_trials=args.trials,
        )
    except StabilityGateError as exc:
        print(gate_line)
        print(f"error [AXIOM]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # construct_psi validates --trials and the grids itself
        raise InputError("BAD_SCHEMA", str(exc)) from None
    # printed only once the gate has run and the grid is written, so an
    # input error, an unwritable --out included, leaves stdout empty
    text = dump_json(grid)
    if args.out:
        _write_out(args.out, text)
        text = ""
    print(gate_line)
    sys.stdout.write(text)
    return 0


def _cmd_superlevel(args: argparse.Namespace) -> int:
    kernel = parse_kernel_obj(_load_obj(args.kernel))
    lo, hi = args.x_range
    try:
        rows = superlevel_rows(kernel, args.threshold, (lo, hi), args.resolution)
    except ValueError as exc:
        # superlevel_rows validates --threshold, --x-range and --resolution itself
        raise InputError("BAD_SCHEMA", str(exc)) from None
    buf = io.StringIO()
    write_superlevel_csv(rows, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; ``main`` parses with the one built at import."""
    parser = argparse.ArgumentParser(
        prog="fsdrisk",
        description="risk functionals on finite loss distributions: "
        "evaluation, order lattice, axiom checks, kernel tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func: Callable[[argparse.Namespace], int]):
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(func=func)
        return p.add_argument

    add = command("eval", "evaluate a measure on distributions", _cmd_eval)
    add("--dist", action="extend", nargs="+", required=True, metavar="JSON|PATH",
        help="one or more distributions, repeatable; a repeated spec is read "
        "and evaluated once")
    add("--measure", required=True, metavar="JSON|PATH")
    add("--out", metavar="PATH", help="also write a JSON result file")

    add = command("lattice", "order tests, join and meet, decomposition", _cmd_lattice)
    add("--dist", action="extend", nargs="+", required=True, metavar="JSON|PATH",
        help="one or two distributions: one decomposes, two compare")
    add("--out", metavar="PATH")

    add = command("check", "run one axiom check against a measure", _cmd_check)
    add("--measure", required=True, metavar="JSON|PATH")
    add("--axiom", required=True, choices=["maxs", "mins", "nd", "fsd", "ls"])
    add("--trials", type=int, default=1000,
        help="sampled pairs, or the cell-count limit for ls (default 1000)")
    add("--seed", type=int, default=12345)
    add("--tol", type=float, default=DEFAULT_TOL)
    add("--dist", action="extend", nargs="+", metavar="JSON|PATH",
        help="continuous limit for ls, the only axiom that reads it (default: uniform on [0, 1])")
    add("--out", metavar="PATH", help="write the JSON report here")

    add = command("construct-psi", "tabulate a kernel from a max-stable measure",
                  _cmd_construct_psi)
    add("--measure", required=True, metavar="JSON|PATH")
    add("--x-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    add("--x-step", type=float, required=True)
    add("--p-step", type=float, required=True)
    add("--trials", type=int, default=150, help="stability gate trials")
    add("--out", metavar="PATH", help="write the grid JSON here")

    add = command("superlevel", "CSV boundary of a kernel superlevel set", _cmd_superlevel)
    add("--kernel", required=True, metavar="JSON|PATH")
    add("--threshold", type=float, required=True)
    add("--x-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    add("--resolution", type=int, default=101)
    add("--out", metavar="PATH")

    return parser


def fold_dist_flags(argv: list[str]) -> list[str]:
    """Fold each run of ``--dist V1 --dist V2 ...`` into ``--dist V1 V2 ...``.

    Before Python 3.13, argparse rescans every option index for each
    option it consumes, so a batch of n ``--dist`` flags parses in O(n^2);
    one flag with n values parses in O(n).  Only a value that cannot read
    as an option (it does not start with "-") is folded.  Everything else,
    ``--dist=V``, abbreviations, a trailing ``--dist``, and all tokens from
    "--" on, is passed through untouched, so argparse sees the same
    values in the same order and rejects the same inputs.
    """
    out: list[str] = []
    in_run = False
    i, n = 0, len(argv)
    while i < n:
        tok = argv[i]
        if tok == "--":
            out.extend(argv[i:])
            break
        if tok == "--dist" and i + 1 < n and not argv[i + 1].startswith("-"):
            if not in_run:
                out.append(tok)
            out.append(argv[i + 1])
            in_run = True
            i += 2
        else:
            out.append(tok)
            in_run = False
            i += 1
    return out


# the parser main() parses with, built once
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(fold_dist_flags(argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault in the program, not in its input: keep the traceback
        traceback.print_exc()
        print(f"error [INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
