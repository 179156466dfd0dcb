"""Command line front end.

Five subcommands: eval (measure values on distributions), lattice
(order tests, join, meet, decomposition), check (randomized axiom
verification), construct-psi (tabulate a kernel from a measure) and
superlevel (CSV boundary of a kernel's superlevel set).  Arguments that
take JSON accept either an inline object (anything starting with "{")
or a path to a file holding one.

Exit status: 0 on success and passing checks, 1 when a check finds a
violation or the construction gate rejects the measure, 2 on any input
problem.  Every randomized run prints the seed it can be replayed from.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Any

from .dist import ContinuousCDF, DiscreteDist, fsd_join, fsd_leq, fsd_meet, join_decomposition
from .engine import GATE_SEED, StabilityGateError, construct_psi
from .harness import (
    SamplerConfig,
    check_fsd_consistency,
    check_max_stability,
    check_min_stability,
    check_nondegeneracy,
    check_semicontinuity_probe,
)
from .jsonio import (
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
    psi_grid_to_obj,
    report_to_json,
    superlevel_rows,
    write_superlevel_csv,
)

_ND_GRID_POINTS = 50


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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_eval(args: argparse.Namespace) -> int:
    measure = parse_measure_obj(_load_obj(args.measure))
    # a measure is pure, so each distinct spec is read and evaluated once;
    # the cache keeps values, not distributions, so memory stays flat
    seen: dict[str, float] = {}
    values = []
    for i, spec in enumerate(args.dist):
        if spec not in seen:
            seen[spec] = measure(_load_discrete(spec, i))
        values.append(seen[spec])
    for v in values:
        print(csv_num(v))
    if args.out:
        payload = {"measure": measure_to_obj(measure), "values": [dump_num(v) for v in values]}
        Path(args.out).write_text(dump_json(payload))
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
    measure = parse_measure_obj(_load_obj(args.measure))
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
        limit = ContinuousCDF.uniform(0.0, 1.0)
        if args.dist:
            if len(args.dist) != 1:
                raise InputError("BAD_SCHEMA", "the limit probe takes a single --dist")
            parsed = parse_distribution_obj(_load_obj(args.dist[0]))
            if not isinstance(parsed, ContinuousCDF):
                raise InputError("BAD_SCHEMA", "the limit probe needs a continuous distribution")
            limit = parsed
        report = check_semicontinuity_probe(measure, limit, n_max=args.trials, tol=args.tol)
    print(f"seed: {report.seed}")
    print(
        f"axiom: {report.axiom}  measure: {measure.name}  verdict: {report.verdict}"
        f"  violations: {report.violations}/{report.trials}  worst gap: {csv_num(report.worst_gap)}"
    )
    if args.out:
        Path(args.out).write_text(report_to_json(report))
    return 0 if report.passed else 1


def _regular_grid(lo: float, hi: float, step: float, label: str) -> list[float]:
    if not step > 0.0:
        raise InputError("BAD_SCHEMA", f"{label} step must be positive, got {step}")
    count = round((hi - lo) / step)
    if count < 1 or abs(lo + count * step - hi) > 1e-9:
        raise InputError("BAD_SCHEMA", f"{label} range is not a whole number of steps of {step}")
    return [lo + k * step for k in range(count)] + [hi]


def _cmd_construct_psi(args: argparse.Namespace) -> int:
    measure = parse_measure_obj(_load_obj(args.measure))
    lo, hi = args.x_range
    if not lo < hi:
        raise InputError("BAD_SCHEMA", f"x range needs lo < hi, got {lo} {hi}")
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
    # printed only once the gate has run, so an input error leaves stdout empty
    print(gate_line)
    _emit(dump_json(psi_grid_to_obj(grid)), args.out)
    return 0


def _cmd_superlevel(args: argparse.Namespace) -> int:
    kernel = parse_kernel_obj(_load_obj(args.kernel))
    lo, hi = args.x_range
    rows = superlevel_rows(kernel, args.threshold, (lo, hi), args.resolution)
    buf = io.StringIO()
    write_superlevel_csv(rows, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsdrisk",
        description="risk functionals on finite loss distributions: "
        "evaluation, order lattice, axiom checks, kernel tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a measure on distributions")
    p.add_argument("--dist", action="extend", nargs="+", required=True, metavar="JSON|PATH",
                   help="one or more distributions, repeatable; a repeated spec is read "
                   "and evaluated once")
    p.add_argument("--measure", required=True, metavar="JSON|PATH")
    p.add_argument("--out", metavar="PATH", help="also write a JSON result file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("lattice", help="order tests, join and meet, decomposition")
    p.add_argument("--dist", action="extend", nargs="+", required=True, metavar="JSON|PATH",
                   help="one or two distributions: one decomposes, two compare")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("check", help="run one axiom check against a measure")
    p.add_argument("--measure", required=True, metavar="JSON|PATH")
    p.add_argument("--axiom", required=True, choices=["maxs", "mins", "nd", "fsd", "ls"])
    p.add_argument("--trials", type=int, default=1000,
                   help="sampled pairs, or the cell-count limit for ls (default 1000)")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--dist", action="extend", nargs="+", metavar="JSON|PATH",
                   help="continuous limit for ls (default: uniform on [0, 1])")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct-psi", help="tabulate a kernel from a max-stable measure")
    p.add_argument("--measure", required=True, metavar="JSON|PATH")
    p.add_argument("--x-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--x-step", type=float, required=True)
    p.add_argument("--p-step", type=float, required=True)
    p.add_argument("--trials", type=int, default=150, help="stability gate trials")
    p.add_argument("--out", metavar="PATH", help="write the grid JSON here")
    p.set_defaults(func=_cmd_construct_psi)

    p = sub.add_parser("superlevel", help="CSV boundary of a kernel superlevel set")
    p.add_argument("--kernel", required=True, metavar="JSON|PATH")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--x-range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_superlevel)

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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(fold_dist_flags(argv))
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error [BAD_SCHEMA]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
