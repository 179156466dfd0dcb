"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the workload seed only, and hands the
run loop a round: a fixed list of operations, each one CLI invocation
(``fsdrisk.cli.main`` with stdout captured) or one group of library calls.
Every call into fsdrisk goes through a module attribute looked up at call
time, so the traced run sees it.  ``setup`` is the program work a user pays
before the first operation (for ``represent``, tabulating the kernel grids);
``prepare`` is benchmark work (generating inputs and reference answers) and
is never timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fsdrisk.cli
import fsdrisk.engine
import fsdrisk.jsonio
import fsdrisk.kernels
from fsdrisk.dist import DiscreteDist, fsd_join
from fsdrisk.kernels import (
    BenchmarkLossKernel,
    DualLambdaKernel,
    DualVarKernel,
    LambdaKernel,
    PsiKernel,
    VarKernel,
)
from fsdrisk.measures import (
    affine_benchmark,
    benchmark_loss_measure,
    expected_shortfall,
    lambda_quantile,
    lambda_quantile_measure,
    var,
    var_measure,
)
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf

LAM3 = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
LAM3_OBJ = {"breakpoints": [-2.0, 2.0], "values": [0.8, 0.5, 0.2], "direction": "dec"}
VAR_JSON = '{"kind": "var", "alpha": 0.3}'
LAM3_JSON = json.dumps({"kind": "lambda", "Lambda": LAM3_OBJ})


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` judges its output."""

    label: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process; return its exit status and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fsdrisk.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
    return rc, out.getvalue()


def fmt(v: float) -> str:
    """The CLI's rendering of a number: repr, or a bare infinity word."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return repr(float(v))


def regular_grid(lo: float, hi: float, n: int) -> list[float]:
    """n cells of (hi - lo) / n, built the way ``construct-psi`` builds them."""
    step = (hi - lo) / n
    return [lo + k * step for k in range(n)] + [hi]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Program work that has to happen before the first operation."""

    def prepare(self) -> list[Op]:
        raise NotImplementedError


# -- construct ---------------------------------------------------------------


# SHA-256 of each table as the seed commit writes it; CLI JSON must stay
# byte-identical, so any other digest is a wrong output
CONSTRUCT_SHA256 = {
    "var": "98dc9e22075773a47e9955d8e36caac3d18e9e576474f2abd8c2e5e140fcd303",
    "lambda": "35534bd423f779de30dd12dd9a25e2c1b68ed68eae274db640206501ff7eef72",
    "affine": "2ea3741d7c6f060823dea5b4b2bdf92cc074897e1bcdde0ed845fdd57a330693",
}
README_GRID = ["--x-range", "-5", "5", "--x-step", "0.05", "--p-step", "0.01"]
GATE_LINE = "stability gate: seed 413279, 150 trials\n"


class Construct(Workload):
    """``construct-psi`` on the README grid (201 x 101) for three families."""

    name = "construct"
    nodes = 201 * 101

    def prepare(self) -> list[Op]:
        # the var table, the README's own example and the cheapest, runs
        # three times, so the median operation is a repeated one
        families = ["var", "var", "var", "lambda", "affine"]
        self.rng.shuffle(families)
        return [self._op(f) for f in families]

    def _op(self, family: str) -> Op:
        path = self.workdir / f"psi-{family}.json"
        if family == "affine":
            # a callable benchmark curve has no JSON form, so this family
            # goes through the library: the same two calls the CLI makes
            def run():
                grid = fsdrisk.engine.construct_psi(
                    benchmark_loss_measure(affine_benchmark(2.0)),
                    regular_grid(-5.0, 5.0, 200),
                    regular_grid(0.0, 1.0, 100),
                )
                path.write_text(fsdrisk.jsonio.dump_json(fsdrisk.jsonio.psi_grid_to_obj(grid)))
                return 0, GATE_LINE
        else:
            measure = VAR_JSON if family == "var" else LAM3_JSON
            argv = ["construct-psi", "--measure", measure, *README_GRID, "--out", str(path)]

            def run():
                return run_cli(argv)

        def check(result) -> bool:
            rc, out = result
            if rc != 0 or out != GATE_LINE or sha256(path) != CONSTRUCT_SHA256[family]:
                return False
            return family != "var" or var_table_exact(json.loads(path.read_text()))

        return Op(f"construct-{family}", self.nodes, run, check)


def var_table_exact(obj: dict) -> bool:
    """The var(0.3) table is x below p = 0.3 and -inf from there on."""
    for x, row in zip(obj["x_grid"], obj["table"]):
        for p, v in zip(obj["p_grid"], row):
            if v != (x if p < 0.3 else "-inf"):
                return False
    return len(obj["x_grid"]) * len(obj["p_grid"]) == 201 * 101


# -- check -------------------------------------------------------------------


ES_JSON = '{"kind": "expected_shortfall", "alpha": 0.5}'
CHECK_TRIALS = 10000


class Check(Workload):
    """``check --trials 10000``: two stable measures both ways, one unstable."""

    name = "check"

    def prepare(self) -> list[Op]:
        plan = [
            ("var", VAR_JSON, "maxs", 0),
            ("var", VAR_JSON, "mins", 0),
            ("lambda", LAM3_JSON, "maxs", 0),
            ("lambda", LAM3_JSON, "mins", 0),
            ("es", ES_JSON, "maxs", 1),
        ]
        return [self._op(*entry, self.rng.randrange(2**31)) for entry in plan]

    def _op(self, family, measure, axiom, expected_rc, seed) -> Op:
        argv = ["check", "--measure", measure, "--axiom", axiom,
                "--trials", str(CHECK_TRIALS), "--seed", str(seed)]
        report = self.workdir / f"report-{family}-{axiom}.json"
        if expected_rc:
            argv += ["--out", str(report)]
        verdict = "fail" if expected_rc else "pass"

        def check(result) -> bool:
            rc, out = result
            lines = out.splitlines()
            if rc != expected_rc or len(lines) != 2 or lines[0] != f"seed: {seed}":
                return False
            if f"verdict: {verdict} " not in lines[1]:
                return False
            return not expected_rc or es_witness_reproduces(json.loads(report.read_text()), seed)

        return Op(f"check-{family}-{axiom}", CHECK_TRIALS, lambda: run_cli(argv), check)


def es_witness_reproduces(report: dict, seed: int) -> bool:
    """Rebuild the shortfall witness from the report and recompute its gap.

    The report stores atom masses, not cumulative levels, so the rebuilt
    pair can differ from the sampled one in the last bits of a level; the
    gap must reproduce to 1e-9.
    """
    w = report["witness"]
    if report["verdict"] != "fail" or report["seed"] != seed or w["type"] != "pair":
        return False
    f, g = (DiscreteDist.from_atoms((a["x"], a["p"]) for a in w[k]["atoms"]) for k in ("f", "g"))
    lhs = expected_shortfall(fsd_join(f, g), 0.5)
    rhs = max(expected_shortfall(f, 0.5), expected_shortfall(g, 0.5))
    return abs(abs(lhs - rhs) - w["gap"]) <= 1e-9 and w["gap"] > 1e-9


# -- eval --------------------------------------------------------------------


# the invocations of one round, as (family, size); every size appears
# twice but 10 to 400, so that, for any number of rounds, the median falls
# among the var 1000s and the 90th percentile among the var 5000s rather
# than between two sizes
EVAL_BATCHES = (
    ("var", 5000), ("lambda", 10), ("benchmark_loss", 2500), ("expected_shortfall", 60),
    ("var", 1000), ("lambda", 150), ("benchmark_loss", 2500), ("expected_shortfall", 400),
    ("var", 5000), ("var", 1000),
)
# distributions passed by path come from a pool of files that batches
# share, the way a user's portfolio files are named again and again
EVAL_FILES = 256
EVAL_MAX_ATOMS = 300
EVAL_X_RANGE = 10.0
# fsdrisk sums shortfall terms with math.fsum and numpy sums them pairwise;
# both stay within 1e-9 relative to the largest |x| (plus one)
ES_TOL = 1e-9 * (1.0 + EVAL_X_RANGE)


class Eval(Workload):
    """``eval`` over batches of distributions, inline and from files."""

    name = "eval"

    def prepare(self) -> list[Op]:
        self.nrng = np.random.default_rng(self.seed)
        self.files = []
        for k, n in enumerate(self._atom_counts(EVAL_FILES)):
            atoms = self._dist(n)
            path = self.workdir / f"dist-{k}.json"
            path.write_text(dist_json(atoms))
            self.files.append((str(path), atoms, DiscreteDist.from_atoms(atoms)))
        self._next_file = 0
        return [self._op(family, size) for family, size in EVAL_BATCHES]

    def _measure(self, family: str) -> tuple[str, PsiKernel | None, float | None]:
        """The measure's JSON, its psi kernel (None for shortfall) and its alpha."""
        rng = self.rng
        if family in ("var", "expected_shortfall"):
            a = round(rng.uniform(0.05, 0.95), 3)
            kernel = VarKernel(a) if family == "var" else None
            return json.dumps({"kind": family, "alpha": a}), kernel, a
        k = rng.randint(0, 4)
        if family == "lambda":
            bps = sorted(round(rng.uniform(-8.0, 8.0), 3) for _ in range(k))
            vals = sorted((round(rng.uniform(0.0, 1.0), 3) for _ in range(k + 1)), reverse=True)
            step = {"breakpoints": bps, "values": vals, "direction": "dec"}
            kernel = LambdaKernel(MonotoneStep(tuple(bps), tuple(vals), direction=DEC))
            return json.dumps({"kind": "lambda", "Lambda": step}), kernel, None
        bps = sorted(round(rng.uniform(0.01, 0.99), 3) for _ in range(k))
        vals = sorted(round(rng.uniform(-3.0, 3.0), 3) for _ in range(k + 1))
        step = {"breakpoints": bps, "values": vals, "direction": "inc", "at_one": "inf"}
        kernel = BenchmarkLossKernel(MonotoneStep(tuple(bps), tuple(vals), at_one=INF))
        return json.dumps({"kind": "benchmark_loss", "h": step}), kernel, None

    def _atom_counts(self, size: int) -> list[int]:
        """Atom counts log-uniform on 1..EVAL_MAX_ATOMS, one per stratum, shuffled.

        Stratifying keeps a batch's total work nearly the same from seed
        to seed, so the seed changes the inputs but not the load.
        """
        top = math.log(EVAL_MAX_ATOMS + 1)
        counts = [int(math.exp(top * (i + self.rng.random()) / size)) for i in range(size)]
        self.rng.shuffle(counts)
        return counts

    def _dist(self, n: int) -> list[tuple[float, float]]:
        """n atoms with uniform support points and Dirichlet masses."""
        xs = self.nrng.uniform(-EVAL_X_RANGE, EVAL_X_RANGE, n).tolist()
        ps = self.nrng.dirichlet(np.ones(n)).tolist()
        return list(zip(xs, ps))

    def _op(self, family: str, size: int) -> Op:
        measure, kernel, alpha = self._measure(family)
        argv = ["eval", "--measure", measure]
        expected = []
        inline = [i % 2 == 0 for i in range(size)]
        self.rng.shuffle(inline)
        for by_value, n in zip(inline, self._atom_counts(size)):
            if by_value:
                atoms = self._dist(n)
                argv += ["--dist", dist_json(atoms)]
                dist = None
            else:
                path, atoms, dist = self.files[self._next_file % EVAL_FILES]
                self._next_file += 1
                argv += ["--dist", path]
            if kernel is None:
                expected.append(shortfall_reference(atoms, alpha))
            else:
                dist = dist or DiscreteDist.from_atoms(atoms)
                expected.append(fmt(fsdrisk.kernels.sup_psi_eval(kernel, dist)))

        def check(result) -> bool:
            rc, out = result
            lines = out.splitlines()
            if rc != 0 or len(lines) != size:
                return False
            if kernel is not None:
                return lines == expected
            return all(abs(float(got) - ref) <= ES_TOL for got, ref in zip(lines, expected))

        return Op(f"eval-{family}-{size}", size, lambda: run_cli(argv), check)


def dist_json(atoms: list[tuple[float, float]]) -> str:
    return json.dumps({"atoms": [{"x": x, "p": p} for x, p in atoms]})


def shortfall_reference(atoms: list[tuple[float, float]], alpha: float) -> float:
    """Expected shortfall computed with numpy, apart from fsdrisk's code."""
    xs, ps = np.array(atoms).T
    order = np.argsort(xs)
    xs, ps = xs[order], ps[order]
    cum = np.cumsum(ps) / ps.sum()
    lo = np.concatenate(([0.0], cum[:-1]))
    tail = np.clip(cum, alpha, None) - np.clip(lo, alpha, None)
    return float(np.dot(xs, tail) / (1.0 - alpha))


# -- represent ---------------------------------------------------------------


# each grid: measure, kernel pair, closed form, x cells over [-5, 5], and
# the p-cells just under the curve's values, where the snapped curve
# estimate is one cell low by construction (criterion 7 skips them too)
REPRESENT_GRIDS = {
    "var": (lambda: var_measure(0.3), VarKernel(0.3), DualVarKernel(0.3),
            lambda F: var(F, 0.3), 100, (29,)),
    "lambda": (lambda: lambda_quantile_measure(LAM3), LambdaKernel(LAM3), DualLambdaKernel(LAM3),
               lambda F: lambda_quantile(F, LAM3), 40, (19, 49, 79)),
}
P_CELLS = 100
REPRESENT_OPS = 10
PROBES_PER_OP = 10
FREE_PER_OP = 40
SUPERLEVEL_RES = 101


class Represent(Workload):
    """Library calls on kernels tabulated at set-up, plus ``superlevel``."""

    name = "represent"

    def setup(self) -> None:
        self.grids = {}
        for family, (make, *_rest, cells, _skip) in REPRESENT_GRIDS.items():
            rho = make()
            psi = fsdrisk.engine.construct_psi(
                rho, regular_grid(-5.0, 5.0, cells), regular_grid(0.0, 1.0, P_CELLS)
            )
            path = self.workdir / f"grid-{family}.json"
            path.write_text(fsdrisk.jsonio.dump_json(fsdrisk.jsonio.psi_grid_to_obj(psi)))
            self.grids[family] = (rho, psi, path)

    def prepare(self) -> list[Op]:
        return [self._op() for _ in range(REPRESENT_OPS)]

    def _probes(self, psi, skip) -> list[DiscreteDist]:
        mids = [(k + 0.5) / P_CELLS for k in range(P_CELLS - 1) if k not in skip]
        probes = []
        for _ in range(PROBES_PER_OP):
            n = self.rng.randint(1, 6)
            xs = sorted(self.rng.sample(psi.x_grid, n))
            probes.append(DiscreteDist.from_levels(xs, sorted(self.rng.sample(mids, n - 1)) + [1.0]))
        return probes

    def _free(self) -> list[DiscreteDist]:
        dists = []
        for _ in range(FREE_PER_OP):
            n = self.rng.randint(1, 20)
            masses = [self.rng.random() + 1e-3 for _ in range(n)]
            total = math.fsum(masses)
            dists.append(DiscreteDist.from_atoms(
                (round(self.rng.uniform(-6.0, 6.0), 2), m / total) for m in masses))
        return dists

    def _op(self) -> Op:
        parts = [self._part(family) for family in REPRESENT_GRIDS]

        def run():
            return [part[0]() for part in parts]

        def check(results) -> bool:
            return all(part[1](result) for part, result in zip(parts, results))

        return Op("represent", len(parts) * (3 * PROBES_PER_OP + 2 * FREE_PER_OP), run, check)

    def _part(self, family: str):
        """The library calls on one grid, and the check of their results."""
        _make, psi_k, phi_k, closed, _cells, skip = REPRESENT_GRIDS[family]
        rho, psi, path = self.grids[family]
        probes = self._probes(psi, skip)
        free = self._free()
        threshold = round(self.rng.uniform(-4.5, 4.5), 3)
        argv = ["superlevel", "--kernel", str(path), "--threshold", repr(threshold),
                "--x-range", "-5", "5", "--resolution", str(SUPERLEVEL_RES)]
        closed_ref = [closed(F) for F in free]
        grid_ref = [grid_sup_reference(psi, F) for F in probes]
        csv_ref = superlevel_reference(psi, threshold)
        cell = psi.x_grid[1] - psi.x_grid[0]
        lam_ref = [curve_estimate_reference(psi, family, x) for x in psi.x_grid]

        def run():
            report = fsdrisk.engine.verify_representation(rho, psi, probes, 0.0)
            recovered = fsdrisk.engine.recover_lambda(rho, psi, probes=probes)
            kernel = psi.as_kernel()
            grid_sup = [fsdrisk.kernels.sup_psi_eval(kernel, F) for F in probes]
            sups = [fsdrisk.kernels.sup_psi_eval(psi_k, F) for F in free]
            infs = [fsdrisk.kernels.inf_phi_eval(phi_k, F) for F in free]
            return report, recovered, grid_sup, sups, infs, run_cli(argv)

        def check(result) -> bool:
            report, rec, grid_sup, sups, infs, (rc, csv) = result
            return (
                report.max_error == 0.0 and not report.failures
                and not rec.lam_violations and not rec.f_violations
                and rec.cross_max_error <= cell + 1e-9
                and all(ref is None or got == ref for got, ref in zip(rec.lam_hat, lam_ref))
                and grid_sup == grid_ref
                and sups == closed_ref and infs == closed_ref
                and rc == 0 and csv == csv_ref
            )

        return run, check


def nearest_p(p_grid, p: float) -> int:
    """Nearest p node, exact ties to the lower one."""
    j = bisect_left(p_grid, p)
    if j == 0:
        return 0
    if j == len(p_grid):
        return j - 1
    return j if p_grid[j] - p < p - p_grid[j - 1] else j - 1


def table_value(psi, x: float, p: float) -> float:
    """The tabulated kernel at (x, p): x floored to the grid, p to the nearest node."""
    i = bisect_right(psi.x_grid, x) - 1
    return psi.table[i][nearest_p(psi.p_grid, p)] if i >= 0 else -INF


def grid_sup_reference(psi, F: DiscreteDist) -> float:
    """sup over x of the table at (x, F(x)), by scanning every breakpoint.

    Between consecutive grid nodes and atoms both the floored x and F are
    constant, so the left end of each piece attains the piece's value.
    """
    points = sorted(set(F.xs).union(psi.x_grid))
    return max(table_value(psi, b, F.cdf(b)) for b in points)


def superlevel_reference(psi, threshold: float) -> str:
    """The superlevel CSV, from a direct scan of the table."""
    lo, hi, steps = -5.0, 5.0, SUPERLEVEL_RES - 1
    lines = ["x,p_boundary,reachable"]
    for k in range(SUPERLEVEL_RES):
        x = lo + (hi - lo) * k / steps
        boundary = None
        for m in range(SUPERLEVEL_RES):
            p = m / steps
            if table_value(psi, x, p) >= threshold:
                boundary = p
        reach = "false" if boundary is None else "true"
        lines.append(f"{fmt(x)},{'none' if boundary is None else fmt(boundary)},{reach}")
    return "\n".join(lines) + "\n"


def curve_estimate_reference(psi, family: str, x: float) -> float | None:
    """The largest p node strictly under the level curve at x.

    None within one x cell of a curve jump, where the snapped estimate may
    legitimately sit on either side.
    """
    cell = psi.x_grid[1] - psi.x_grid[0]
    if family == "lambda" and any(abs(x - b) <= cell + 1e-12 for b in LAM3.breakpoints):
        return None
    level = 0.3 if family == "var" else LAM3(x)
    return max(p for p in psi.p_grid if p < level)


WORKLOADS = {w.name: w for w in (Construct, Check, Eval, Represent)}
