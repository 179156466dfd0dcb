"""Constructive recovery of a sup-form kernel from a black-box measure.

Any max-stable measure with strictly increasing values on point masses
is determined by what it does on two-point distributions.  The engine
exploits that: evaluate the measure on mixtures p at x plus (1 - p) at
y, locate per anchor x the threshold where the mixture value first
leaves the point-mass baseline, and tabulate the resulting kernel on a
grid.  The tabulated kernel can then be checked against the measure on
arbitrary grid-snapped distributions, and its level curve read back off
the table.

Everything here treats the measure as an opaque callable; only the
harness-style probe at the start of construct_psi assumes anything
beyond purity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .dist import DiscreteDist, point_mass, two_point
from .kernels import GridKernel

INF = math.inf

GATE_SEED = 413279
_PROBE_SEED = 977003


class StabilityGateError(ValueError):
    """The measure failed the max-stability probe guarding construction."""


def two_point_eval(rho: Callable[[DiscreteDist], float], x: float, y: float, p: float) -> float:
    """The measure on the mixture with mass p at x and 1 - p at y, x <= y."""
    return rho(two_point(x, y, p))


def h_threshold(
    rho: Callable[[DiscreteDist], float],
    x: float,
    p: float,
    y_max: float,
    tol: float,
) -> float:
    """Smallest y in [x, y_max] whose mixture value exceeds the baseline.

    The baseline is rho on the point mass at x and the comparison is
    strict and exact; the shipped measures return breakpoint arithmetic,
    so no epsilon belongs on the predicate.  Bisection is valid because
    the mixture value is non-decreasing in y for any measure consistent
    with the dominance order.  Returns +inf when even y_max does not
    exceed the baseline.  The search also stops once no float lies
    strictly between the bracket ends, so it ends even where the float
    spacing exceeds ``tol``.
    """
    if not y_max > x:
        raise ValueError(f"search bound must exceed x, got y_max={y_max} at x={x}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    base = rho(point_mass(x))
    if not two_point_eval(rho, x, y_max, p) > base:
        return INF
    lo, hi = x, y_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if two_point_eval(rho, x, mid, p) > base:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class PsiGrid:
    """Kernel values tabulated on an x-grid times p-grid.

    ``y_max`` and ``tol`` record how the thresholds behind the table
    were searched.  Rows must decrease along p, the p = 1 column must be
    identically -inf, and the p = 0 row must be strictly increasing (it
    holds the measure's point-mass values, so a tie there means the
    measure cannot tell two grid points apart and the construction is
    meaningless).  The table is validated by building the GridKernel
    that ``as_kernel`` returns.
    """

    x_grid: tuple[float, ...]
    p_grid: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]
    y_max: float
    tol: float
    _kernel: GridKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kern = GridKernel(self.x_grid, self.p_grid, self.table)
        object.__setattr__(self, "_kernel", kern)
        object.__setattr__(self, "x_grid", kern.x_grid)
        object.__setattr__(self, "p_grid", kern.p_grid)
        object.__setattr__(self, "table", kern.table)
        col0 = [row[0] for row in kern.table]
        if any(col0[i] >= col0[i + 1] for i in range(len(col0) - 1)):
            raise ValueError(
                "value row at p = 0 must be strictly increasing; "
                "the measure does not separate point masses"
            )
        if not math.isfinite(self.y_max):
            raise ValueError(f"search bound must be finite, got {self.y_max}")
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")

    def as_kernel(self) -> GridKernel:
        """The table as a kernel, built once at construction."""
        return self._kernel


def construct_psi(
    rho: Callable[[DiscreteDist], float],
    x_grid: Sequence[float],
    p_grid: Sequence[float],
    y_max: float | None = None,
    tol: float = 1e-9,
    stability_trials: int = 150,
) -> PsiGrid:
    """Rebuild the sup-form kernel of a max-stable measure on a grid.

    Each node (y, p) gets the largest mixture value over anchors whose
    threshold lies strictly below y, -inf when no anchor qualifies.  The
    anchor set is the x-grid extended by one node below its left edge so
    the leftmost grid point still has an anchor underneath it; that is
    what makes the p = 0 row reproduce the measure on point masses
    across the whole grid.

    Max-stability is a precondition, not an afterthought: without it the
    two-point values do not determine the measure.  A short seeded probe
    rejects inputs that visibly fail it.
    """
    from .harness import SamplerConfig, check_max_stability

    xg = tuple(float(v) for v in x_grid)
    pg = tuple(float(v) for v in p_grid)
    if len(xg) < 2 or any(xg[i] >= xg[i + 1] for i in range(len(xg) - 1)):
        raise ValueError("x-grid must be strictly increasing with at least two nodes")
    if len(pg) < 2 or pg[0] != 0.0 or pg[-1] != 1.0 or any(
        pg[i] >= pg[i + 1] for i in range(len(pg) - 1)
    ):
        raise ValueError("p-grid must be strictly increasing from 0.0 to 1.0")
    if y_max is None:
        y_max = xg[-1] + (xg[-1] - xg[0])
    y_max = float(y_max)
    if not y_max > xg[-1]:
        raise ValueError(f"search bound must exceed the grid, got y_max={y_max}")

    if stability_trials > 0:
        cfg = SamplerConfig(
            seed=GATE_SEED,
            max_atoms=4,
            support_range=(xg[0], xg[-1]),
            trials=stability_trials,
        )
        gate = check_max_stability(rho, cfg, tol=1e-9)
        if gate.violations:
            raise StabilityGateError(
                f"measure is not max-stable on probe pairs (worst gap {gate.worst_gap}); "
                "the two-point construction does not apply"
            )

    anchors = (xg[0] - (xg[1] - xg[0]),) + xg
    hmat = [[h_threshold(rho, a, p, y_max, tol) for p in pg] for a in anchors]
    rows = []
    for y in xg:
        row = []
        for j, p in enumerate(pg):
            best = -INF
            for k, a in enumerate(anchors):
                if hmat[k][j] < y:
                    v = two_point_eval(rho, a, y, p)
                    if v > best:
                        best = v
            row.append(best)
        rows.append(tuple(row))
    return PsiGrid(xg, pg, tuple(rows), y_max, tol)


@dataclass(frozen=True)
class RepresentationReport:
    """Outcome of checking a measure against its tabulated kernel."""

    count: int
    tol: float
    max_error: float
    worst_index: int | None
    failures: tuple[tuple[int, float, float, float], ...]
    """Entries (index, direct value, grid supremum, error) above tol."""


def verify_representation(
    rho: Callable[[DiscreteDist], float],
    psi: PsiGrid,
    dists: Sequence[DiscreteDist],
    tol: float,
) -> RepresentationReport:
    """Compare the measure against the grid supremum of its kernel.

    The grid supremum of F is max over grid nodes x of the tabulated
    value at (x, F(x)) and at (x, F(x-)), each level snapped to the
    nearest p node.  Inputs must live on the grid: every atom exactly
    on an x node, every CDF level within one p spacing of a p node;
    off-grid atoms are rejected by name rather than silently snapped.
    """
    kern = psi.as_kernel()
    on_grid = set(psi.x_grid)
    spacing = max(psi.p_grid[j + 1] - psi.p_grid[j] for j in range(len(psi.p_grid) - 1))
    for idx, F in enumerate(dists):
        for x in F.xs:
            if x not in on_grid:
                raise ValueError(f"distribution {idx} has an atom at {x!r} off the x-grid")
        for c in F.cum:
            if abs(c - psi.p_grid[kern.nearest_p_index(c)]) > spacing:
                raise ValueError(
                    f"distribution {idx} has CDF level {c!r} farther than one spacing from the p-grid"
                )
    max_error = 0.0
    worst = None
    failures = []
    for idx, F in enumerate(dists):
        direct = rho(F)
        recovered = -INF
        for i, x in enumerate(psi.x_grid):
            # the left-limit term mirrors the exact evaluator: without
            # it the sup misses nodes where an atom jumps the CDF past
            # the kernel's live range and lands one x cell low
            v = psi.table[i][kern.nearest_p_index(F.cdf(x))]
            w = psi.table[i][kern.nearest_p_index(F.cdf_left_limit(x))]
            if w > v:
                v = w
            if v > recovered:
                recovered = v
        err = 0.0 if direct == recovered else abs(direct - recovered)
        if err > max_error:
            max_error = err
            worst = idx
        if err > tol:
            failures.append((idx, direct, recovered, err))
    return RepresentationReport(len(dists), tol, max_error, worst, tuple(failures))


@dataclass(frozen=True)
class RecoveredLambda:
    """Level curve and point-mass values read back off a tabulated kernel.

    ``lam_hat[i]`` is the largest p node at which the kernel still
    matches its p = 0 value at ``x_grid[i]``; ``f_hat[i]`` is the
    measure on the point mass there.  Monotonicity defects are listed,
    never repaired: ``lam_violations`` holds indices where the curve
    estimate rises by more than tol, ``f_violations`` indices where the
    point-mass values fail to rise by more than tol.  The cross-check
    fields compare the measure against sup{f_hat(x) : F(x-) < lam_hat(x)}
    on the probe distributions.
    """

    x_grid: tuple[float, ...]
    lam_hat: tuple[float, ...]
    f_hat: tuple[float, ...]
    lam_violations: tuple[int, ...]
    f_violations: tuple[int, ...]
    tol: float
    probe_count: int
    cross_errors: tuple[float, ...]
    cross_max_error: float


def _ext_equal(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol


def _default_probes(
    x_grid: tuple[float, ...], p_grid: tuple[float, ...], count: int
) -> list[DiscreteDist]:
    # atoms on the grid, CDF levels at p-cell midpoints: keeps nearest-p
    # snapping unambiguous for any table built on the same p-grid
    rng = random.Random(_PROBE_SEED)
    mids = [0.5 * (p_grid[j] + p_grid[j + 1]) for j in range(len(p_grid) - 2)]
    largest = min(5, len(x_grid), len(mids) + 1)
    if largest < 2:
        raise ValueError("grids too coarse for default probes; pass probes explicitly")
    probes = []
    for _ in range(count):
        n = rng.randint(2, largest)
        xs = sorted(rng.sample(range(len(x_grid)), n))
        levels = sorted(rng.sample(mids, n - 1)) + [1.0]
        probes.append(DiscreteDist.from_levels([x_grid[i] for i in xs], levels))
    return probes


def recover_lambda(
    rho: Callable[[DiscreteDist], float],
    psi: PsiGrid,
    probes: Sequence[DiscreteDist] | None = None,
    probe_count: int = 200,
    tol: float = 1e-9,
) -> RecoveredLambda:
    """Read the level curve off a tabulated kernel and cross-check it.

    The curve estimate at a grid x is the largest p node where the
    table still equals its p = 0 value there: infinities must match
    exactly, finite values within tol.  The cross-check then re-derives
    the measure from the estimate alone, as the largest point-mass value
    whose grid node stays strictly below the curve, and records the gap
    to the direct evaluation on every probe.  One extra node below the
    grid keeps that sup finite when a probe's quantile lands inside the
    first cell.
    """
    if probes is None:
        probes = _default_probes(psi.x_grid, psi.p_grid, probe_count)
    # one node below the grid mirrors the construction anchors: when a
    # probe's quantile falls inside the first cell no grid node is alive
    # and the rebuilt sup would collapse to -inf without it; the curve
    # estimate at the first node is a sound stand-in because the curve
    # only grows to the left
    if len(psi.x_grid) > 1:
        sub_x = psi.x_grid[0] - (psi.x_grid[1] - psi.x_grid[0])
    else:
        sub_x = psi.x_grid[0] - 1.0
    sub_f = rho(point_mass(sub_x))
    f_hat = tuple(rho(point_mass(x)) for x in psi.x_grid)
    lam_hat = []
    for i in range(len(psi.x_grid)):
        ref = psi.table[i][0]
        best = psi.p_grid[0]
        for j in range(len(psi.p_grid)):
            if _ext_equal(psi.table[i][j], ref, tol):
                best = psi.p_grid[j]
        lam_hat.append(best)
    lam_hat = tuple(lam_hat)
    lam_violations = tuple(
        i for i in range(len(lam_hat) - 1) if lam_hat[i + 1] - lam_hat[i] > tol
    )
    f_violations = tuple(
        i for i in range(len(f_hat) - 1) if not f_hat[i + 1] - f_hat[i] > tol
    )
    errors = []
    for F in probes:
        direct = rho(F)
        rebuilt = -INF
        if F.cdf(sub_x) < lam_hat[0]:
            rebuilt = sub_f
        for x, f_val, lam_val in zip(psi.x_grid, f_hat, lam_hat):
            # the left limit keeps a node live when an atom there jumps
            # the CDF over the curve; points just below remain under it
            if F.cdf_left_limit(x) < lam_val and f_val > rebuilt:
                rebuilt = f_val
        errors.append(0.0 if direct == rebuilt else abs(direct - rebuilt))
    return RecoveredLambda(
        x_grid=psi.x_grid,
        lam_hat=lam_hat,
        f_hat=f_hat,
        lam_violations=lam_violations,
        f_violations=f_violations,
        tol=tol,
        probe_count=len(probes),
        cross_errors=tuple(errors),
        cross_max_error=max(errors, default=0.0),
    )
