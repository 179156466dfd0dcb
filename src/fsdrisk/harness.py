"""Seeded randomized verification of the stability axioms.

Every check here consumes a measure as an opaque callable and reports
pass or fail with a replayable witness.  Randomness is fully pinned:
per-trial generators are derived from (seed, trial, role), so a report
is reproducible from its config alone, trial by trial, in any order.

Gaps are measured in extended reals with equal infinities counting as
zero; all shipped measures are breakpoint-exact, so the default
tolerance only has to absorb float accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .dist import ContinuousCDF, DiscreteDist, discretize, fsd_join, fsd_meet, point_mass

INF = math.inf
_MASK64 = (1 << 64) - 1

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: one config, one stream of instances."""

    seed: int = 12345
    max_atoms: int = 6
    support_range: tuple[float, float] = (-10.0, 10.0)
    grid_snap: float | None = None
    trials: int = 1000

    def __post_init__(self):
        if self.max_atoms < 1:
            raise ValueError(f"need at least one atom, got max_atoms={self.max_atoms}")
        lo, hi = (float(self.support_range[0]), float(self.support_range[1]))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"support range must be a finite interval, got {self.support_range}")
        object.__setattr__(self, "support_range", (lo, hi))
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.grid_snap is not None and not self.grid_snap > 0.0:
            raise ValueError(f"grid snap spacing must be positive, got {self.grid_snap}")


def sample_distribution(cfg: SamplerConfig, trial: int = 0, role: int = 0) -> DiscreteDist:
    """Draw one distribution, identically for identical arguments.

    ``role`` separates the independent draws inside one trial (the two
    sides of a pair, the derived variant) without any shared state.
    """
    rng = np.random.default_rng([cfg.seed & _MASK64, trial, role])
    lo, hi = cfg.support_range
    while True:
        n = int(rng.integers(1, cfg.max_atoms + 1))
        xs = rng.uniform(lo, hi, n)
        if cfg.grid_snap is not None:
            xs = np.round(xs / cfg.grid_snap) * cfg.grid_snap
        ps = rng.dirichlet(np.ones(n))
        # an exactly zero component is astronomically rare but would be
        # rejected downstream; redraw from the same stream
        if np.all(ps > 0.0):
            return DiscreteDist.from_atoms(zip(xs.tolist(), ps.tolist()))


def ext_gap(a: float, b: float) -> float:
    """|a - b| with equal values, infinite ones included, giving zero."""
    if a == b:
        return 0.0
    return abs(a - b)


@dataclass(frozen=True)
class PairWitness:
    """A two-distribution counterexample with both side evaluations."""

    trial: int
    f: DiscreteDist
    g: DiscreteDist
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class PointWitness:
    """Adjacent grid points whose values fail the strict-increase margin."""

    x: float
    y: float
    value_x: float
    value_y: float
    gap: float


@dataclass(frozen=True)
class ProbeWitness:
    """A discretization step that broke the convergence pattern."""

    n: int
    value: float
    reference: float
    gap: float
    reason: str


Witness = Union[PairWitness, PointWitness, ProbeWitness]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one axiom check; fail verdicts carry the worst witness."""

    axiom: str
    seed: int
    trials: int
    violations: int
    worst_gap: float
    witness: Witness | None
    verdict: str
    tail_gap: float | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _check_pairs(
    rho: Callable[[DiscreteDist], float],
    cfg: SamplerConfig,
    tol: float,
    axiom: str,
    combine: Callable[[DiscreteDist, DiscreteDist], DiscreteDist],
    pick: Callable[[float, float], float],
    stop_at_first: bool = False,
) -> StabilityReport:
    """The pair loop behind both stability checks and the counterexample search.

    The witness is the worst violating pair, or with ``stop_at_first``
    the first one, at which sampling stops.
    """
    violations = 0
    worst_gap = 0.0
    witness = None
    for trial in range(cfg.trials):
        F = sample_distribution(cfg, trial, 0)
        G = sample_distribution(cfg, trial, 1)
        lhs = rho(combine(F, G))
        rhs = pick(rho(F), rho(G))
        gap = ext_gap(lhs, rhs)
        if gap > tol:
            violations += 1
            if stop_at_first or gap > worst_gap:
                worst_gap = gap
                witness = PairWitness(trial, F, G, lhs, rhs, gap)
            if stop_at_first:
                break
    verdict = "fail" if violations else "pass"
    return StabilityReport(axiom, cfg.seed, cfg.trials, violations, worst_gap, witness, verdict)


def check_max_stability(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Value of the join against the max of the values, on sampled pairs."""
    return _check_pairs(rho, cfg, tol, "maxs", fsd_join, max)


def check_min_stability(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Value of the meet against the min of the values, on sampled pairs."""
    return _check_pairs(rho, cfg, tol, "mins", fsd_meet, min)


def check_nondegeneracy(
    rho: Callable[[DiscreteDist], float], grid: Sequence[float], tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Point-mass values must rise strictly along the grid.

    This is the strengthened separation property: each step along the
    grid must gain more than tol.  The reported gap of a violation is
    the shortfall below that margin.
    """
    xs = [float(x) for x in grid]
    if len(xs) < 2 or any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("grid must be strictly increasing with at least two points")
    vals = [rho(point_mass(x)) for x in xs]
    violations = 0
    worst = 0.0
    witness = None
    for i in range(len(xs) - 1):
        vx, vy = vals[i], vals[i + 1]
        if vy > vx + tol:
            continue
        violations += 1
        if vx == vy and math.isinf(vx):
            shortfall = INF
        else:
            shortfall = (vx + tol) - vy
        if witness is None or shortfall > worst:
            worst = shortfall
            witness = PointWitness(xs[i], xs[i + 1], vx, vy, shortfall)
    verdict = "fail" if violations else "pass"
    return StabilityReport("nd", 0, len(xs) - 1, violations, worst, witness, verdict)


def check_fsd_consistency(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """The measure must not decrease along explicitly dominated pairs.

    Even trials shift every atom rightwards by increasing offsets, odd
    trials move a slice of mass from a lower atom onto a higher one;
    both constructions dominate the original by direct CDF comparison.
    """
    violations = 0
    worst = 0.0
    witness = None
    for trial in range(cfg.trials):
        F = sample_distribution(cfg, trial, 0)
        G = dominating_variant(F, cfg, trial)
        lhs = rho(F)
        rhs = rho(G)
        if lhs > rhs + tol:
            violations += 1
            gap = lhs - rhs
            if gap > worst:
                worst = gap
                witness = PairWitness(trial, F, G, lhs, rhs, gap)
    verdict = "fail" if violations else "pass"
    return StabilityReport("fsd", cfg.seed, cfg.trials, violations, worst, witness, verdict)


def dominating_variant(F: DiscreteDist, cfg: SamplerConfig, trial: int) -> DiscreteDist:
    """A distribution constructed to dominate F in the dominance order.

    Built through the exact cumulative levels of F rather than its atom
    masses: re-deriving masses would renormalize and the ulp of drift
    that introduces is enough to break a pointwise CDF comparison.
    """
    rng = np.random.default_rng([cfg.seed & _MASK64, trial, 2])
    if trial % 2 == 0 or F.n_atoms == 1:
        shifts = np.sort(rng.uniform(0.1, 2.0, F.n_atoms))
        xs = [x + s for x, s in zip(F.xs, shifts.tolist())]
        return DiscreteDist.from_levels(xs, list(F.cum))
    i = int(rng.integers(0, F.n_atoms - 1))
    j = int(rng.integers(i + 1, F.n_atoms))
    moved = F.ps[i] * float(rng.uniform(0.2, 0.8))
    # lowering the levels on [i, j) is exactly the slice move i -> j;
    # each new level drops by the same float, so domination is exact
    levels = [c - moved if i <= k < j else c for k, c in enumerate(F.cum)]
    return DiscreteDist.from_levels(list(F.xs), levels)


def check_semicontinuity_probe(
    rho: Callable[[DiscreteDist], float],
    F: ContinuousCDF,
    n_max: int,
    tol: float = DEFAULT_TOL,
    rho_limit: float | None = None,
) -> StabilityReport:
    """Approach a continuous input from below and watch the values.

    Discretizing with n cells is dominated by discretizing with 2n, so
    along each doubling chain the value may only move up towards the
    reference; and no term may exceed the reference at all.  Nothing is
    asserted between consecutive cell counts: n = 3 and n = 4 interleave
    and are genuinely incomparable in the dominance order.  The
    reference is the supplied limit, or the measure at a 4 * n_max
    discretization when none is given.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    ref = rho(discretize(F, 4 * n_max)) if rho_limit is None else float(rho_limit)
    values = [rho(discretize(F, n)) for n in range(1, n_max + 1)]
    violations = 0
    worst = 0.0
    witness = None
    for n, v in enumerate(values, start=1):
        if v > ref + tol:
            violations += 1
            gap = v - ref
            if witness is None or gap > worst:
                worst = gap
                witness = ProbeWitness(n, v, ref, gap, "value exceeds the reference")
    for n in range(1, n_max // 2 + 1):
        v_coarse = values[n - 1]
        v_fine = values[2 * n - 1]
        if v_coarse > v_fine + tol:
            violations += 1
            gap = v_coarse - v_fine
            if witness is None or gap > worst:
                worst = gap
                witness = ProbeWitness(2 * n, v_fine, ref, gap, "value fell on doubling refinement")
    tail = 0.0 if ref == values[-1] else ref - values[-1]
    verdict = "fail" if violations else "pass"
    return StabilityReport("ls", 0, n_max, violations, worst, witness, verdict, tail_gap=tail)


def find_stability_counterexample(
    rho: Callable[[DiscreteDist], float],
    axiom: str,
    cfg: SamplerConfig,
    tol: float = DEFAULT_TOL,
) -> PairWitness | None:
    """First sampled pair violating the requested stability axiom, if any."""
    kind = axiom.lower()
    if kind not in ("maxs", "mins"):
        raise ValueError(f"axiom must be 'maxs' or 'mins', got {axiom!r}")
    combine, pick = (fsd_join, max) if kind == "maxs" else (fsd_meet, min)
    return _check_pairs(rho, cfg, tol, kind, combine, pick, stop_at_first=True).witness
