"""Constructive recovery of a sup-form kernel from a black-box measure.

Any max-stable measure with strictly increasing values on point masses
is determined by what it does on two-point distributions.  The engine
exploits that: ``construct_psi`` tabulates the measure on mixtures of
one anchor below the grid and each node.  Its rows fall along p: a row
ends at its first dead node, and two equal nodes pin every node between
them, so a row skips runs of equal values, starting each run's search
at the run ends of the row above (its docstring holds the argument).
The table can then be checked against the measure on arbitrary
grid-snapped distributions, and its level curve read back off it.
The table builds each mixture in place and is returned as a
``kernels.PsiGrid`` through its trusted constructor, since the walk has
made the grid's checks; ``two_point_eval`` and ``h_threshold``, a
standalone threshold search, are not on its path.

Everything here treats the measure as an opaque callable; only the
harness-style probe at the start of construct_psi assumes anything
beyond purity.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from operator import lt, neg
from typing import Callable, Sequence

from .dist import DiscreteDist, _trusted, point_mass, two_point
from .harness import DEFAULT_TOL, _check_tol, ext_gap
from .kernels import _ROW_RISES, PsiGrid, check_axes

INF = math.inf

GATE_SEED = 413279
_PROBE_SEED = 977003
_PROBE_COUNT = 200  # recover_lambda's default probes


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


def construct_psi(
    rho: Callable[[DiscreteDist], float],
    x_grid: Sequence[float],
    p_grid: Sequence[float],
    stability_trials: int = 150,
) -> PsiGrid:
    """Rebuild the sup-form kernel of a max-stable measure on a grid.

    Each node (y, p) gets the value on the mixture of p at the anchor
    a, one x spacing below the grid, and 1 - p at y, kept when it
    strictly exceeds the measure on the point mass at a, -inf otherwise.
    The anchor below the leftmost node is what makes the p = 0 row
    reproduce the measure on point masses across the whole grid.  The
    test is exact, so no search bound or tolerance enters.

    One anchor gives the table that the largest qualifying anchor on
    the grid would give.  For a <= a' <= y, two_point(a, y, p) joined
    with point_mass(a') is two_point(a', y, p), so max-stability gives
    rho(two_point(a', y, p)) = max(rho(two_point(a, y, p)),
    rho(point_mass(a'))).  The mixture at a' clears its own baseline
    only when the mixture at a clears the lower baseline at a, and then
    both values are the same float, since max returns one of its
    arguments; a scan that finds no higher anchor ends at a itself.
    The identity holds bit for bit for an exactly max-stable measure;
    one that passes the gate only within its 1e-9 tolerance may give a
    table differing in the last bits from such a scan or a call per node.

    Each row ends at its first dead node, and the nodes after it read
    -inf without a call from the walk.  The p = 1 node's mixture is the
    anchor's point mass, which a pure measure maps to the baseline, so
    that node is dead in every row and never called.  Max-stability
    makes the measure monotone in first-order dominance: F <= G gives
    F v G = G, so rho(G) = max(rho(F), rho(G)) >= rho(F).  For p < p',
    two_point(a, y, p') is dominated by two_point(a, y, p), so once a
    node fails the strict test every later node of its row fails it
    too; monotonicity alone is what this relies on.  With the gate off
    (``stability_trials=0``), a measure that is not monotone along a
    row, dead at one node and live at a later one, is no longer refused
    as a table rising along p: the nodes past the first dead one read -inf.

    Runs of equal values are skipped for the same reason: a falling row
    holds v at every node between two that hold v.  After two equal
    neighbours the walk reads the first run end of the row above past
    the run's start: the run reaches it if it holds v, else stops short
    of it.  The walk then gallops 1, 2, 4, ... nodes on, bisects back to
    the run's last node and fills the run, reading no node twice.  Ends
    are compared by bits, so a zero of the other sign between equal ends
    is not read and takes their sign, unless it is that run end.  With
    the gate off, a measure not monotone along a row can get values it
    never returned inside a run, which ones depending on the row above,
    but a placed value above the one placed before it is refused, and
    values are stored as floats, so the grid skips GridKernel's re-check.

    Max-stability is a precondition, not an afterthought: without it the
    two-point values do not determine the measure.  A short seeded probe
    rejects inputs that visibly fail it.  The anchor and the span from
    it to the last node must be finite, so an x-grid whose first
    spacing or whole range overflows is rejected.
    """
    from .harness import SamplerConfig, check_max_stability

    xg, pg = check_axes(x_grid, p_grid)
    if len(xg) < 2:
        raise ValueError("x-grid must have at least two nodes")
    if stability_trials < 0:
        raise ValueError(f"stability trials must be non-negative, got {stability_trials}")
    a = xg[0] - (xg[1] - xg[0])
    if not math.isfinite(xg[-1] - a):
        raise ValueError(
            f"x-grid must span a finite range from the anchor below its first node, got {a} to {xg[-1]}"
        )

    if stability_trials > 0:
        cfg = SamplerConfig(
            seed=GATE_SEED,
            max_atoms=4,
            support_range=(xg[0], xg[-1]),
            trials=stability_trials,
        )
        gate = check_max_stability(rho, cfg, tol=DEFAULT_TOL)
        if gate.violations:
            raise StabilityGateError(
                f"measure is not max-stable on probe pairs (worst gap {gate.worst_gap}); "
                "the two-point construction does not apply"
            )

    def finish_row(y, row, v, hints):
        # refuse a v above row[-1], else read the next hint, gallop 1, 2, 4, ... nodes
        # on, bisect back, fill the run, go on; none read twice; return the run ends
        seen, ends = {}, []

        def holds(k):
            if (u := seen.get(k)) is None:
                u = seen[k] = rho(_trusted((a, y), (pg[k], 1.0)))
            return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)  # v's float

        while v > base:
            if v > row[-1]:
                raise ValueError(_ROW_RISES)
            lo, hi, step = len(row), last, 1
            if (i := bisect_right(hints, lo)) < len(hints):
                lo, hi = (hints[i], hi) if holds(hints[i]) else (lo, hints[i])
            while hi - lo > 1:
                k = lo + step if lo + step < hi else (lo + hi) // 2
                if holds(k):
                    lo, step = k, 2 * step
                else:
                    hi = k
            row += repeat(float(v), hi - len(row))
            ends.append(lo)
            v = seen.get(hi, -INF)  # a node hi < last was read
        return ends

    # the lowest anchor stands for every anchor above it, a row's live
    # nodes are a prefix of it, and equal nodes pin those between (see docstring)
    base = rho(point_mass(a))
    last = len(pg) - 1  # the p = 1 node is dead (see docstring)
    rows, ends = [], []
    for y in xg:
        row = []
        prev = math.nan
        hints, ends = ends, []  # the row above's run ends
        for p in pg[:last]:
            # two_point(a, y, p), built without its checks: the axes and
            # the finite span give a < y, both finite, and p in [0, 1)
            v = rho(_trusted((a, y), (p, 1.0)) if p > 0.0 else point_mass(y))
            if v >= prev:  # two equal neighbours, or a rise: finish_row sees which
                ends = finish_row(y, row, v, hints)
                break
            if not v > base:
                break
            row.append(float(v))
            prev = v
        rows.append(tuple(row) + (-INF,) * (len(pg) - len(row)))
    return PsiGrid._trusted(xg, pg, tuple(rows))


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
    value at (x, F(x-)), the level snapped to the nearest p node; rows
    fall along p, so the value at (x, F(x)) never exceeds it.  Every atom
    must sit exactly on an x node: an off-grid atom is rejected by name
    rather than silently snapped, and so is a NaN, negative or infinite
    tol.  One running-max read per atom a_j, at level F(a_{j-1}) with
    F(a_0) = 0, covers the nodes in (a_{j-1}, a_j]; a node further left
    is read at a level no lower than its own, so no read overshoots, and
    past the last atom the level is 1, where the kernel is -inf.
    """
    _check_tol(tol)
    node = {x: i for i, x in enumerate(psi.x_grid)}
    for idx, F in enumerate(dists):
        for x in F.xs:
            if x not in node:
                raise ValueError(f"distribution {idx} has an atom at {x!r} off the x-grid")
    runmax = psi._runmax
    max_error = 0.0
    worst = None
    failures = []
    for idx, F in enumerate(dists):
        direct = rho(F)
        # max, like the running max, keeps the first of equal values in x order
        recovered = max(
            runmax[node[a]][psi.nearest_p_index(c)] for a, c in zip(F.xs, (0.0, *F.cum))
        )
        err = ext_gap(direct, recovered)
        if err > max_error:
            max_error = err
            worst = idx
        if err > tol:
            failures.append((idx, direct, recovered, err))
    return RepresentationReport(len(dists), tol, max_error, worst, tuple(failures))


@dataclass(frozen=True)
class RecoveredLambda:
    """Level curve read back off a tabulated kernel, with point-mass values.

    ``lam_hat[i]`` is the largest p node at which the kernel still
    matches its p = 0 value at ``x_grid[i]``; ``f_hat[i]`` is the
    measure, called once, on the point mass there.  Monotonicity
    defects are listed, never repaired: ``lam_violations`` holds indices
    where the curve estimate rises by more than tol, ``f_violations``
    indices where the point-mass values fail to rise by more than tol.
    The cross-check fields compare the measure against
    sup{f_hat(x) : F(x-) < lam_hat(x)} on the probe distributions.
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


def _default_probes(x_grid: tuple[float, ...], p_grid: tuple[float, ...]) -> list[DiscreteDist]:
    # atoms on the grid, CDF levels at p-cell midpoints: keeps nearest-p
    # snapping unambiguous for any table built on the same p-grid
    rng = random.Random(_PROBE_SEED)
    mids = [0.5 * (p_grid[j] + p_grid[j + 1]) for j in range(len(p_grid) - 2)]
    largest = min(5, len(x_grid), len(mids) + 1)
    if largest < 2:
        raise ValueError("grids too coarse for default probes; pass probes explicitly")
    probes = []
    for _ in range(_PROBE_COUNT):
        n = rng.randint(2, largest)
        xs = sorted(rng.sample(range(len(x_grid)), n))
        levels = sorted(rng.sample(mids, n - 1)) + [1.0]
        probes.append(DiscreteDist.from_levels([x_grid[i] for i in xs], levels))
    return probes


def recover_lambda(
    rho: Callable[[DiscreteDist], float],
    psi: PsiGrid,
    probes: Sequence[DiscreteDist] | None = None,
    tol: float = DEFAULT_TOL,
) -> RecoveredLambda:
    """Read the level curve off a tabulated kernel and cross-check it.

    The curve estimate at a grid x is the largest p node where the
    table still equals its p = 0 value there: infinities must match
    exactly, finite values within tol.  The cross-check then re-derives
    the measure from the estimate alone, as the largest point-mass value
    whose grid node stays strictly below the curve, and records the gap
    to the direct evaluation on every probe.  Without ``probes``, 200
    seeded probes are drawn, atoms on x nodes and levels at p-cell
    midpoints; ``probe_count`` reports how many ran.  A probe's F(x-) at
    every node comes from one walk over its atoms, one bisection into
    the x-grid per atom; the estimate is compared node by node, so it
    need not be monotone.  One extra node below the grid keeps that sup
    finite when a probe's quantile lands inside the first cell.  A NaN,
    negative or infinite tol is rejected.
    """
    _check_tol(tol)
    if probes is None:
        probes = _default_probes(psi.x_grid, psi.p_grid)
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
    # rows fall along p, so the nodes still matching the p = 0 value are a
    # prefix, and with tol >= 0 it holds that node at least; a bisection on
    # v >= row[0] - tol lands at its end up to rounding, and the exact test
    # moves it there (an infinite row[0] is its run of equal values)
    lam_hat = []
    for row in psi.table:
        k = bisect_right(row, -(row[0] - tol), key=neg)
        while k < len(row) and ext_gap(row[k], row[0]) <= tol:
            k += 1
        while not ext_gap(row[k - 1], row[0]) <= tol:
            k -= 1
        lam_hat.append(psi.p_grid[k - 1])
    lam_violations = tuple(
        i for i in range(len(lam_hat) - 1) if lam_hat[i + 1] - lam_hat[i] > tol
    )
    f_violations = tuple(
        i for i in range(len(f_hat) - 1) if not f_hat[i + 1] - f_hat[i] > tol
    )
    errors = []
    for F in probes:
        direct = rho(F)
        # F(x-) at each node: the nodes up to an atom read the level before
        # it, so an atom on a node that jumps the CDF over the curve keeps it live
        left: list[float] = []
        for a, c in zip(F.xs, (0.0, *F.cum)):
            left += repeat(c, bisect_right(psi.x_grid, a) - len(left))
        left += repeat(1.0, len(psi.x_grid) - len(left))
        start = sub_f if F.cdf(sub_x) < lam_hat[0] else -INF
        # max keeps the first of equal or unordered values, as a node loop would
        rebuilt = max((start, *compress(f_hat, map(lt, left, lam_hat))))
        errors.append(ext_gap(direct, rebuilt))
    return RecoveredLambda(
        x_grid=psi.x_grid,
        lam_hat=tuple(lam_hat),
        f_hat=f_hat,
        lam_violations=lam_violations,
        f_violations=f_violations,
        tol=tol,
        probe_count=len(probes),
        cross_errors=tuple(errors),
        cross_max_error=max(errors, default=0.0),
    )
