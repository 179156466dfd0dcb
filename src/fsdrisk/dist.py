"""Compactly supported distributions and the stochastic dominance lattice.

A :class:`DiscreteDist` is a finitely supported probability distribution
stored once, as its step CDF: strictly increasing support points and
cumulative levels rising strictly to exactly 1.0; masses are derived.
First-order stochastic dominance compares CDFs pointwise (``F`` is
dominated by ``G`` when ``F >= G`` everywhere, i.e. ``G`` puts its mass
further right), and the induced join and meet are the pointwise min and
max of the CDFs, which are again step CDFs on the merged support.

All values are plain floats; ``math.inf`` and ``-math.inf`` are legal
results of downstream evaluators but never legal support points, and NaN
is rejected at every construction boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

MASS_TOL = 1e-12
"""Accepted drift of the total input mass away from 1 before rejection."""

ATOM_DROP_TOL = 1e-15
"""Join/meet atoms at or below this mass are dropped; their mass merges
into the next surviving cumulative level."""


@dataclass(frozen=True)
class DiscreteDist:
    """Finitely supported distribution in canonical form.

    ``xs`` are the strictly increasing support points and ``cum`` the
    strictly increasing cumulative levels in (0, 1], with
    ``cum[-1] == 1.0`` exactly.
    """

    xs: tuple[float, ...]
    cum: tuple[float, ...]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "DiscreteDist":
        """Build from ``(x, mass)`` pairs.

        Equal support points are merged by adding their masses.  The total
        mass must be 1 up to ``MASS_TOL``; inside that band the masses are
        renormalized so the final cumulative level is exactly 1.0.
        """
        merged: dict[float, float] = {}
        for x, p in atoms:
            x = float(x)
            p = float(p)
            if not p > 0.0:
                if math.isnan(p):
                    raise ValueError("atom mass must not be NaN")
                raise ValueError(f"atom mass must be positive, got {p}")
            merged[x] = merged.get(x, 0.0) + p
        if not merged:
            raise ValueError("a distribution needs at least one atom")
        xs = sorted(merged)
        ps = [merged[x] for x in xs]
        total = math.fsum(ps)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"atom masses sum to {total!r}, outside 1 +/- {MASS_TOL}")
        levels = [acc / total for acc in accumulate(ps)]
        levels[-1] = 1.0
        return cls.from_levels(xs, levels, drop_tol=0.0)

    @classmethod
    def from_levels(
        cls,
        xs: Sequence[float],
        levels: Sequence[float],
        drop_tol: float = ATOM_DROP_TOL,
    ) -> "DiscreteDist":
        """Build from cumulative levels at increasing breakpoints.

        Breakpoints whose level gain is at most ``drop_tol`` are skipped,
        so their (tiny or zero) mass rides along to the next kept point.
        A level at most ``MASS_TOL`` above 1 is read as 1.0, a higher one is
        rejected; the last kept level, 1 up to ``MASS_TOL``, becomes 1.0.
        """
        if len(xs) != len(levels):
            raise ValueError("need one cumulative level per breakpoint")
        for i, x in enumerate(xs):
            if not math.isfinite(x):
                raise ValueError(f"support point must be finite, got {x}")
            if i and xs[i - 1] >= x:
                raise ValueError("breakpoints must be strictly increasing")
        kept_x: list[float] = []
        kept_c: list[float] = []
        prev = 0.0
        for x, lev in zip(xs, levels):
            if math.isnan(lev):
                raise ValueError("cumulative levels must not be NaN")
            if lev < prev - MASS_TOL:
                raise ValueError("cumulative levels must be non-decreasing")
            if lev > 1.0:
                if lev > 1.0 + MASS_TOL:
                    raise ValueError(f"cumulative level {lev!r} is above 1")
                lev = 1.0
            if lev - prev > drop_tol:
                kept_x.append(float(x))
                kept_c.append(float(lev))
                prev = lev
        if not kept_x:
            raise ValueError("no atom carries positive mass")
        if 1.0 - kept_c[-1] > MASS_TOL:
            raise ValueError(f"cumulative levels end at {kept_c[-1]!r}, not 1.0")
        kept_c[-1] = 1.0
        return cls(tuple(kept_x), tuple(kept_c))

    # -- queries ---------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.xs)

    @property
    def ps(self) -> tuple[float, ...]:
        """Atom masses: the steps of ``cum``."""
        return (self.cum[0],) + tuple(b - a for a, b in zip(self.cum, self.cum[1:]))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs, self.ps))

    def cdf(self, x: float) -> float:
        """P(X <= x), the right-continuous step value."""
        i = bisect_right(self.xs, x)
        return self.cum[i - 1] if i else 0.0

    def cdf_left_limit(self, x: float) -> float:
        """P(X < x), the limit of the CDF from the left."""
        i = bisect_left(self.xs, x)
        return self.cum[i - 1] if i else 0.0

    def left_quantile(self, a: float) -> float:
        """inf{x: F(x) >= a} for a in (0, 1]."""
        if not 0.0 < a <= 1.0:
            raise ValueError(f"left quantile level must lie in (0, 1], got {a}")
        return self.xs[bisect_left(self.cum, a)]

    def right_quantile(self, a: float) -> float:
        """sup{x: F(x) <= a} for a in [0, 1)."""
        if not 0.0 <= a < 1.0:
            raise ValueError(f"right quantile level must lie in [0, 1), got {a}")
        return self.xs[bisect_right(self.cum, a)]

    def __repr__(self) -> str:
        inner = " + ".join(f"{p:.6g}*d[{x:.6g}]" for x, p in self.atoms)
        return f"DiscreteDist({inner})"


def point_mass(x: float) -> DiscreteDist:
    """The degenerate distribution sitting at ``x``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"support point must be finite, got {x}")
    return DiscreteDist((x,), (1.0,))


def two_point(x: float, y: float, p: float) -> DiscreteDist:
    """Mass ``p`` at ``x`` and ``1 - p`` at ``y``, requiring ``x <= y``.

    Degenerate cases (``p`` at 0 or 1, or ``x == y``) collapse to a point
    mass so the result is always canonical.
    """
    if x > y:
        raise ValueError(f"two_point needs x <= y, got x={x}, y={y}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if x == y or p >= 1.0:
        return point_mass(x)
    if p <= 0.0:
        return point_mass(y)
    return DiscreteDist((float(x), float(y)), (float(p), 1.0))


# -- the dominance lattice ----------------------------------------------


def merged_breakpoints(f: DiscreteDist, g: DiscreteDist) -> list[float]:
    return sorted(set(f.xs).union(g.xs))


def fsd_leq(f: DiscreteDist, g: DiscreteDist) -> bool:
    """True when ``g`` dominates ``f``: F(x) >= G(x) for every x."""
    return all(f.cdf(b) >= g.cdf(b) for b in merged_breakpoints(f, g))


def fsd_join(f: DiscreteDist, g: DiscreteDist) -> DiscreteDist:
    """Least upper bound: the pointwise minimum of the two CDFs."""
    points = merged_breakpoints(f, g)
    return DiscreteDist.from_levels(points, [min(f.cdf(b), g.cdf(b)) for b in points])


def fsd_meet(f: DiscreteDist, g: DiscreteDist) -> DiscreteDist:
    """Greatest lower bound: the pointwise maximum of the two CDFs."""
    points = merged_breakpoints(f, g)
    return DiscreteDist.from_levels(points, [max(f.cdf(b), g.cdf(b)) for b in points])


def join_decomposition(f: DiscreteDist) -> list[DiscreteDist]:
    """Two-point distributions whose join reproduces ``f``.

    With cumulative levels ``P_k`` the k-th component puts mass ``P_k`` at
    the lowest support point and the rest at ``xs[k+1]``; the pointwise
    minimum of those CDFs is exactly the CDF of ``f``.  A point mass
    decomposes as itself.
    """
    if f.n_atoms == 1:
        return [f]
    return [two_point(f.xs[0], f.xs[k + 1], f.cum[k]) for k in range(f.n_atoms - 1)]


# -- continuous inputs and discretization --------------------------------


@dataclass(frozen=True)
class ContinuousCDF:
    """A CDF with compact support ``[lo, hi]``, evaluated through ``fn``.

    Outside the support the value is forced to 0 and 1, inside it is
    clamped to [0, 1].  ``fn`` must be non-decreasing on the support;
    a coarse probe rejects obviously broken inputs.
    """

    support: tuple[float, float]
    fn: Callable[[float], float]
    name: str = "custom"

    def __post_init__(self):
        lo, hi = (float(self.support[0]), float(self.support[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError(f"support must be a finite interval, got {self.support}")
        object.__setattr__(self, "support", (lo, hi))
        if hi > lo:
            probes = [lo + (hi - lo) * k / 32 for k in range(33)]
            vals = []
            for t in probes:
                v = float(self.fn(t))
                if math.isnan(v):
                    raise ValueError("CDF evaluated to NaN on its support")
                vals.append(v)
            if any(vals[i] > vals[i + 1] + 1e-9 for i in range(len(vals) - 1)):
                raise ValueError("CDF is not monotone on its support")

    def __call__(self, x: float) -> float:
        lo, hi = self.support
        if x < lo:
            return 0.0
        if x >= hi:
            return 1.0
        return min(max(float(self.fn(x)), 0.0), 1.0)

    @classmethod
    def uniform(cls, a: float, b: float) -> "ContinuousCDF":
        if b < a:
            raise ValueError(f"uniform needs a <= b, got a={a}, b={b}")
        if b == a:
            return cls((a, a), lambda x: 1.0, name=f"uniform({a}, {b})")
        return cls((a, b), lambda x: (x - a) / (b - a), name=f"uniform({a}, {b})")


def discretize(f: ContinuousCDF, n: int) -> DiscreteDist:
    """Step approximation of ``f`` from below in the dominance order.

    The support is cut into ``n`` equal cells and each cell carries the
    CDF value at its right end, placed at its left end.  The result's CDF
    therefore sits at or above ``f`` everywhere, i.e. the approximation is
    dominated by ``f``, and refining ``n -> 2n`` moves it up towards ``f``.
    """
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    lo, hi = f.support
    if hi == lo:
        return point_mass(lo)
    span = hi - lo
    xs = []
    levels = []
    for k in range(1, n + 1):
        xs.append(lo + (k - 1) * span / n)
        right = hi if k == n else lo + k * span / n
        levels.append(f(right))
    return DiscreteDist.from_levels(xs, levels)


def discretize_from_above(f: ContinuousCDF, n: int) -> DiscreteDist:
    """Step approximation of ``f`` from above in the dominance order.

    Mirror of :func:`discretize`: each cell carries the CDF value at its
    left end and the remaining mass lands on the right support endpoint,
    so the result dominates ``f``; with :func:`discretize` it brackets
    ``f`` in the dominance order.  The semicontinuity probe approaches
    from below and uses only :func:`discretize`.
    """
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    lo, hi = f.support
    if hi == lo:
        return point_mass(lo)
    span = hi - lo
    xs = []
    levels = []
    for k in range(2, n + 1):
        t = lo + (k - 1) * span / n
        xs.append(t)
        levels.append(f(t))
    xs.append(hi)
    levels.append(1.0)
    return DiscreteDist.from_levels(xs, levels)
