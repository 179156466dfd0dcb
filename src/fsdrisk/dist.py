"""Compactly supported distributions and the stochastic dominance lattice.

A :class:`DiscreteDist` is a finitely supported probability distribution
stored once, as its step CDF: strictly increasing support points and
cumulative levels rising strictly to exactly 1.0; masses are derived.
The public constructor checks that form.  The module's own constructors
(``from_atoms``, ``from_levels``, ``point_mass``, ``two_point`` and the
lattice operations) produce it by construction and skip the re-check.
``from_atoms``, ``from_levels`` and the lattice keep a point exactly
where its level rises over the last one kept; no tolerance decides
which points are dropped.

First-order stochastic dominance compares CDFs pointwise (``F`` is
dominated by ``G`` when ``F >= G`` everywhere, i.e. ``G`` puts its mass
further right), and the induced join and meet are the pointwise min and
max of the CDFs, which are again step CDFs on the merged support.
``fsd_join`` and ``fsd_meet`` read both CDFs in one linear merge of the
two supports, and ``fsd_leq`` compares the join with its second
argument.  Join and meet keep every point where the level rises,
however little, so the lattice laws hold bit for bit.

All values are plain floats; ``math.inf`` and ``-math.inf`` are legal
results of downstream evaluators but never legal support points, and NaN
is rejected at every construction boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import lt
from typing import Iterable, Sequence

INF = math.inf

MASS_TOL = 1e-12
"""Accepted drift of the total input mass away from 1 before rejection."""


@dataclass(frozen=True, slots=True)
class DiscreteDist:
    """Finitely supported distribution in canonical form.

    ``xs`` are the strictly increasing finite support points and ``cum``
    the strictly increasing cumulative levels in (0, 1], with
    ``cum[-1] == 1.0`` exactly.  Calling the class checks that form and
    stores both as tuples of floats, in slots: an instance has no
    ``__dict__``.
    """

    xs: tuple[float, ...]
    cum: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(map(float, self.xs))
        cum = tuple(map(float, self.cum))
        if not xs or len(xs) != len(cum):
            raise ValueError("need one cumulative level per support point, and at least one point")
        prev_x, prev_c = -INF, 0.0
        for x, c in zip(xs, cum):
            if not math.isfinite(x):
                raise ValueError(f"support point must be finite, got {x}")
            if not x > prev_x:
                raise ValueError("support points must be strictly increasing")
            if not prev_c < c <= 1.0:
                raise ValueError(f"cumulative levels must rise strictly inside (0, 1], got {cum}")
            prev_x, prev_c = x, c
        if prev_c != 1.0:
            raise ValueError(f"cumulative levels end at {prev_c!r}, not 1.0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "cum", cum)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, float]]) -> "DiscreteDist":
        """Build from ``(x, mass)`` pairs, through ``_from_merged``'s mass rule.

        Masses must lie in (0, 1] and sum to 1, both up to ``MASS_TOL``;
        each point's masses are summed exactly.
        """
        merged: dict[float, float] = {}
        repeats: list[tuple[float, float]] = []
        for x, p in atoms:
            x = float(x)
            p = float(p)
            if not 0.0 < p <= 1.0 + MASS_TOL:
                if math.isnan(p):
                    raise ValueError("atom mass must not be NaN")
                raise ValueError(f"atom mass must lie in (0, 1], got {p}")
            if not math.isfinite(x):
                raise ValueError(f"support point must be finite, got {x}")
            if x in merged:
                repeats.append((x, p))
            else:
                merged[x] = p
        if not merged:
            raise ValueError("a distribution needs at least one atom")
        return _from_merged(merged, repeats)

    @classmethod
    def from_levels(cls, xs: Sequence[float], levels: Sequence[float]) -> "DiscreteDist":
        """Build from cumulative levels at increasing breakpoints.

        Only the breakpoints where the level rises are kept, so a level
        may fall back by up to ``MASS_TOL``.  A level at most ``MASS_TOL``
        above 1 is read as 1.0, a higher one is rejected; the top level,
        1 up to ``MASS_TOL``, becomes 1.0 and closes the CDF.
        """
        if len(xs) != len(levels):
            raise ValueError("need one cumulative level per breakpoint")
        for i, x in enumerate(xs):
            if not math.isfinite(x):
                raise ValueError(f"support point must be finite, got {x}")
            if i and xs[i - 1] >= x:
                raise ValueError("breakpoints must be strictly increasing")
        top = 0.0
        for lev in levels:
            if math.isnan(lev):
                raise ValueError("cumulative levels must not be NaN")
            if lev < top - MASS_TOL:
                raise ValueError("cumulative levels must be non-decreasing")
            if lev > 1.0 + MASS_TOL:
                raise ValueError(f"cumulative level {lev!r} is above 1")
            if lev > top:
                top = min(lev, 1.0)
        if not top > 0.0:
            raise ValueError("no atom carries positive mass")
        if 1.0 - top > MASS_TOL:
            raise ValueError(f"cumulative levels end at {float(top)!r}, not 1.0")
        # the first breakpoint at the top level, and none after it, rises to 1.0
        return _rising((float(x), 1.0 if lev >= top else float(lev)) for x, lev in zip(xs, levels))

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

    def __repr__(self) -> str:
        inner = " + ".join(f"{p:.6g}*d[{x:.6g}]" for x, p in self.atoms)
        return f"DiscreteDist({inner})"


# the slots' own setters, which write past the frozen __setattr__
_set_xs, _set_cum = DiscreteDist.xs.__set__, DiscreteDist.cum.__set__


def _trusted(xs: tuple[float, ...], cum: tuple[float, ...]) -> DiscreteDist:
    """A ``DiscreteDist`` without the public check.

    Callers pass float tuples already in canonical form, by construction.
    """
    # slots, not an instance dict: a dict written here would keep CPython
    # from reading F.xs and F.cum at a fixed offset, and every measure
    # reads them once per call, per table node and per sampled pair
    d = object.__new__(DiscreteDist)
    _set_xs(d, xs)
    _set_cum(d, cum)
    return d


def _rising(points_levels: Iterable[tuple[float, float]]) -> DiscreteDist:
    """The step CDF through non-decreasing levels in [0, 1] that reach 1.0.

    A point is kept when its level rises over the last kept level, so
    the last kept level is exactly 1.0.
    """
    xs: list[float] = []
    cum: list[float] = []
    prev = 0.0
    for x, lev in points_levels:
        if lev > prev:
            xs.append(x)
            cum.append(lev)
            prev = lev
    return _trusted(tuple(xs), tuple(cum))


def _from_merged(merged: dict[float, float], repeats: Sequence[tuple[float, float]] = ()) -> DiscreteDist:
    """The step CDF of an atom list; the one place that decides its mass sum.

    ``merged`` maps each point to the first mass seen there, and
    ``repeats`` holds the later ``(point, mass)`` pairs at those points;
    the caller checks that points are finite and masses positive.  A
    repeated point's masses are summed with ``fsum``.  The input's own
    sum, the ``fsum`` of every mass, must be 1 up to ``MASS_TOL``; inside
    that band the masses are renormalized so the final cumulative level
    is exactly 1.0.
    """
    xs = sorted(merged)
    if repeats:
        runs: dict[float, list[float]] = {}
        for x, p in repeats:
            runs.setdefault(x, [merged[x]]).append(p)
        ps = [math.fsum(runs[x]) if x in runs else merged[x] for x in xs]
        total = math.fsum(chain(merged.values(), (p for _, p in repeats)))
    else:
        ps = [merged[x] for x in xs]
        total = math.fsum(ps)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"atom masses sum to {total!r}, need 1 within {MASS_TOL}")
    levels = [acc / total for acc in accumulate(ps)]
    levels[-1] = 1.0
    # the running sum can reach 1.0 early, or pass it; the first level
    # that does closes the CDF at exactly 1.0 and the atoms after it
    # carry no mass (levels rise up to the last, so bisect finds it)
    end = bisect_left(levels, 1.0) + 1
    del xs[end:], levels[end:]
    levels[-1] = 1.0
    # levels that already rise strictly from 0 are the canonical form
    if levels[0] > 0.0 and all(map(lt, levels, islice(levels, 1, None))):
        return _trusted(tuple(xs), tuple(levels))
    return _rising(zip(xs, levels))


def point_mass(x: float) -> DiscreteDist:
    """The degenerate distribution sitting at ``x``."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"support point must be finite, got {x}")
    return _trusted((x,), (1.0,))


def two_point(x: float, y: float, p: float) -> DiscreteDist:
    """Mass ``p`` at ``x`` and ``1 - p`` at ``y``, requiring ``x <= y``.

    Degenerate cases (``p`` at 0 or 1, or ``x == y``) collapse to a point
    mass so the result is always canonical.
    """
    if x > y:
        raise ValueError(f"two_point needs x <= y, got x={x}, y={y}")
    if not (-INF < x and y < INF):
        raise ValueError(f"support points must be finite, got x={x}, y={y}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if x == y or p >= 1.0:
        return point_mass(x)
    if p <= 0.0:
        return point_mass(y)
    return _trusted((float(x), float(y)), (float(p), 1.0))


# -- the dominance lattice ----------------------------------------------


def _merge(f: DiscreteDist, g: DiscreteDist, low: bool) -> DiscreteDist:
    """The step CDF through min(F, G) (``low``) or max(F, G), in one linear merge.

    Each point of the merged support where that level rises strictly over
    the last kept one is kept as the walk reaches it.  A point of both
    supports is kept at ``f``'s float, except that a zero the two hold
    with opposite signs is kept as ``0.0``, so join and meet are
    symmetric bit for bit.
    """
    fx, fc, gx, gc = f.xs, f.cum, g.xs, g.cum
    m, n = len(fx), len(gx)
    xs: list[float] = []
    cum: list[float] = []
    i = j = 0
    a = b = prev = 0.0
    while i < m and j < n:
        x, y = fx[i], gx[j]
        if x < y:
            a = fc[i]
            i += 1
        elif y < x:
            x, b = y, gc[j]
            j += 1
        else:
            if x == 0.0:
                # -0.0 + 0.0 is 0.0; a zero keeps its sign when both agree
                x += y
            a, b = fc[i], gc[j]
            i += 1
            j += 1
        if low:
            lev = a if a < b else b
        else:
            lev = a if a > b else b
        if lev > prev:
            xs.append(x)
            cum.append(lev)
            prev = lev
    # one side is used up, at level 1.0, so the maximum has reached 1.0;
    # the minimum is the other side's own level, which rises at each of
    # its points left, since prev is at most its last level
    if low:
        rest_x, rest_c, k = (fx, fc, i) if i < m else (gx, gc, j)
        xs.extend(rest_x[k:])
        cum.extend(rest_c[k:])
    return _trusted(tuple(xs), tuple(cum))


def fsd_leq(f: DiscreteDist, g: DiscreteDist) -> bool:
    """True when ``g`` dominates ``f``: F(x) >= G(x) for every x.

    That is min(F, G) == G, and canonical forms are equal exactly when
    their CDFs are.
    """
    return fsd_join(f, g) == g


def fsd_join(f: DiscreteDist, g: DiscreteDist) -> DiscreteDist:
    """Least upper bound: the pointwise minimum of the two CDFs."""
    return _merge(f, g, True)


def fsd_meet(f: DiscreteDist, g: DiscreteDist) -> DiscreteDist:
    """Greatest lower bound: the pointwise maximum of the two CDFs."""
    return _merge(f, g, False)


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
    """The uniform law on the compact support ``[lo, hi]``.

    Its CDF is 0 below ``lo``, 1 from ``hi`` and ``(x - lo) / (hi - lo)``
    between; a support with ``lo == hi`` is the point mass at ``lo``.
    """

    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = (float(self.support[0]), float(self.support[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"support must be a finite interval, got {self.support}")
        if hi < lo:
            raise ValueError(f"support is reversed, hi < lo: got {self.support}")
        if not math.isfinite(hi - lo):  # the CDF divides by the width
            raise ValueError(f"support width {hi - lo} must be finite, got {self.support}")
        object.__setattr__(self, "support", (lo, hi))

    def __call__(self, x: float) -> float:
        lo, hi = self.support
        if x < lo:
            return 0.0
        if x >= hi:
            return 1.0
        return (x - lo) / (hi - lo)

    @classmethod
    def uniform(cls, a: float, b: float) -> "ContinuousCDF":
        return cls((a, b))


def discretize(f: ContinuousCDF, n: int) -> DiscreteDist:
    """Step approximation of ``f`` from below in the dominance order.

    The support is cut into ``n`` equal cells and each cell carries the
    CDF value at its right end, placed at its left end.  The result's CDF
    therefore sits at or above ``f`` everywhere, i.e. the approximation is
    dominated by ``f``, and refining ``n -> 2n`` moves it up towards ``f``.
    Cells whose left ends round to one float point merge there at the
    last one's level, ``f`` at the next left end, so domination holds.
    """
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    lo, hi = f.support
    if hi == lo:
        return point_mass(lo)
    span = hi - lo
    try:
        wide = not math.isfinite((n - 1) * span)  # the cell ends scale the width by up to n - 1
    except OverflowError:  # n - 1 has no float; n may have too many digits to print
        raise ValueError(f"cell count n of {n.bit_length()} bits is past the float range") from None
    if wide:
        raise ValueError(f"support width {span!r} is too wide to cut into n={n} cells")
    starts: dict[float, float] = {}
    for k in range(1, n + 1):
        right = hi if k == n else lo + k * span / n
        starts[lo + (k - 1) * span / n] = f(right)
    return _rising(starts.items())

