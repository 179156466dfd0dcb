"""Bivariate kernels and exact sup/inf evaluation over step CDFs.

A sup-kernel psi(x, p) is decreasing in p for each fixed x, with
psi(x, 1) = -inf away from deliberately degenerate variants; a
distribution is evaluated as sup over x of psi(x, F(x)).  For a step
CDF that supremum is attained at a breakpoint or as a left limit
approaching one, so it collapses to a finite maximum once the kernel can
report its own x-breakpoints and its left-sup regularization
psi~(x, p) = sup over t < x of psi(t, p).  Dual inf-kernels phi mirror
all of this: phi(x, 0) = +inf, evaluation is inf over x of phi(x, F(x-))
and the one-sided limits come from the right-inf regularization.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

from .dist import DiscreteDist
from .steps import (
    MonotoneStep,
    check_benchmark_curve,
    check_level,
    check_level_curve,
    check_pinned,
)

INF = math.inf


class PsiKernel(ABC):
    """Sup-form kernel, decreasing in its second argument."""

    @abstractmethod
    def eval(self, x: float, p: float) -> float: ...

    @abstractmethod
    def left_sup(self, x: float, p: float) -> float:
        """sup of eval(t, p) over t < x."""

    def x_breakpoints(self) -> tuple[float, ...]:
        return ()

    def p_breakpoints(self) -> tuple[float, ...]:
        return ()


def _probe_increasing(curve: Callable[[float], float], label: str, excluded: float) -> None:
    """Probe on a coarse grid over [0, 1] that ``curve`` increases and avoids ``excluded``."""
    vals = [float(curve(k / 32)) for k in range(33)]
    for v in vals:
        if math.isnan(v):
            raise ValueError(f"{label} evaluated to NaN")
        if v == excluded:
            raise ValueError(f"{label} must not take {excluded:+}")
    if any(vals[i] > vals[i + 1] for i in range(32)):
        raise ValueError(f"{label} is not increasing")


@dataclass(frozen=True)
class VarKernel(PsiKernel):
    """psi(x, p) = x while p stays below the fixed level alpha, else -inf.

    Sup evaluation of a distribution gives its left quantile at alpha.
    """

    alpha: float

    def __post_init__(self):
        check_level(self.alpha)

    def eval(self, x: float, p: float) -> float:
        return x if p < self.alpha else -INF

    def left_sup(self, x: float, p: float) -> float:
        # the sup over the open ray below x still reaches x
        return x if p < self.alpha else -INF

    def p_breakpoints(self) -> tuple[float, ...]:
        return (self.alpha,)


@dataclass(frozen=True)
class BenchmarkLossKernel(PsiKernel):
    """psi(x, p) = x - h(p) for an increasing benchmark curve h.

    ``h`` may be a MonotoneStep or any callable on [0, 1]; it must
    diverge to +inf at 1 (that is what forces psi(x, 1) = -inf) and may
    hit +inf earlier, but never -inf.  Monotonicity is probed coarsely.
    """

    h: Callable[[float], float]

    def __post_init__(self):
        check_benchmark_curve(self.h)
        _probe_increasing(self.h, "benchmark curve", -INF)

    def eval(self, x: float, p: float) -> float:
        hp = self.h(p)
        return -INF if hp == INF else x - hp

    def left_sup(self, x: float, p: float) -> float:
        return self.eval(x, p)

    def p_breakpoints(self) -> tuple[float, ...]:
        if isinstance(self.h, MonotoneStep):
            return self.h.breakpoints
        return ()


@dataclass(frozen=True)
class LambdaKernel(PsiKernel):
    """psi(x, p) = x while p stays below the level curve at x, else -inf.

    The level curve is a decreasing step into [0, 1]; sup evaluation
    returns sup{x : F(x) < curve(x)}, the curve-indexed quantile.
    """

    lam: MonotoneStep

    def __post_init__(self):
        check_level_curve(self.lam)

    def eval(self, x: float, p: float) -> float:
        return x if p < self.lam(x) else -INF

    def left_sup(self, x: float, p: float) -> float:
        # {t: curve(t) > p} is an open ray ending at the level crossing,
        # so the left sup is x truncated at that crossing
        return min(x, self.lam.level_crossing(p))

    def x_breakpoints(self) -> tuple[float, ...]:
        return self.lam.breakpoints

    def p_breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.lam.values)))


@dataclass(frozen=True)
class PinnedKernel(PsiKernel):
    """psi(x, p) = g(p) at the single point x0 and -inf elsewhere.

    Evaluates every distribution to g(F(x0)).  Deliberately degenerate:
    point masses on the same side of x0 all get the same value, which
    makes this the stock counterexample to nondegeneracy.
    """

    x0: float
    g: MonotoneStep

    def __post_init__(self):
        check_pinned(self.x0, self.g)

    def eval(self, x: float, p: float) -> float:
        return self.g(p) if x == self.x0 else -INF

    def left_sup(self, x: float, p: float) -> float:
        return self.g(p) if x > self.x0 else -INF

    def x_breakpoints(self) -> tuple[float, ...]:
        return (self.x0,)

    def p_breakpoints(self) -> tuple[float, ...]:
        return self.g.breakpoints


class _Tabulated:
    """Float coercion, validation and p lookup shared by the grid kernels.

    Subclasses are frozen dataclasses with ``x_grid``, ``p_grid`` and
    ``table`` fields.
    """

    def _check_grid(self, edge: int, edge_value: float) -> None:
        """Coerce the fields to floats and validate them.

        Rows must decrease along p and the p column at index ``edge``
        must be identically ``edge_value``.
        """
        xg = tuple(float(v) for v in self.x_grid)
        pg = tuple(float(v) for v in self.p_grid)
        tab = tuple(tuple(float(v) for v in row) for row in self.table)
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "p_grid", pg)
        object.__setattr__(self, "table", tab)
        if not xg or any(xg[i] >= xg[i + 1] for i in range(len(xg) - 1)):
            raise ValueError("x-grid must be non-empty and strictly increasing")
        if len(pg) < 2 or pg[0] != 0.0 or pg[-1] != 1.0:
            raise ValueError("p-grid must start at 0.0 and end at 1.0")
        if any(pg[i] >= pg[i + 1] for i in range(len(pg) - 1)):
            raise ValueError("p-grid must be strictly increasing")
        if len(tab) != len(xg) or any(len(row) != len(pg) for row in tab):
            raise ValueError("table shape must be len(x_grid) by len(p_grid)")
        for row in tab:
            if any(math.isnan(v) for v in row):
                raise ValueError("table must not contain NaN")
            if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
                raise ValueError("table rows must be decreasing along p")
            if row[edge] != edge_value:
                raise ValueError(f"table column at p = {pg[edge]:g} must be {edge_value:+}")

    def nearest_p_index(self, p: float) -> int:
        j = bisect_left(self.p_grid, p)
        if j == 0:
            return 0
        if j == len(self.p_grid):
            return j - 1
        # exact midpoints go to the lower node
        return j if self.p_grid[j] - p < p - self.p_grid[j - 1] else j - 1


@dataclass(frozen=True)
class GridKernel(_Tabulated, PsiKernel):
    """Tabulated kernel on an x-grid times p-grid.

    Lookups floor x to the grid (-inf to the left of it) and take the
    nearest p node, ties resolved downward.  Each row must be decreasing
    along p and the p = 1 column identically -inf; both are checked at
    construction, matching what the constructive engine produces.
    """

    x_grid: tuple[float, ...]
    p_grid: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]
    _runmax: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_grid(-1, -INF)
        run = []
        best = [-INF] * len(self.p_grid)
        for row in self.table:
            best = [b if b >= v else v for b, v in zip(best, row)]
            run.append(tuple(best))
        object.__setattr__(self, "_runmax", tuple(run))

    def eval(self, x: float, p: float) -> float:
        i = bisect_right(self.x_grid, x) - 1
        if i < 0:
            return -INF
        return self.table[i][self.nearest_p_index(p)]

    def left_sup(self, x: float, p: float) -> float:
        i = bisect_left(self.x_grid, x) - 1
        if i < 0:
            return -INF
        return self._runmax[i][self.nearest_p_index(p)]

    def x_breakpoints(self) -> tuple[float, ...]:
        return self.x_grid

    def p_breakpoints(self) -> tuple[float, ...]:
        return self.p_grid


@dataclass(frozen=True)
class RegularizedKernel(PsiKernel):
    """Left-sup closure of a base kernel.

    Increasing and left-continuous in x by construction, with the same
    sup evaluation on every distribution as the base kernel.
    """

    base: PsiKernel

    def eval(self, x: float, p: float) -> float:
        return self.base.left_sup(x, p)

    def left_sup(self, x: float, p: float) -> float:
        # the closure is idempotent: an increasing left-continuous
        # function equals its own left sup
        return self.base.left_sup(x, p)

    def x_breakpoints(self) -> tuple[float, ...]:
        return self.base.x_breakpoints()

    def p_breakpoints(self) -> tuple[float, ...]:
        return self.base.p_breakpoints()


def regularize_psi(psi: PsiKernel) -> PsiKernel:
    """Left-sup regularization psi~(x, p) = sup over t < x of psi(t, p)."""
    if isinstance(psi, RegularizedKernel):
        return psi
    return RegularizedKernel(psi)


def _candidates(kernel_breaks: tuple[float, ...], F: DiscreteDist) -> list[float]:
    return sorted(set(F.xs).union(kernel_breaks))


def sup_psi_eval(psi: PsiKernel, F: DiscreteDist) -> float:
    """Exact sup over all real x of psi(x, F(x)).

    Between consecutive candidate points (CDF breakpoints plus the
    kernel's x-breakpoints) the CDF and the kernel structure are both
    constant, so each open interval contributes either its left-end
    value or the left limit at its right end; the latter is exactly the
    regularized kernel evaluated there.  Candidate values never
    overshoot because psi decreases in p while F increases in x.
    """
    best = -INF
    cands = _candidates(psi.x_breakpoints(), F)
    for b in cands:
        v = psi.eval(b, F.cdf(b))
        if v > best:
            best = v
        w = psi.left_sup(b, F.cdf_left_limit(b))
        if w > best:
            best = w
    # beyond the last candidate the CDF sits at 1 and the kernel has no
    # x-structure left, so one probe finishes the sup; variants with
    # psi(x, 1) = -inf contribute nothing here, but a regularized pinned
    # kernel keeps its p = 1 value on that whole ray
    v = psi.eval(cands[-1] + 1.0, 1.0)
    return v if v > best else best


class PhiKernel(ABC):
    """Inf-form kernel, decreasing in p, +inf at p = 0."""

    @abstractmethod
    def eval(self, x: float, p: float) -> float: ...

    @abstractmethod
    def right_inf(self, x: float, p: float) -> float:
        """inf of eval(t, p) over t > x."""

    def x_breakpoints(self) -> tuple[float, ...]:
        return ()


def inf_phi_eval(phi: PhiKernel, F: DiscreteDist) -> float:
    """Exact inf over all real x of phi(x, F(x-)), mirroring sup_psi_eval."""
    best = INF
    for b in _candidates(phi.x_breakpoints(), F):
        v = phi.eval(b, F.cdf_left_limit(b))
        if v < best:
            best = v
        w = phi.right_inf(b, F.cdf(b))
        if w < best:
            best = w
    return best


@dataclass(frozen=True)
class DualVarKernel(PhiKernel):
    """phi(x, p) = x once p reaches alpha, +inf below it."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"level must lie in (0, 1], got {self.alpha}")

    def eval(self, x: float, p: float) -> float:
        return x if p >= self.alpha else INF

    def right_inf(self, x: float, p: float) -> float:
        return x if p >= self.alpha else INF


@dataclass(frozen=True)
class DualBenchmarkKernel(PhiKernel):
    """phi(x, p) = x - g(p) for an increasing curve g with g(0) = -inf.

    The divergence at 0 is what forces phi(x, 0) = +inf; away from 0 the
    curve must stay below +inf so that phi keeps real values.
    """

    g: Callable[[float], float]

    def __post_init__(self):
        if self.g(0.0) != -INF:
            raise ValueError("dual benchmark curve must be -inf at 0")
        _probe_increasing(self.g, "dual benchmark curve", INF)

    def eval(self, x: float, p: float) -> float:
        gp = self.g(p)
        return INF if gp == -INF else x - gp

    def right_inf(self, x: float, p: float) -> float:
        return self.eval(x, p)


@dataclass(frozen=True)
class DualLambdaKernel(PhiKernel):
    """phi(x, p) = x once p reaches the level curve at x, +inf below.

    The curve must stay strictly positive so that phi(x, 0) = +inf.
    """

    lam: MonotoneStep

    def __post_init__(self):
        check_level_curve(self.lam, positive=True)

    def eval(self, x: float, p: float) -> float:
        return x if p >= self.lam(x) else INF

    def right_inf(self, x: float, p: float) -> float:
        # {t: curve(t) <= p} is the closed ray from the level crossing on
        return max(x, self.lam.level_crossing(p))

    def x_breakpoints(self) -> tuple[float, ...]:
        return self.lam.breakpoints


@dataclass(frozen=True)
class DualPinnedKernel(PhiKernel):
    """phi(x, p) = g(p) at the single point x0 and +inf elsewhere."""

    x0: float
    g: MonotoneStep

    def __post_init__(self):
        check_pinned(self.x0, self.g)
        if self.g(0.0) != INF:
            raise ValueError("pinned value curve must be +inf at 0")

    def eval(self, x: float, p: float) -> float:
        return self.g(p) if x == self.x0 else INF

    def right_inf(self, x: float, p: float) -> float:
        return self.g(p) if x < self.x0 else INF

    def x_breakpoints(self) -> tuple[float, ...]:
        return (self.x0,)


@dataclass(frozen=True)
class DualGridKernel(_Tabulated, PhiKernel):
    """Tabulated inf-form kernel.

    Mirror of GridKernel: lookups ceil x to the grid (+inf to the right
    of it), rows must be decreasing along p with the p = 0 column
    identically +inf.
    """

    x_grid: tuple[float, ...]
    p_grid: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]
    _runmin: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_grid(0, INF)
        run: list[tuple[float, ...]] = []
        best = [INF] * len(self.p_grid)
        for row in reversed(self.table):
            best = [b if b <= v else v for b, v in zip(best, row)]
            run.append(tuple(best))
        object.__setattr__(self, "_runmin", tuple(reversed(run)))

    def eval(self, x: float, p: float) -> float:
        i = bisect_left(self.x_grid, x)
        if i == len(self.x_grid):
            return INF
        return self.table[i][self.nearest_p_index(p)]

    def right_inf(self, x: float, p: float) -> float:
        i = bisect_right(self.x_grid, x)
        if i == len(self.x_grid):
            return INF
        return self._runmin[i][self.nearest_p_index(p)]

    def x_breakpoints(self) -> tuple[float, ...]:
        return self.x_grid
