"""Bivariate kernels and exact sup/inf evaluation over step CDFs.

A sup-kernel psi(x, p) is decreasing in p for each fixed x, with
psi(x, 1) = -inf away from deliberately degenerate variants; a
distribution is evaluated as sup over x of psi(x, F(x)).  For a step
CDF that is a finite maximum of the left-sup regularization
psi~(x, p) = sup over t < x of psi(t, p), read only through ``left_sup``:
once at each atom and once at (+inf, 1).  Dual inf-kernels phi mirror
this: inf over x of phi(x, F(x-)), read only through ``right_inf``, once
at (-inf, 0) and once at each atom.  The kernel's own breakpoints are
never needed.

A grid table is read two ways.  ``sup_psi_eval`` reads the sup form at
F(x), max_j psi~(a_{j+1}, F(a_j)).  The measure a ``construct_psi``
table represents is max_j psi~(a_j+, F(a_j-)), read at atoms on x nodes
(``engine.verify_representation``); on such atoms the sup form reads
one x cell low.  ``superlevel_rows`` reads the table's cells directly.

The grid kernels check their tables at construction, and ``PsiGrid``,
the table ``engine.construct_psi`` builds, also checks that its p = 0
column rises.  A caller that has made those checks builds a grid
through the classmethod ``_trusted`` instead, as ``dist._trusted``
builds a distribution.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
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
# samples per axis for superlevel and nodes per construct-psi axis; a
# finer request is refused before any list is built
MAX_GRID_NODES = 10**6
_ROW_RISES = "table rows must be decreasing along p"


class PsiKernel(ABC):
    """Sup-form kernel, decreasing in p; sup_psi_eval reads only left_sup.

    ``left_sup`` must accept x = +inf, where it is the sup over the whole
    line.  Decrease in p is relied on, not checked per read:
    ``superlevel_rows`` finds its boundary by bisection over the sampled
    p.  Every kernel the command line builds has it, since GridKernel
    rows and the family curves are checked at construction.
    """

    @abstractmethod
    def eval(self, x: float, p: float) -> float: ...

    @abstractmethod
    def left_sup(self, x: float, p: float) -> float:
        """sup of eval(t, p) over real t < x."""


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

    # the sup over the open ray below x still reaches x
    left_sup = eval


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

    left_sup = eval


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


def check_axes(x_grid, p_grid) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both axes as float tuples, strictly increasing; x finite, p from 0.0 to 1.0."""
    xg = tuple(map(float, x_grid))
    pg = tuple(map(float, p_grid))
    # a NaN node passes every ordering test, so finiteness is its own check
    if not xg or any(map(operator.ge, xg, xg[1:])):
        raise ValueError("x-grid must be non-empty and strictly increasing")
    if not all(map(math.isfinite, xg)):
        raise ValueError("x-grid nodes must be finite")
    if len(pg) < 2 or pg[0] != 0.0 or pg[-1] != 1.0:
        raise ValueError("p-grid must start at 0.0 and end at 1.0")
    if any(map(operator.ge, pg, pg[1:])):
        raise ValueError("p-grid must be strictly increasing")
    if any(map(math.isnan, pg)):
        raise ValueError("p-grid must not contain NaN")
    return xg, pg


@dataclass(frozen=True)
class _Tabulated:
    """The axes and table of a grid kernel, with float coercion, validation and p lookup."""

    x_grid: tuple[float, ...]
    p_grid: tuple[float, ...]
    table: tuple[tuple[float, ...], ...]

    @classmethod
    def _trusted(cls, x_grid: tuple[float, ...], p_grid: tuple[float, ...], table):
        """A ``cls`` of float fields whose ``__post_init__`` checks the caller has made."""
        grid = object.__new__(cls)
        grid.__dict__.update(x_grid=x_grid, p_grid=p_grid, table=table)
        return grid

    def _check_grid(self, edge: int, edge_value: float) -> None:
        """Coerce the fields to floats and validate them.

        Rows must decrease along p and the p column at index ``edge``
        must be identically ``edge_value``.
        """
        xg, pg = check_axes(self.x_grid, self.p_grid)
        tab = tuple(tuple(map(float, row)) for row in self.table)
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "p_grid", pg)
        object.__setattr__(self, "table", tab)
        if len(tab) != len(xg) or any(len(row) != len(pg) for row in tab):
            raise ValueError("table shape must be len(x_grid) by len(p_grid)")
        for row in tab:
            # a NaN fails every comparison, so one pass finds it or a rise;
            # the NaN is named first
            if not all(map(operator.ge, row, islice(row, 1, None))):
                if any(map(math.isnan, row)):
                    raise ValueError("table must not contain NaN")
                raise ValueError(_ROW_RISES)
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

    ``_trusted`` skips those checks and trusts its caller to have made
    them: axes from ``check_axes``, and a float row per x node, one cell
    per p node, that falls along p, holds no NaN and ends in -inf.  The
    table walk of ``construct_psi`` and the one-pass grid reader in
    ``jsonio`` build their grids so.
    """

    def __post_init__(self):
        self._check_grid(-1, -INF)

    @cached_property
    def _runmax(self) -> tuple[tuple[float, ...], ...]:
        """Running max of the rows over x, built on the first left_sup."""
        # max keeps the first of equal cells; a checked row holds no NaN
        return tuple(accumulate(self.table, lambda best, row: tuple(map(max, best, row))))

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


@dataclass(frozen=True)
class PsiGrid(GridKernel):
    """The kernel table that ``construct_psi`` builds.

    On top of the GridKernel checks, the p = 0 column must be strictly
    increasing: it holds the measure's point-mass values, so a tie means
    the measure cannot tell two grid points apart.  ``_trusted`` still
    makes this check.
    """

    def __post_init__(self):
        super().__post_init__()
        self._separated()

    @classmethod
    def _trusted(cls, x_grid: tuple[float, ...], p_grid: tuple[float, ...], table) -> PsiGrid:
        return super()._trusted(x_grid, p_grid, table)._separated()

    def _separated(self) -> PsiGrid:
        col0 = [row[0] for row in self.table]
        if any(map(operator.ge, col0, col0[1:])):
            raise ValueError("value row at p = 0 must be strictly increasing; "
                             "the measure does not separate point masses")
        return self

    def as_kernel(self) -> GridKernel:
        """The grid itself: it is a GridKernel."""
        return self


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
    The boundary is found by bisection over the sampled p, which relies
    on psi decreasing in p: every kernel the command line can build
    does, as grid rows and family curves are checked at construction.
    On a GridKernel (a PsiGrid is one) each sampled p is snapped to its
    p node once per call and each sampled x floored to its row once; one
    bisection finds the row's cells that meet the threshold, a prefix,
    and a second counts the sampled columns inside it, the cells
    ``eval`` would read.  Any other kernel is read through ``eval``.  A NaN
    threshold is rejected, and so are an x range whose ends or width
    are not finite and a resolution above ``MAX_GRID_NODES``.
    """
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    lo, hi = (float(x_range[0]), float(x_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"x range must be a finite interval, got {x_range}")
    if not math.isfinite(hi - lo):  # the samples scale by the width
        raise ValueError(f"x range must have a finite width, got {x_range}")
    if not 2 <= resolution <= MAX_GRID_NODES:
        raise ValueError(f"resolution must be from 2 to {MAX_GRID_NODES}, got {resolution}")
    steps = resolution - 1
    xs = [lo + (hi - lo) * k / steps for k in range(resolution)]
    ps = [k / steps for k in range(resolution)]
    # psi falls in p, so the levels that meet the threshold are a prefix of ps
    if isinstance(kernel, GridKernel):
        cols = [kernel.nearest_p_index(p) for p in ps]
        # the row left of the grid reads -inf, as eval does there
        by_x = ((-INF,) * len(kernel.p_grid), *kernel.table)

        def cut(x: float) -> int:
            # the row's cells >= threshold are a prefix; count the columns inside it
            row = by_x[bisect_right(kernel.x_grid, x)]
            return bisect_left(cols, bisect_right(row, -threshold, key=operator.neg))
    else:
        def cut(x: float) -> int:
            return bisect_left(ps, True, key=lambda p: not kernel.eval(x, p) >= threshold)
    rows: list[tuple[float, float | None, bool]] = []
    for x in xs:
        k = cut(x)
        boundary = ps[k - 1] if k else None
        rows.append((x, boundary, boundary is not None))
    return rows


def sup_psi_eval(psi: PsiKernel, F: DiscreteDist) -> float:
    """Exact sup over all real x of psi(x, F(x)), read through left_sup alone.

    With a_0 = -inf, F(a_0) = 0 and a_{m+1} = +inf, the atoms
    a_1 < ... < a_m cut the line into pieces [a_j, a_{j+1}) on which F is
    the constant F(a_j).  Each piece is one read left_sup(a_{j+1}, F(a_j)),
    m + 1 reads in all.  A read also covers every t left of the piece, at
    a level no lower than F(t); psi decreases in p, so no read overshoots.
    On a ``construct_psi`` table this is not the measure, which reads
    left_sup(a_j+, F(a_j-)) (see the module docstring).
    """
    return max(map(psi.left_sup, (*F.xs, INF), (0.0, *F.cum)))


class PhiKernel(ABC):
    """Inf-form kernel, decreasing in p; inf_phi_eval reads only right_inf.

    ``right_inf`` must accept x = -inf, where it is the inf over the whole
    line.
    """

    @abstractmethod
    def eval(self, x: float, p: float) -> float: ...

    @abstractmethod
    def right_inf(self, x: float, p: float) -> float:
        """inf of eval(t, p) over real t > x."""


def inf_phi_eval(phi: PhiKernel, F: DiscreteDist) -> float:
    """Exact inf over all real x of phi(x, F(x-)), read through right_inf alone.

    Mirror of sup_psi_eval: with a_0 = -inf and F(a_0) = 0, F(x-) is the
    constant F(a_j) on (a_j, a_{j+1}], and 1 past a_m.  Each piece is one
    read right_inf(a_j, F(a_j)), m + 1 reads in all; a read at a level no
    higher than F(t-) never undershoots, as phi decreases in p.
    """
    return min(map(phi.right_inf, (-INF, *F.xs), (0.0, *F.cum)))


@dataclass(frozen=True)
class DualVarKernel(PhiKernel):
    """phi(x, p) = x once p reaches alpha, +inf below it."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"level must lie in (0, 1], got {self.alpha}")

    def eval(self, x: float, p: float) -> float:
        return x if p >= self.alpha else INF

    right_inf = eval


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

    right_inf = eval


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


@dataclass(frozen=True)
class DualGridKernel(_Tabulated, PhiKernel):
    """Tabulated inf-form kernel.

    Mirror of GridKernel: lookups ceil x to the grid (+inf to the right
    of it), rows must be decreasing along p with the p = 0 column
    identically +inf.
    """

    def __post_init__(self):
        self._check_grid(0, INF)

    @cached_property
    def _runmin(self) -> tuple[tuple[float, ...], ...]:
        """Running min of the rows from the right, built on the first right_inf."""
        run = accumulate(reversed(self.table), lambda best, row: tuple(map(min, best, row)))
        return tuple(run)[::-1]

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
