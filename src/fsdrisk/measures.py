"""Closed-form risk functionals on step CDFs.

Everything here evaluates a DiscreteDist to an extended real using exact
breakpoint arithmetic, no grids and no root finding.  The quantile-style
measures (var, benchmark_loss_var, lambda_quantile) are the ones stable
under the dominance lattice; expected_shortfall is included as the
standard functional that is consistent with the dominance order but not
max- or min-stable, which the axiom harness demonstrates by witness.

Each family is declared once, in ``FAMILIES``: its file kind, measure
name, ordered parameters, closed form without its parameter check,
the check and psi-kernel class.  The ``*_measure`` factories and the
JSON formats in jsonio read that table and nothing else.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .dist import DiscreteDist
from .kernels import BenchmarkLossKernel, LambdaKernel, PinnedKernel, VarKernel
from .steps import (
    MonotoneStep,
    check_benchmark_curve,
    check_level,
    check_level_curve,
    check_pinned,
)

INF = math.inf


@dataclass(frozen=True)
class RiskMeasure:
    """A named distribution functional.

    ``fn`` maps a DiscreteDist to an extended real and must be pure;
    ``params`` carries the defining parameters as ordered pairs so that
    measures remain immutable, printable values.  Equality goes by name
    and params alone: for a family measure they determine ``fn``.
    """

    name: str
    fn: Callable[[DiscreteDist], float] = field(compare=False)
    params: tuple[tuple[str, object], ...] = ()

    def __call__(self, F: DiscreteDist) -> float:
        return self.fn(F)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"RiskMeasure({self.name}, {inner})" if inner else f"RiskMeasure({self.name})"


def var(F: DiscreteDist, a: float) -> float:
    """Left quantile of F at level a, a in (0, 1) strictly.

    Equals sup{x : F(x) < a} for step CDFs.
    """
    check_level(a)
    return _var(a, F)


def _var(a: float, F: DiscreteDist) -> float:
    return F.xs[bisect_left(F.cum, a)]


def benchmark_loss_var(F: DiscreteDist, h: Callable[[float], float]) -> float:
    """Largest gap between a quantile and the benchmark curve h.

    ``h`` is increasing on [0, 1] with h(1) = +inf (anything finite
    there is rejected) and h(0) neither NaN nor -inf; it may be a
    MonotoneStep or a plain callable.
    For a step CDF the sup over levels collapses to a max over atoms:
    the i-th atom contributes x_i - h(P_{i-1}), with P_0 = 0, because
    the quantile sits at x_i exactly on the level interval left of P_i
    and h is evaluated at that interval's lower end.
    """
    check_benchmark_curve(h)
    return _benchmark_loss_var(h, F)


def _benchmark_loss_var(h: Callable[[float], float], F: DiscreteDist) -> float:
    best = -INF
    prev = 0.0
    for x, lev in zip(F.xs, F.cum):
        hp = h(prev)
        if hp != INF:
            term = x - hp
            if term > best:
                best = term
        prev = lev
    return best


def lambda_quantile(F: DiscreteDist, lam: MonotoneStep) -> float:
    """sup{x : F(x) < lam(x)} for a decreasing level curve into [0, 1].

    The difference F - lam is increasing, so the strict sublevel set is
    a left ray; the result is -inf when it is empty.  Its endpoint is read
    from one left quantile of F per piece of the curve; see
    ``_lambda_quantile``.
    """
    check_level_curve(lam)
    return _lambda_quantile(lam, F)


def _lambda_quantile(lam: MonotoneStep, F: DiscreteDist) -> float:
    """On piece [b_{i-1}, b_i) with value v_i > 0 the set is [b_{i-1}, min(b_i, Q(v_i))).

    Q is F's left quantile, b_{-1} = -inf and b_{k+1} = inf.  The set is
    a left ray, so its endpoint is the top of the last non-empty piece:
    at most k + 1 bisections on ``F.cum``.  The walk stops at a zero
    value, at a quantile at or below the piece's start, or at one inside
    the piece, since every later piece starts above it.  A tie Q(v_i) == b_i
    gives the atom, and a zero result takes the sign of F's atom at zero
    when F has one: the float a scan of the merged atoms and breakpoints
    finds, since that merge keeps F's points.
    """
    xs, cum, ends = F.xs, F.cum, lam.breakpoints
    best = -INF  # the top so far, which is also where the next piece starts
    for i, v in enumerate(lam.values):
        if v <= 0.0:
            break
        q = xs[bisect_left(cum, v)]
        if q <= best:
            break
        if i == len(ends) or q <= ends[i]:
            best = q
            break
        best = ends[i]
    if best == 0.0:
        zero = xs[bisect_left(xs, 0.0)]
        if zero == 0.0:
            return zero
    return best


def lambda_quantile_dual(F: DiscreteDist, lam: MonotoneStep) -> tuple[float, float]:
    """The two one-sided closed forms of the curve-indexed quantile.

    Returns (sup over x of min(Q(lam(x)), x), inf over x of
    max(Q(lam(x)), x)) where Q is the left quantile of F.  Both agree
    with lambda_quantile; the curve must stay in (0, 1] so that Q is
    defined at every level the curve takes.  Each form is evaluated
    piecewise: on an interval where the curve is constant the inner
    expression is monotone in x, so only interval endpoints matter.
    """
    check_level_curve(lam, positive=True)
    qs = [F.left_quantile(v) for v in lam.values]
    ends = list(lam.breakpoints) + [INF]
    lefts = [-INF] + list(lam.breakpoints)
    sup_form = max(min(q, e) for q, e in zip(qs, ends))
    inf_form = min(max(q, l) for q, l in zip(qs, lefts))
    return sup_form, inf_form


def expected_shortfall(F: DiscreteDist, a: float) -> float:
    """Average of the left quantile over levels above a, a in (0, 1)."""
    check_level(a)
    return _expected_shortfall(a, F)


def _expected_shortfall(a: float, F: DiscreteDist) -> float:
    terms = []
    lo = 0.0
    for x, hi in zip(F.xs, F.cum):
        if hi > a:
            terms.append(x * (hi - max(lo, a)))
        lo = hi
    return math.fsum(terms) / (1.0 - a)


def _pinned_value(x0: float, g: MonotoneStep, F: DiscreteDist) -> float:
    return g(F.cdf(x0))


def transform_measure(rho: RiskMeasure, f: Callable[[float], float]) -> RiskMeasure:
    """Compose a measure with a strictly increasing real map.

    Monotonicity of ``f`` is probed on a coarse grid and a failure is
    rejected; infinite measure values pass through untouched.
    """
    probes = [-64.0 + 0.5 * k for k in range(257)]
    vals = [float(f(t)) for t in probes]
    for v in vals:
        if math.isnan(v) or math.isinf(v):
            raise ValueError("transform must be finite on the probe grid")
    if any(vals[i] >= vals[i + 1] for i in range(256)):
        raise ValueError("transform is not strictly increasing on the probe grid")

    def evaluate(F: DiscreteDist, _rho: RiskMeasure = rho, _f: Callable[[float], float] = f) -> float:
        v = _rho(F)
        if v == INF or v == -INF:
            return v
        return float(_f(v))

    return RiskMeasure(
        name=f"transformed({rho.name})",
        fn=evaluate,
        params=rho.params + (("transformed", f),),
    )


def affine_benchmark(slope: float) -> Callable[[float], float]:
    """Benchmark curve slope * p on [0, 1), +inf at 1, for a finite slope."""
    # an infinite slope would make inf * 0, NaN, at p = 0
    if not 0.0 <= slope < INF:
        raise ValueError(f"benchmark slope must be nonnegative and finite, got {slope}")

    def h(p: float) -> float:
        return INF if p >= 1.0 else slope * p

    return h


# -- the measure families ------------------------------------------------

NUMBER = "number"
STEP = "step"


@dataclass(frozen=True)
class Family:
    """One measure family, declared once.

    ``kind`` is the JSON kind, ``name`` the RiskMeasure name.  ``params``
    lists (JSON key, NUMBER or STEP) in the order that ``core`` (before
    the distribution), ``check`` and ``kernel`` take them.  ``core`` is
    the closed form without its parameter check, which ``measure`` runs
    once.  ``kernel`` is the psi-kernel class, None for a family without
    one.
    """

    kind: str
    name: str
    params: tuple[tuple[str, str], ...]
    core: Callable[..., float]
    check: Callable[..., None]
    kernel: type | None

    def measure(self, *values: object) -> RiskMeasure:
        """The family's measure at ``values``, checked once here."""
        self.check(*values)
        keys = [key for key, _ in self.params]
        return RiskMeasure(self.name, partial(self.core, *values), tuple(zip(keys, values)))


FAMILIES = {
    f.kind: f
    for f in (
        Family("var", "var", (("alpha", NUMBER),), _var, check_level, VarKernel),
        Family("benchmark_loss", "benchmark_loss_var", (("h", STEP),), _benchmark_loss_var,
               check_benchmark_curve, BenchmarkLossKernel),
        Family("lambda", "lambda_quantile", (("Lambda", STEP),), _lambda_quantile,
               check_level_curve, LambdaKernel),
        Family("pinned", "pinned", (("x0", NUMBER), ("g", STEP)), _pinned_value, check_pinned,
               PinnedKernel),
        Family("expected_shortfall", "expected_shortfall", (("alpha", NUMBER),),
               _expected_shortfall, check_level, None),
    )
}


def var_measure(a: float) -> RiskMeasure:
    return FAMILIES["var"].measure(a)


def benchmark_loss_measure(h: Callable[[float], float]) -> RiskMeasure:
    return FAMILIES["benchmark_loss"].measure(h)


def lambda_quantile_measure(lam: MonotoneStep) -> RiskMeasure:
    return FAMILIES["lambda"].measure(lam)


def expected_shortfall_measure(a: float) -> RiskMeasure:
    return FAMILIES["expected_shortfall"].measure(a)


def pinned_measure(x0: float, g: MonotoneStep) -> RiskMeasure:
    """g(F(x0)): constant on point masses away from x0, hence degenerate."""
    return FAMILIES["pinned"].measure(x0, g)
