"""Closed-form risk functionals on step CDFs.

Everything here evaluates a DiscreteDist to an extended real using exact
breakpoint arithmetic, no grids and no root finding.  The quantile-style
measures (var, benchmark_loss_var, lambda_quantile) are the ones stable
under the dominance lattice; expected_shortfall is included as the
standard functional that is consistent with the dominance order but not
max- or min-stable, which the axiom harness demonstrates by witness.

Each family is declared once, in ``FAMILIES``: its file kind, measure
name, ordered parameters, closed form, parameter check and psi-kernel
class.  The ``*_measure`` factories and the JSON formats in jsonio read
that table and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    return F.left_quantile(a)


def benchmark_loss_var(F: DiscreteDist, h: Callable[[float], float]) -> float:
    """Largest gap between a quantile and the benchmark curve h.

    ``h`` is increasing on [0, 1] with h(1) = +inf (anything finite
    there is rejected); it may be a MonotoneStep or a plain callable.
    For a step CDF the sup over levels collapses to a max over atoms:
    the i-th atom contributes x_i - h(P_{i-1}), with P_0 = 0, because
    the quantile sits at x_i exactly on the level interval left of P_i
    and h is evaluated at that interval's lower end.
    """
    check_benchmark_curve(h)
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
    a left ray; the scan below finds its endpoint among the merged
    breakpoints.  Returns -inf when the set is empty.
    """
    check_level_curve(lam)
    bs = sorted(set(F.xs).union(lam.breakpoints))
    best = bs[0] if lam.values[0] > 0.0 else -INF
    for i, b in enumerate(bs):
        if F.cdf(b) < lam(b):
            best = bs[i + 1] if i + 1 < len(bs) else INF
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
    terms = []
    lo = 0.0
    for x, hi in zip(F.xs, F.cum):
        if hi > a:
            terms.append(x * (hi - max(lo, a)))
        lo = hi
    return math.fsum(terms) / (1.0 - a)


def pinned_value(F: DiscreteDist, x0: float, g: MonotoneStep) -> float:
    """g(F(x0)): constant on point masses away from x0, hence degenerate."""
    check_pinned(x0, g)
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


def affine_benchmark(slope: float, intercept: float = 0.0) -> Callable[[float], float]:
    """Benchmark curve slope * p + intercept on [0, 1), +inf at 1."""
    if not slope >= 0.0:
        raise ValueError(f"benchmark slope must be nonnegative, got {slope}")

    def h(p: float) -> float:
        return INF if p >= 1.0 else slope * p + intercept

    return h


# -- the measure families ------------------------------------------------

NUMBER = "number"
STEP = "step"


@dataclass(frozen=True)
class Family:
    """One measure family, declared once.

    ``kind`` is the JSON kind, ``name`` the RiskMeasure name.  ``params``
    lists (JSON key, NUMBER or STEP) in the order that ``closed_form``
    (after the distribution), ``check`` and ``kernel`` take them.
    ``kernel`` is the psi-kernel class, None for a family without one.
    """

    kind: str
    name: str
    params: tuple[tuple[str, str], ...]
    closed_form: Callable[..., float]
    check: Callable[..., None]
    kernel: type | None

    def measure(self, *values: object) -> RiskMeasure:
        """The family's measure at ``values``, checked once here."""
        self.check(*values)
        closed = self.closed_form
        keys = [key for key, _ in self.params]
        return RiskMeasure(self.name, lambda F: closed(F, *values), tuple(zip(keys, values)))


FAMILIES = {
    f.kind: f
    for f in (
        Family("var", "var", (("alpha", NUMBER),), var, check_level, VarKernel),
        Family("benchmark_loss", "benchmark_loss_var", (("h", STEP),), benchmark_loss_var,
               check_benchmark_curve, BenchmarkLossKernel),
        Family("lambda", "lambda_quantile", (("Lambda", STEP),), lambda_quantile,
               check_level_curve, LambdaKernel),
        Family("pinned", "pinned", (("x0", NUMBER), ("g", STEP)), pinned_value, check_pinned,
               PinnedKernel),
        Family("expected_shortfall", "expected_shortfall", (("alpha", NUMBER),),
               expected_shortfall, check_level, None),
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
