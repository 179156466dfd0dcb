"""Every form of a measure agrees on inputs built to sit on its edges.

The closed forms, the sup evaluation of the family's kernel, the inf
evaluation of its dual kernel and the two one-sided quantile forms are
computed independently.  The drawn inputs put atoms exactly on curve
breakpoints and CDF levels exactly on curve values, on the var level or
on benchmark-curve jumps, where strict and non-strict comparisons part.
All forms use breakpoint arithmetic, so agreement is exact.
"""

import math

from hypothesis import given, settings, strategies as st

from fsdrisk.dist import DiscreteDist
from fsdrisk.kernels import (
    BenchmarkLossKernel,
    DualLambdaKernel,
    DualVarKernel,
    LambdaKernel,
    VarKernel,
    inf_phi_eval,
    sup_psi_eval,
)
from fsdrisk.measures import benchmark_loss_var, lambda_quantile, lambda_quantile_dual, var
from fsdrisk.steps import DEC, INC, MonotoneStep

INF = math.inf

EXAMPLES = settings(max_examples=200, deadline=None)

xs_ = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def level_curves(draw, positive=False):
    """A decreasing step into [0, 1], or (0, 1] when ``positive``."""
    bps = sorted(draw(st.lists(xs_, max_size=3, unique=True)))
    value = open_unit if positive else st.floats(0.0, 1.0)
    edge = [1.0] if positive else [0.0, 1.0]
    vals = draw(st.lists(st.one_of(value, st.sampled_from(edge)), min_size=len(bps) + 1,
                         max_size=len(bps) + 1))
    return MonotoneStep(tuple(bps), tuple(sorted(vals, reverse=True)), DEC)


@st.composite
def edge_dists(draw, points=(), levels=()):
    """Atoms drawn from ``points`` or anywhere, CDF levels from ``levels`` or anywhere."""
    levels = [c for c in levels if 0.0 < c < 1.0]
    level = st.one_of(st.sampled_from(levels), open_unit) if levels else open_unit
    inner = sorted(set(draw(st.lists(level, max_size=4))))
    point = st.one_of(st.sampled_from(points), xs_) if points else xs_
    n = len(inner) + 1
    xs = sorted(draw(st.lists(point, min_size=n, max_size=n, unique=True)))
    return DiscreteDist.from_levels(xs, inner + [1.0])


@st.composite
def var_cases(draw):
    alpha = draw(open_unit)
    return alpha, draw(edge_dists(levels=(alpha,)))


@st.composite
def lambda_cases(draw, positive=False):
    lam = draw(level_curves(positive))
    return lam, draw(edge_dists(points=lam.breakpoints, levels=lam.values))


@st.composite
def benchmark_cases(draw):
    F = draw(edge_dists())
    bps = sorted(set(draw(st.lists(st.one_of(st.sampled_from(F.cum), open_unit), max_size=3))))
    bps = [b for b in bps if b < 1.0]
    vals = sorted(draw(st.lists(st.one_of(xs_, st.just(INF)), min_size=len(bps) + 1,
                                max_size=len(bps) + 1)))
    return MonotoneStep(tuple(bps), tuple(vals), INC, at_one=INF), F


@given(var_cases())
@EXAMPLES
def test_var_forms_agree(case):
    alpha, F = case
    want = var(F, alpha)
    assert sup_psi_eval(VarKernel(alpha), F) == want
    assert inf_phi_eval(DualVarKernel(alpha), F) == want


@given(lambda_cases())
@EXAMPLES
def test_lambda_quantile_equals_its_kernel_sup(case):
    lam, F = case
    assert sup_psi_eval(LambdaKernel(lam), F) == lambda_quantile(F, lam)


@given(lambda_cases(positive=True))
@EXAMPLES
def test_lambda_quantile_forms_agree_on_a_positive_curve(case):
    lam, F = case
    want = lambda_quantile(F, lam)
    assert sup_psi_eval(LambdaKernel(lam), F) == want
    assert inf_phi_eval(DualLambdaKernel(lam), F) == want
    assert lambda_quantile_dual(F, lam) == (want, want)


@given(benchmark_cases())
@EXAMPLES
def test_benchmark_loss_equals_its_kernel_sup(case):
    h, F = case
    assert sup_psi_eval(BenchmarkLossKernel(h), F) == benchmark_loss_var(F, h)
