"""Every form of a measure agrees on inputs built to sit on its edges.

The closed forms, the sup evaluation of the family's kernel, the inf
evaluation of its dual kernel and the two one-sided quantile forms are
computed independently.  The drawn inputs put atoms exactly on curve
breakpoints and CDF levels exactly on curve values, on the var level or
on benchmark-curve jumps, where strict and non-strict comparisons part.
All forms use breakpoint arithmetic, so agreement is exact.

The lattice operations are checked the same way against a pointwise
reference, on pairs that share support points and whose levels sit
within about 1e-15 of each other, where a join or meet that dropped
tiny level gains would break the lattice laws.

The one-pass atom reader of ``parse_distribution_obj`` is checked
against the per-atom route it replaced, on repeated points, signed zeros,
odd values, junk entries and mass sums at the edge of the tolerance.
Both it and ``from_atoms`` are checked against the input's own mass sum
on long runs of one repeated point, where a running sum drifts.
The one-pass grid reader is checked the same way against the route that
reads every entry through ``parse_num``: ints, bools, NaN in any of the
three lists, junk after a NaN, non-list and ragged rows, rising rows,
and rows whose split into live floats and a "-inf" tail goes wrong.

``superlevel_rows`` is checked against a scan of every sampled level,
on every kernel kind a file can hold, grids that start right of the
sampled range and p nodes that tie at a sampled level; its grid cut
also against a bisection that reads one cell per probe.  The curve
estimate of ``recover_lambda`` is checked against a scan and against a
bisection calling the exact test per probe, bit for bit, on rows where
one rounding parts that test from a comparison with row[0] - tol.  Its
cross-check is checked against one ``cdf_left_limit`` read per node, on
atoms on, between and beside the nodes and on curve estimates that rise.
The shared tail's shortcut for strictly rising levels is checked against
``_rising``'s loop, on masses small enough to stall a level.

The one-anchor kernel table of ``construct_psi`` is checked against the
scan that walks each row's anchor down the x-grid, on small grids near
zero and near 1e15.  Its rows, which end at their first dead node, are
checked against a one-call-per-node scan at the same anchor, also for
expected shortfall: monotone in the dominance order but not max-stable.
Where its float arithmetic lets a row rise, a cell need only match the
scan, sit past a dead node, or hold the value of the run around it; a
rise the walk places, between two nodes or just after a run, is
refused, and every grid it returns is one ``PsiGrid`` takes unchanged.
Those rows skip runs of equal values; they are also checked against the
scan on lookup measures whose rows fall in long runs, runs of one node,
runs up to the p = 1 node and zeros of both signs, and on rows whose
run ends shift, vanish or multiply from row to row, since each run's
search starts at the run ends of the row above.  The mixtures the
table builds in place are checked, by type and bit for bit, against
those ``two_point_eval`` builds at every node, with no node read twice.
"""

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate

import pytest

from hypothesis import example, given, settings, strategies as st

from fsdrisk.dist import (
    MASS_TOL,
    DiscreteDist,
    _from_merged,
    _rising,
    fsd_join,
    fsd_leq,
    fsd_meet,
    point_mass,
    two_point,
)
from fsdrisk.engine import (
    PsiGrid,
    RepresentationReport,
    construct_psi,
    recover_lambda,
    two_point_eval,
    verify_representation,
)
from fsdrisk.harness import ext_gap
from fsdrisk.jsonio import (
    InputError,
    _parse_atom,
    _parse_grid,
    parse_distribution_obj,
    parse_num,
    superlevel_rows,
)
from fsdrisk.kernels import (
    BenchmarkLossKernel,
    DualLambdaKernel,
    DualVarKernel,
    GridKernel,
    LambdaKernel,
    PinnedKernel,
    VarKernel,
    inf_phi_eval,
    sup_psi_eval,
)
from fsdrisk.measures import (
    affine_benchmark,
    benchmark_loss_measure,
    benchmark_loss_var,
    expected_shortfall_measure,
    lambda_quantile,
    lambda_quantile_dual,
    lambda_quantile_measure,
    pinned_measure,
    transform_measure,
    var,
    var_measure,
)
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


# -- the Λ-quantile against the merged-set scan ------------------------------

# signed zeros, the smallest subnormals and magnitudes where 1 is below an ulp
EDGE_XS = (0.0, -0.0, 5e-324, -5e-324, 1e15, -1e15)


def reference_lambda_quantile(F, lam):
    """sup{x : F(x) < lam(x)} from CDF and curve reads at every merged point.

    F - lam only rises, so the set ends at the merged point after the last
    point inside it; left of the first point F is 0 and lam its first
    value.  An atom and a breakpoint that are equal merge into the atom.
    """
    bs = sorted(set(F.xs).union(lam.breakpoints))
    best = bs[0] if lam.values[0] > 0.0 else -INF
    for i, b in enumerate(bs):
        if F.cdf(b) < lam(b):
            best = bs[i + 1] if i + 1 < len(bs) else INF
    return best


@st.composite
def adversarial_lambda_cases(draw):
    """Curves with zero pieces and 5e-324 values, on signed zeros, subnormals and +-1e15.

    Atoms land on the breakpoints and on ``EDGE_XS``, CDF levels on the
    curve values and on 5e-324.
    """
    bps = sorted(set(draw(st.lists(st.one_of(st.sampled_from(EDGE_XS), xs_), max_size=4))))
    value = st.one_of(st.sampled_from((0.0, 5e-324, 1.0)), st.floats(0.0, 1.0))
    vals = draw(st.lists(value, min_size=len(bps) + 1, max_size=len(bps) + 1))
    lam = MonotoneStep(tuple(bps), tuple(sorted(vals, reverse=True)), DEC)
    return lam, draw(edge_dists(points=lam.breakpoints + EDGE_XS, levels=lam.values + (5e-324,)))


# the curve's last breakpoint is -0.0 and F's first atom 0.0: the endpoint is that zero
ZERO_TIE = (MonotoneStep((-5e-324, -0.0), (0.74, 0.62, 5e-324), DEC),
            DiscreteDist((0.0, 0.2, 2.0), (5e-324, 0.92, 1.0)))


@given(adversarial_lambda_cases())
@example(ZERO_TIE)
@settings(max_examples=500, deadline=None)
def test_lambda_quantile_equals_the_merged_set_scan(case):
    lam, F = case
    assert repr(lambda_quantile(F, lam)) == repr(reference_lambda_quantile(F, lam))


def test_a_zero_endpoint_takes_the_sign_of_the_atom():
    lam, F = ZERO_TIE
    assert repr(lambda_quantile(F, lam)) == repr(reference_lambda_quantile(F, lam)) == "0.0"


# -- max- and min-stability on inputs placed on the measure's edges ----------

JOIN, MEET = (fsd_join, max), (fsd_meet, min)


@st.composite
def placed_pairs(draw, family):
    """A measure of ``family`` and two distributions placed on its edges.

    Var gets CDF levels at alpha.  A level curve gets atoms on its
    breakpoints and levels at its values.  A benchmark step, which maps
    levels to losses, gets levels on its breakpoints and atoms at its
    finite values.  Atoms also land on ``EDGE_XS``.
    """
    if family == "var":
        alpha = draw(open_unit)
        rho, points, levels = var_measure(alpha), (), (alpha,)
    elif family == "lambda":
        lam = draw(level_curves())
        rho, points, levels = lambda_quantile_measure(lam), lam.breakpoints, lam.values
    else:
        bps = sorted(set(draw(st.lists(open_unit, max_size=3))))
        vals = draw(st.lists(st.one_of(xs_, st.just(INF)), min_size=len(bps) + 1,
                             max_size=len(bps) + 1))
        h = MonotoneStep(tuple(bps), tuple(sorted(vals)), INC, at_one=INF)
        rho, levels = benchmark_loss_measure(h), h.breakpoints
        points = tuple(v for v in h.values if v != INF)
    dists = edge_dists(points=points + EDGE_XS, levels=levels)
    return rho, draw(dists), draw(dists)


@pytest.mark.parametrize("family, sides", [
    ("var", (JOIN, MEET)),
    ("lambda", (JOIN, MEET)),
    # max-stable only: criterion 3 shows a pair on which the meet side fails
    ("benchmark_loss", (JOIN,)),
])
@given(data=st.data())
@EXAMPLES
def test_stability_holds_exactly_on_placed_pairs(family, sides, data):
    rho, F, G = data.draw(placed_pairs(family))
    for combine, pick in sides:
        assert ext_gap(rho(combine(F, G)), pick(rho(F), rho(G))) == 0.0


# -- bisected boundaries against full scans ----------------------------------

GAPS = (0.0, 1e-10, 1e-9, 2e-9, 0.25, 0.5, 0.75, 3.0, INF)
TOLS = (0.0, 1e-9, 0.5, INF, -1.0)


def superlevel_scan(kernel, threshold, x_range, resolution):
    """Full-scan reference: every sampled level read, no monotonicity assumed."""
    lo, hi = x_range
    steps = resolution - 1
    rows = []
    for k in range(resolution):
        x = lo + (hi - lo) * k / steps
        boundary = None
        for j in range(resolution):
            if kernel.eval(x, j / steps) >= threshold:
                boundary = j / steps
        rows.append((x, boundary, boundary is not None))
    return rows


@st.composite
def steps_on(draw, points, direction, values, at_one=None):
    """A monotone step with breakpoints drawn from ``points`` or anywhere."""
    bps = sorted(set(draw(st.lists(st.one_of(st.sampled_from(points), xs_), max_size=3))))
    vals = sorted(draw(st.lists(values, min_size=len(bps) + 1, max_size=len(bps) + 1)),
                  reverse=direction == DEC)
    return MonotoneStep(tuple(bps), tuple(vals), direction, at_one)


@st.composite
def grid_kernels(draw, xs, ps):
    """A GridKernel with nodes drawn from the sampled points or anywhere."""
    xg = sorted(set(draw(st.lists(st.one_of(st.sampled_from(xs), xs_), min_size=1, max_size=5))))
    # p nodes on the sampled levels, anywhere, or a dyadic step either side
    # of a sampled level, where nearest-p snapping meets exact ties
    around = st.builds(operator.add, st.sampled_from(ps), st.sampled_from((-0.25, -0.125, 0.125, 0.25)))
    inner = draw(st.lists(st.one_of(st.sampled_from(ps), open_unit, around), max_size=4))
    pg = [0.0, *sorted({p for p in inner if 0.0 < p < 1.0}), 1.0]
    value = st.one_of(xs_, st.sampled_from((INF, -INF, 0.0, 1.0)))
    table = [sorted(draw(st.lists(value, min_size=len(pg) - 1, max_size=len(pg) - 1)),
                    reverse=True) + [-INF] for _ in xg]
    return GridKernel(tuple(xg), tuple(pg), tuple(map(tuple, table)))


@st.composite
def superlevel_cases(draw, kinds=("var", "benchmark_loss", "lambda", "pinned", "grid", "psi_grid")):
    """A kernel of each kind a kernel file can hold, or of ``kinds``, on a small sampling grid."""
    lo = draw(st.integers(-5, 4))
    x_range = (float(lo), float(draw(st.integers(lo + 1, 5))))
    resolution = draw(st.integers(2, 12))
    steps = resolution - 1
    xs = [x_range[0] + (x_range[1] - x_range[0]) * k / steps for k in range(resolution)]
    ps = [j / steps for j in range(resolution)]
    level = st.one_of(st.sampled_from(ps), st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        kernel = VarKernel(draw(st.one_of(st.sampled_from(ps[1:-1] or [0.5]), open_unit)))
    elif kind == "benchmark_loss":
        h = draw(steps_on(ps, INC, st.one_of(xs_, st.just(INF)), at_one=INF))
        kernel = BenchmarkLossKernel(h)
    elif kind == "lambda":
        kernel = LambdaKernel(draw(steps_on(xs, DEC, level)))
    elif kind == "pinned":
        g = draw(steps_on(ps, DEC, st.one_of(xs_, st.sampled_from((INF, -INF)))))
        kernel = PinnedKernel(draw(st.one_of(st.sampled_from(xs), xs_)), g)
    elif kind == "grid":
        kernel = draw(grid_kernels(xs, ps))
    else:
        kernel = draw(psi_grids())
    values = [kernel.eval(x, p) for x in xs for p in ps]
    threshold = draw(st.one_of(st.sampled_from(values), st.sampled_from((INF, -INF, 0.0, -0.0)), xs_))
    return kernel, threshold, x_range, resolution


# the grid starts right of the sampled range, and the sampled level 0.5 sits
# exactly between the p nodes 0.375 and 0.625, where snapping goes down
TIE_AXES = ((0.5, 1.5), (0.0, 0.375, 0.625, 1.0), ((2.0, 1.0, 0.0, -INF), (INF, 2.0, 1.0, -INF)))
TIE_GRID = GridKernel(*TIE_AXES)


@given(superlevel_cases())
@example((TIE_GRID, 1.0, (-2.0, 2.0), 5))
@example((TIE_GRID, -INF, (-2.0, 2.0), 5))
@example((TIE_GRID, INF, (-2.0, 2.0), 5))
@example((PsiGrid(*TIE_AXES), 2.0, (-2.0, 2.0), 5))
@settings(max_examples=500, deadline=None)
def test_superlevel_bisection_equals_a_full_scan(case):
    kernel, threshold, x_range, resolution = case
    want = superlevel_scan(kernel, threshold, x_range, resolution)
    assert repr(superlevel_rows(kernel, threshold, x_range, resolution)) == repr(want)


def superlevel_probe_cut(kernel, threshold, x_range, resolution):
    """A grid's rows by a bisection over the sampled columns that reads a cell per probe."""
    lo, hi = x_range
    steps = resolution - 1
    ps = [j / steps for j in range(resolution)]
    cols = [kernel.nearest_p_index(p) for p in ps]
    by_x = ((-INF,) * len(kernel.p_grid), *kernel.table)
    rows = []
    for k in range(resolution):
        x = lo + (hi - lo) * k / steps
        row = by_x[bisect_right(kernel.x_grid, x)]
        cut = bisect_left(cols, True, key=lambda j: not row[j] >= threshold)
        boundary = ps[cut - 1] if cut else None
        rows.append((x, boundary, boundary is not None))
    return rows


@given(superlevel_cases(("grid", "psi_grid")))
# zeros of both signs in the row and as the threshold
@example((GridKernel((0.0,), (0.0, 0.5, 1.0), ((0.0, -0.0, -INF),)), -0.0, (-1.0, 1.0), 5))
@example((GridKernel((0.0,), (0.0, 0.5, 1.0), ((-0.0, -0.0, -INF),)), 0.0, (-1.0, 1.0), 5))
@example((GridKernel((0.0,), (0.0, 0.5, 1.0), ((INF, INF, -INF),)), INF, (-1.0, 1.0), 3))
@example((GridKernel((0.0,), (0.0, 0.5, 1.0), ((-INF, -INF, -INF),)), -INF, (-1.0, 1.0), 3))
@settings(max_examples=400, deadline=None)
def test_superlevel_grid_cut_equals_a_bisection_per_cell(case):
    assert repr(superlevel_rows(*case)) == repr(superlevel_probe_cut(*case))


@st.composite
def psi_grids(draw):
    """A PsiGrid whose rows step down from their p = 0 value by gaps around the tolerances."""
    n_x = draw(st.integers(1, 5))
    xg = sorted(set(draw(st.lists(xs_, min_size=n_x, max_size=n_x))))
    refs = st.one_of(xs_, st.sampled_from((INF, -INF)))
    col0 = sorted(draw(st.lists(refs, min_size=len(xg), max_size=len(xg), unique=True)))
    pg = [0.0, *sorted(set(draw(st.lists(open_unit, max_size=6)))), 1.0]
    table = []
    for ref in col0:
        gaps = sorted(draw(st.lists(st.sampled_from(GAPS), min_size=len(pg) - 2,
                                    max_size=len(pg) - 2)))
        # inf - inf is the one NaN a gap can make: the row has fallen off already
        row = [ref, *(-INF if math.isnan(ref - g) else ref - g for g in gaps), -INF]
        table.append(tuple(row))
    return PsiGrid(tuple(xg), tuple(pg), tuple(table))


@given(psi_grids(), st.sampled_from(TOLS))
@settings(max_examples=500, deadline=None)
def test_recovered_curve_equals_a_full_scan(psi, tol):
    if not 0.0 <= tol < INF:
        # a negative or infinite tolerance is refused, as in the axiom checks
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            recover_lambda(lambda F: 0.0, psi, probes=[], tol=tol)
        return
    want = []
    for row in psi.table:
        best = psi.p_grid[0]
        for p, v in zip(psi.p_grid, row):
            if ext_gap(v, row[0]) <= tol:
                best = p
        want.append(best)
    got = recover_lambda(lambda F: 0.0, psi, probes=[], tol=tol).lam_hat
    assert repr(got) == repr(tuple(want))


def curve_by_predicate_bisection(psi, tol):
    """The curve estimate by a bisection that calls the exact test at each probe."""
    return tuple(psi.p_grid[bisect_left(row, True, key=lambda v: not ext_gap(v, row[0]) <= tol) - 1]
                 for row in psi.table)


@given(psi_grids(), st.sampled_from((0.0, 1e-9, 0.5)))
# v >= row[0] - tol and row[0] - v <= tol part by one rounding, either way
@example(PsiGrid((0.0,), (0.0, 0.5, 1.0), ((0.7, 0.1999999999999999, -INF),)), 0.5)
@example(PsiGrid((0.0,), (0.0, 0.5, 1.0), ((2.5, 2.499999999, -INF),)), 1e-9)
# rows that start infinite: their run of equal values is the estimate
@example(PsiGrid((0.0, 1.0), (0.0, 0.25, 0.5, 1.0),
                 ((-INF, -INF, -INF, -INF), (INF, INF, 3.0, -INF))), 0.5)
@settings(max_examples=500, deadline=None)
def test_curve_estimate_equals_the_predicate_bisection(psi, tol):
    got = recover_lambda(lambda F: 0.0, psi, probes=[], tol=tol).lam_hat
    assert [p.hex() for p in got] == [p.hex() for p in curve_by_predicate_bisection(psi, tol)]


def representation_scan(rho, psi, dists, tol):
    """The report of a scan over every grid node, read at F(x-), for each probe."""
    max_error, worst, failures = 0.0, None, []
    for idx, F in enumerate(dists):
        direct = rho(F)
        recovered = -INF
        for i, x in enumerate(psi.x_grid):
            v = psi.table[i][psi.nearest_p_index(F.cdf_left_limit(x))]
            if v > recovered:
                recovered = v
        err = ext_gap(direct, recovered)
        if err > max_error:
            max_error, worst = err, idx
        if err > tol:
            failures.append((idx, direct, recovered, err))
    return RepresentationReport(len(dists), tol, max_error, worst, tuple(failures))


@st.composite
def grid_snapped_dists(draw, psi):
    """Atoms on x nodes; inner levels on p nodes or up to one p spacing off them."""
    spacing = max(b - a for a, b in zip(psi.p_grid, psi.p_grid[1:]))
    off = st.one_of(st.sampled_from((0.0, -1.0, -0.5, 0.5, 1.0)), st.floats(-1.0, 1.0))
    near = st.builds(lambda p, t: p + t * spacing, st.sampled_from(psi.p_grid), off)
    inner = sorted({c for c in draw(st.lists(near, max_size=4)) if 0.0 < c < 1.0})
    inner = inner[: len(psi.x_grid) - 1]
    n = len(inner) + 1
    xs = sorted(draw(st.lists(st.sampled_from(psi.x_grid), min_size=n, max_size=n, unique=True)))
    return DiscreteDist(xs, inner + [1.0])


# measures that agree with a grid at some nodes and miss it at others
PROBE_MEASURES = (
    lambda F: F.xs[0],
    lambda F: F.xs[-1],
    lambda F: F.left_quantile(0.5),
    lambda F: 0.0,
    lambda F: -INF,
    lambda F: INF,
)


@st.composite
def representation_cases(draw):
    psi = draw(psi_grids())
    dists = draw(st.lists(grid_snapped_dists(psi), max_size=4))
    return draw(st.sampled_from(PROBE_MEASURES)), psi, dists, draw(st.sampled_from((0.0, 1e-9, 0.5, 3.0)))


@given(representation_cases())
@settings(max_examples=300, deadline=None)
def test_verify_representation_equals_a_node_scan(case):
    rho, psi, dists, tol = case
    want = representation_scan(rho, psi, dists, tol)
    assert repr(verify_representation(rho, psi, dists, tol)) == repr(want)


def cross_check_scan(rho, psi, rec, probes):
    """The cross-check errors with one ``cdf_left_limit`` read per node and probe."""
    xg = psi.x_grid
    sub_x = xg[0] - (xg[1] - xg[0]) if len(xg) > 1 else xg[0] - 1.0
    sub_f = rho(point_mass(sub_x))
    errors = []
    for F in probes:
        rebuilt = sub_f if F.cdf(sub_x) < rec.lam_hat[0] else -INF
        for x, f_val, lam_val in zip(xg, rec.f_hat, rec.lam_hat):
            if F.cdf_left_limit(x) < lam_val and f_val > rebuilt:
                rebuilt = f_val
        errors.append(ext_gap(rho(F), rebuilt))
    return tuple(errors)


@st.composite
def node_probes(draw, psi):
    """Atoms on nodes, between nodes and either side of the grid; levels on p nodes or anywhere."""
    xg = psi.x_grid
    mids = [0.5 * (a + b) for a, b in zip(xg, xg[1:])]
    point = st.one_of(st.sampled_from(xg), st.sampled_from(mids or xg), xs_,
                      st.floats(xg[0] - 3.0, xg[0], exclude_max=True),
                      st.floats(xg[-1], xg[-1] + 3.0, exclude_min=True))
    xs = sorted(set(draw(st.lists(point, min_size=1, max_size=5))))
    level = st.one_of(st.sampled_from(psi.p_grid), open_unit)
    inner = sorted(draw(st.lists(level, min_size=len(xs) - 1, max_size=len(xs) - 1)))
    return DiscreteDist.from_levels(xs, inner + [1.0])


# point-mass values rising, flat, infinite, or NaN right of 0, so that the
# first of unordered values has to win as in the node loop
CROSS_MEASURES = PROBE_MEASURES + (lambda F: math.nan if F.xs[0] > 0.0 else F.xs[0],
                                   lambda F: -F.xs[-1])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_cross_check_equals_a_left_limit_scan(data):
    # psi_grids' rows step down by gaps around the tolerances, so the curve
    # estimate rises and lam_violations is non-empty on many of them
    psi = data.draw(psi_grids())
    rho = data.draw(st.sampled_from(CROSS_MEASURES))
    probes = data.draw(st.lists(node_probes(psi), max_size=4))
    rec = recover_lambda(rho, psi, probes=probes, tol=data.draw(st.sampled_from((0.0, 1e-9, 0.5))))
    assert repr(rec.cross_errors) == repr(cross_check_scan(rho, psi, rec, probes))


# -- the one-pass grid reader against the per-entry route --------------------


def per_entry_grid_read(obj, cls):
    """Each grid entry through ``parse_num``, each row checked to be a list, then ``cls``."""
    def nums(values, where):
        return tuple(parse_num(v, f"{where}[{j}]") for j, v in enumerate(values))

    xg, pg = nums(obj["x_grid"], "x_grid"), nums(obj["p_grid"], "p_grid")
    table = []
    for i, row in enumerate(obj["table"]):
        if not isinstance(row, list):
            raise InputError("BAD_SCHEMA", f"table[{i}] must be a list")
        table.append(nums(row, f"table[{i}]"))
    try:
        return cls(xg, pg, tuple(table))
    except ValueError as exc:
        raise InputError("BAD_SCHEMA", f"kernel grid: {exc}") from None


def grid_outcome(read, obj, cls):
    """The type and bits of the grid ``read`` builds, or its error's code and message."""
    try:
        g = read(obj, cls)
    except InputError as exc:
        return "InputError", exc.code, exc.message
    return type(g).__name__, [[v.hex() for v in vs] for vs in (g.x_grid, g.p_grid, *g.table)]


# entries a grid file may hold in place of a float: ints, bools, NaN in both
# spellings, other spellings of infinity, junk and unhashable values
ODD_CELLS = (0, 1, -3, 10**400, True, False, math.nan, "nan", "NaN", "Inf", " -inf", "+inf",
             None, "1.0", [1.0], {"a": 1.0})
# rows that are not lists; the dict and tuple ones iterate as plain floats
ODD_ROWS = ("row", None, 5, {"a": 1.0}, {0.0: 1.0, 1.0: -INF}, (0.0, -INF))


@st.composite
def grid_objs(draw):
    """A grid object, infinities as floats or sentinels, at times with odd entries and rows.

    Unchanged, the p = 0 column rises, so a PsiGrid takes it too.  The
    changes put odd entries anywhere, swap rows for non-lists, make a row
    ragged or make it rise along p; several may land in one grid, so the
    first bad entry has to be the one named.
    """
    n_x = draw(st.integers(1, 4))
    xg = sorted(draw(st.lists(xs_, min_size=n_x, max_size=n_x, unique=True)))
    pg = [0.0, *sorted(set(draw(st.lists(open_unit, max_size=3)))), 1.0]
    col0 = sorted(draw(st.lists(xs_, min_size=n_x, max_size=n_x, unique=True)))
    value = st.one_of(xs_, st.sampled_from((INF, -INF)))
    table = []
    for c in col0:
        rest = draw(st.lists(value, min_size=len(pg) - 2, max_size=len(pg) - 2))
        table.append([c, *sorted((min(v, c) for v in rest), reverse=True), -INF])
    spell = {INF: st.sampled_from((INF, "inf")), -INF: st.sampled_from((-INF, "-inf"))}
    lists = [xg, pg, *table]
    lists = [[draw(spell[v]) if v in spell else v for v in vs] for vs in lists]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        k = draw(st.integers(0, len(lists) - 1))
        move = draw(st.sampled_from(("cell", "cell", "row", "ragged", "rise")))
        if move == "row" and k >= 2:
            lists[k] = draw(st.sampled_from(ODD_ROWS))
        elif isinstance(lists[k], list) and lists[k]:
            j = draw(st.integers(0, len(lists[k]) - 1))
            if move == "ragged":
                lists[k] = lists[k][:j] + lists[k][j + 1:] if draw(st.booleans()) else lists[k] + [-INF]
            elif move == "rise" and j + 1 < len(lists[k]):
                lists[k][j], lists[k][j + 1] = lists[k][j + 1], lists[k][j]
            else:
                lists[k][j] = draw(st.sampled_from(ODD_CELLS))
    return {"x_grid": lists[0], "p_grid": lists[1], "table": lists[2:]}


@given(grid_objs(), st.sampled_from((GridKernel, PsiGrid)))
# a NaN before later junk: the NaN is named, with its own code
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 1.0], "table": [[math.nan, "-inf"], [1.0, [2.0]]]},
         GridKernel)
@example({"x_grid": [math.nan, 1.0], "p_grid": [0.0, 1.0], "table": [[0.0, "-inf"], "row"]}, PsiGrid)
@example({"x_grid": [0.0], "p_grid": [0.0, math.nan, 1.0], "table": [[1.0, 0.0, "-inf"]]}, GridKernel)
# a row that iterates as floats but is no list
@example({"x_grid": [0.0], "p_grid": [0.0, 1.0], "table": [(1.0, -INF)]}, GridKernel)
@example({"x_grid": [0, 1], "p_grid": [0, 1], "table": [[0, "-inf"], [1, "-inf"]]}, PsiGrid)
# a live head of one cell, a NaN, which no comparison with a neighbour finds
@example({"x_grid": [0.0], "p_grid": [0.0, 1.0], "table": [[math.nan, "-inf"]]}, GridKernel)
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.5, 1.0],
          "table": [[1.0, 0.5, "-inf"], [math.nan, "-inf", "-inf"]]}, PsiGrid)
# an axis int past the float range, refused before any axis check
@example({"x_grid": [0.0, 10**400], "p_grid": [0.0, 1.0], "table": [[0.0, "-inf"], [1.0, "-inf"]]},
         GridKernel)
@example({"x_grid": [0.0], "p_grid": [0.0, 10**400, 1.0], "table": [[1.0, 0.0, "-inf"]]}, PsiGrid)
# "-inf" mid-row before a live float: the row rises
@example({"x_grid": [0.0], "p_grid": [0.0, 0.25, 0.5, 1.0], "table": [[2.0, "-inf", 1.0, "-inf"]]},
         GridKernel)
# an all-dead row, first and later; two of them tie at p = 0 for a PsiGrid
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.5, 1.0],
          "table": [["-inf", "-inf", "-inf"], [1.0, 0.0, "-inf"]]}, PsiGrid)
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.5, 1.0],
          "table": [["-inf", "-inf", "-inf"], ["-inf", "-inf", "-inf"]]}, PsiGrid)
# a tail that mixes -Infinity floats with "-inf", in either order
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.25, 0.5, 1.0],
          "table": [[1.0, -INF, "-inf", "-inf"], [2.0, "-inf", -INF, "-inf"]]}, GridKernel)
# another spelling of -inf in the tail
@example({"x_grid": [0.0], "p_grid": [0.0, 0.5, 1.0], "table": [[1.0, " -inf", "-inf"]]}, GridKernel)
# rows with no dead cell: -Infinity at p = 1, then a finite p = 1 cell
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.5, 1.0],
          "table": [[1.0, 0.5, -INF], [2.0, 1.0, -INF]]}, PsiGrid)
@example({"x_grid": [0.0], "p_grid": [0.0, 0.5, 1.0], "table": [[1.0, 0.5, 0.25]]}, GridKernel)
# a leading "inf", a live cell the type bisection counts as dead
@example({"x_grid": [0.0, 1.0], "p_grid": [0.0, 0.5, 1.0],
          "table": [[1.0, 0.5, "-inf"], ["inf", 1.0, "-inf"]]}, PsiGrid)
@settings(max_examples=400, deadline=None)
def test_one_pass_grid_read_equals_the_per_entry_route(obj, cls):
    assert grid_outcome(_parse_grid, obj, cls) == grid_outcome(per_entry_grid_read, obj, cls)


# -- the lattice against a pointwise reference -------------------------------

# level moves around 1e-15, about nine ulps of 1: gains at, just under and
# just over it, and ones clearly inside and outside it
TINY = 1e-15
NUDGES = (0.0, 5e-17, TINY / 2, math.nextafter(TINY, 0.0), TINY,
          math.nextafter(TINY, 1.0), 2 * TINY, 1e-12)


@st.composite
def lattice_pairs(draw):
    """Two distributions on one pool of points, with levels near shared anchors.

    The pool sits around 0 (with both zeros) or around +-1e15, one to a few
    ulps apart there.  Each level is a shared anchor, 1.0 included, moved by
    one of ``NUDGES`` either way, so gains and CDF gaps land near 1e-15.
    """
    base, step = draw(st.sampled_from(((0.0, 1.0), (1e15, 0.125), (-1e15, 0.125))))
    offsets = st.integers(-4, 4).map(lambda k: base + k * step)
    point = st.one_of(offsets, st.just(-0.0), xs_) if base == 0.0 else offsets
    pool = sorted(set(draw(st.lists(point, min_size=1, max_size=8))))
    anchors = [1.0, *draw(st.lists(open_unit, min_size=1, max_size=3))]

    def side():
        moved = set()
        for a in draw(st.lists(st.sampled_from(anchors), max_size=6)):
            c = a + draw(st.sampled_from((-1.0, 1.0))) * draw(st.sampled_from(NUDGES))
            if 0.0 < c < 1.0:
                moved.add(c)
        levels = sorted(moved)[: len(pool) - 1] + [1.0]
        xs = sorted(draw(st.permutations(pool))[: len(levels)])
        return DiscreteDist(tuple(xs), tuple(levels))

    return side(), side()


def merged_points(f, g):
    """The sorted support union; a zero the two hold with opposite signs reads 0.0."""
    zeros = {repr(x) for x in (*f.xs, *g.xs) if x == 0.0}
    return [0.0 if x == 0.0 and len(zeros) > 1 else x for x in sorted(set(f.xs).union(g.xs))]


def reference_lattice(f, g, pick):
    """Join (pick=min) or meet (pick=max) from CDF reads at every merged point."""
    points = merged_points(f, g)
    return DiscreteDist.from_levels(points, [pick(f.cdf(b), g.cdf(b)) for b in points])


def exact(d):
    return repr((d.xs, d.cum))


HALF_UP = math.nextafter(0.5, 1.0)
# a zero the two hold with opposite signs, and levels one ulp apart there
LATTICE_EXAMPLES = (
    (DiscreteDist((-0.0, 1.0), (0.5, 1.0)), DiscreteDist((0.0, 1.0), (0.5, 1.0))),
    (DiscreteDist((0.0, 1.0), (0.5, 1.0)), DiscreteDist((0.0, 1.0), (HALF_UP, 1.0))),
    (DiscreteDist((-0.0, 2.0), (HALF_UP, 1.0)), DiscreteDist((0.0, 1.0), (0.5, 1.0))),
    (DiscreteDist((-1.0, 0.0), (0.5, 1.0)), DiscreteDist((-1.0, -0.0), (HALF_UP, 1.0))),
)


def with_lattice_examples(test):
    for pair in LATTICE_EXAMPLES:
        test = example(pair)(test)
    return test


@given(lattice_pairs())
@with_lattice_examples
@settings(max_examples=300, deadline=None)
def test_lattice_merge_equals_the_pointwise_reference(pair):
    f, g = pair
    for op, pick in ((fsd_join, min), (fsd_meet, max)):
        got = op(f, g)
        assert exact(got) == exact(reference_lattice(f, g, pick))
        assert DiscreteDist(got.xs, got.cum) == got
    want_leq = all(f.cdf(b) >= g.cdf(b) for b in merged_points(f, g))
    assert fsd_leq(f, g) == want_leq


@given(lattice_pairs())
@with_lattice_examples
@settings(max_examples=300, deadline=None)
def test_leq_equals_the_pointwise_reference(pair):
    # both CDFs are steps on their supports, so reading them at every
    # support point reads them everywhere
    f, g = pair
    points = set(f.xs).union(g.xs)
    assert fsd_leq(f, g) == all(f.cdf(x) >= g.cdf(x) for x in points)
    assert fsd_leq(g, f) == all(g.cdf(x) >= f.cdf(x) for x in points)


@given(lattice_pairs())
@settings(max_examples=300, deadline=None)
def test_lattice_laws_near_the_drop_tolerance(pair):
    f, g = pair
    j, m = fsd_join(f, g), fsd_meet(f, g)
    assert exact(fsd_join(g, f)) == exact(j) and exact(fsd_meet(g, f)) == exact(m)
    # join and meet keep every strict rise, however small, so idempotence
    # and absorption hold bit for bit and both bounds are exact
    # (f = DiscreteDist((0.0, 1.0), (1 - 5e-16, 1.0)) against point_mass(0.0)
    # is a pair on which dropping the last gain put f v g below f)
    assert exact(fsd_join(f, f)) == exact(f) == exact(fsd_meet(f, f))
    for outer, inner in ((fsd_join, m), (fsd_meet, j)):
        assert exact(outer(f, inner)) == exact(f)
    assert fsd_leq(f, j) and fsd_leq(g, j)
    assert fsd_leq(m, f) and fsd_leq(m, g)


def test_a_last_gain_of_a_few_ulps_is_kept():
    f = DiscreteDist((0.0, 1.0), (1 - 5e-16, 1.0))
    g = point_mass(0.0)
    assert exact(fsd_join(f, g)) == exact(f) == exact(fsd_join(f, f))
    assert fsd_leq(f, fsd_join(f, g)) and fsd_leq(g, fsd_join(f, g))


# -- the one-pass atom reader against the per-atom route ---------------------


def mass_sum_error(masses):
    """The MASS_SUM message for masses whose own sum is out of band, else None."""
    total = math.fsum(masses)
    if abs(total - 1.0) > MASS_TOL:
        return f"atom masses sum to {total!r}, need 1 within {MASS_TOL}"
    return None


def per_atom_read(raw):
    """Each atom checked on its own, then the input's own mass sum, then ``from_atoms``."""
    atoms = [_parse_atom(i, entry) for i, entry in enumerate(raw)]
    message = mass_sum_error(p for _, p in atoms)
    if message is not None:
        raise InputError("MASS_SUM", message)
    return DiscreteDist.from_atoms(atoms)


def read_outcome(read, raw):
    """The bits of the distribution ``read`` builds, or its error's code and message."""
    try:
        d = read(raw)
    except InputError as exc:
        return "InputError", exc.code, exc.message
    except ValueError as exc:
        return "ValueError", str(exc)
    return [x.hex() for x in d.xs], [c.hex() for c in d.cum]


ATOM_POINTS = (-0.0, 0.0, 1.0, -2.5, 1e15)
ODD_X = (1, 0, -3, True, False, None, "inf", "-inf", "nan", "1.0", math.nan, INF)
ODD_P = (0, 1, 0.0, 1.5, -0.25, True, None, "inf", "-inf", math.nan, 5e-324)
JUNK = ([0.0, 1.0], "atom", {"x": 0.0}, {"p": 1.0}, None)
# relative moves of the total mass, in and just out of the MASS_SUM band
SUM_MOVES = (0.0, -2e-12, -1.1e-12, -1e-12, -9e-13, 9e-13, 1e-12, 1.1e-12, 2e-12)


@st.composite
def atom_lists(draw):
    """An atom list with repeated points, at times odd values and junk entries."""
    n = draw(st.integers(1, 8))
    xs = draw(st.lists(st.one_of(st.sampled_from(ATOM_POINTS), xs_), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    scale = (1.0 + draw(st.sampled_from(SUM_MOVES))) / math.fsum(weights)
    raw = [{"x": x, "p": w * scale} for x, w in zip(xs, weights)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        i = draw(st.integers(0, n - 1))
        key = draw(st.sampled_from(("x", "p")))
        raw[i] = {**raw[i], key: draw(st.sampled_from(ODD_X if key == "x" else ODD_P))}
    if draw(st.integers(0, 3)) == 0:
        # after at least one valid atom, so the reported index is checked
        raw.insert(draw(st.integers(1, n)), draw(st.sampled_from(JUNK)))
    return raw


@given(atom_lists())
@example([{"x": -0.0, "p": 0.5}, {"x": 0.0, "p": 0.25}, {"x": 1.0, "p": 0.25}])
@example([{"x": 0.0, "p": 0.5}, {"x": -0.0, "p": 0.5}])
@example([{"x": 1, "p": 0.25}, {"x": 1.0, "p": 0.25}, {"x": 2.0, "p": 0.5}])
@example([{"x": 0.0, "p": 0.5}, {"x": 1.0, "p": 0.5}, [2.0, 0.5]])
# the input's sum is just outside the band and the merged one inside it,
# then the reverse
@example([{"x": 0.0, "p": 0.5703623392490841}, {"x": 0.0, "p": 0.1806549452551956},
          {"x": 1.0, "p": 0.24898271549472029}])
@example([{"x": 0.0, "p": 0.5507295311759609}, {"x": 0.0, "p": 0.11491506018575802},
          {"x": 1.0, "p": 0.33435540863928104}])
@settings(max_examples=400, deadline=None)
def test_one_pass_atom_read_equals_the_per_atom_route(raw):
    got = read_outcome(lambda r: parse_distribution_obj({"atoms": r}), raw)
    assert got == read_outcome(per_atom_read, raw)


@st.composite
def repeat_runs(draw):
    """A run of up to 3,000 copies of one atom among a few others, shuffled.

    The masses are scaled so their sum moves by one of ``SUM_MOVES``; a
    running sum over the run drifts by more than the band.
    """
    w = draw(st.floats(1e-3, 1.0))
    pairs = [(draw(st.sampled_from(ATOM_POINTS)), w)] * draw(st.integers(2, 3000))
    pairs += draw(st.lists(st.tuples(st.sampled_from(ATOM_POINTS), st.floats(1e-3, 1.0)), max_size=4))
    scale = (1.0 + draw(st.sampled_from(SUM_MOVES))) / math.fsum(p for _, p in pairs)
    pairs = [(x, p * scale) for x, p in pairs]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    return pairs


@given(repeat_runs())
@example([(0.0, 0.5507295311759609), (0.0, 0.11491506018575802), (1.0, 0.33435540863928104)])
@example([(0.0, 1e-5)] * 100_000)
@settings(max_examples=100, deadline=None)
def test_an_atom_list_builds_exactly_when_its_own_sum_is_in_band(pairs):
    message = mass_sum_error(p for _, p in pairs)
    raw = [{"x": x, "p": p} for x, p in pairs]
    if message is None:
        assert exact(parse_distribution_obj({"atoms": raw})) == exact(DiscreteDist.from_atoms(pairs))
        return
    with pytest.raises(InputError) as e:
        parse_distribution_obj({"atoms": raw})
    assert (e.value.code, e.value.message) == ("MASS_SUM", message)
    with pytest.raises(ValueError) as e:
        DiscreteDist.from_atoms(pairs)
    assert str(e.value) == message


def rising_tail(merged):
    """``_from_merged`` with every level through ``_rising``'s loop."""
    xs = sorted(merged)
    ps = [merged[x] for x in xs]
    total = math.fsum(ps)
    levels = [acc / total for acc in accumulate(ps)]
    levels[-1] = 1.0
    end = bisect_left(levels, 1.0) + 1
    levels[end - 1] = 1.0
    return _rising(zip(xs[:end], levels[:end]))


@given(st.dictionaries(xs_, st.one_of(st.floats(1e-3, 1.0), st.sampled_from((5e-324, 1e-17))),
                       min_size=1, max_size=8))
# the level stalls below 1.0, then the sum reaches 1.0 before the last atom
@example({0.0: 0.5, 1.0: 5e-324, 2.0: 0.5})
@example({0.0: 1.0 - 2**-53, 1.0: 1e-17, 2.0: 2**-53})
@settings(max_examples=300, deadline=None)
def test_from_merged_equals_the_rising_loop(weights):
    total = math.fsum(weights.values())
    merged = {x: w / total for x, w in weights.items()}
    assert exact(_from_merged(merged)) == exact(rising_tail(merged))


# -- the one-anchor kernel table against the descending-anchor scan ----------


def descending_anchor_table(rho, xg, pg):
    """The table at the largest qualifying anchor, found by walking down.

    The anchors are the x-grid plus one node below it.  Each row starts at
    the anchor just below its y and carries the anchor index across p,
    moving it down until the mixture strictly exceeds that anchor's
    point-mass value, -inf once no anchor is left.
    """
    anchors = (xg[0] - (xg[1] - xg[0]),) + tuple(xg)
    base = [rho(point_mass(a)) for a in anchors]
    rows = []
    for i, y in enumerate(xg):
        k, row = i, []
        for p in pg:
            while k >= 0:
                v = rho(two_point(anchors[k], y, p))
                if v > base[k]:
                    break
                k -= 1
            row.append(v if k >= 0 else -INF)
        rows.append(tuple(row))
    return tuple(rows)


# increasing on the transform's probe grid, monotone in floats everywhere
TRANSFORMS = (lambda t: 0.5 * t - 3.0, lambda t: t * abs(t) + t)


@st.composite
def table_cases(draw):
    """A max-stable measure on a small grid near 0 or +-1e15.

    Curve breakpoints and levels are drawn from the grids or anywhere, so
    mixtures land on curve jumps and on the var level.
    """
    center = draw(st.sampled_from((0.0, 1e15, -1e15)))
    near = st.one_of(st.floats(center - 8.0, center + 8.0),
                     st.integers(-64, 64).map(lambda k: center + k / 8))
    xg = sorted(draw(st.lists(near, min_size=2, max_size=5, unique=True)))
    pg = [0.0, *sorted(set(draw(st.lists(open_unit, max_size=5)))), 1.0]
    kind = draw(st.sampled_from(["var", "lambda", "benchmark_loss"]))
    if kind == "var":
        rho = var_measure(draw(st.one_of(st.sampled_from(pg[1:-1] or [0.5]), open_unit)))
    elif kind == "lambda":
        level = st.one_of(st.sampled_from(pg), st.floats(0.0, 1.0))
        rho = lambda_quantile_measure(draw(steps_on(xg, DEC, level)))
    else:
        # breakpoints inside (0, 1) and a finite value at p = 0, so the
        # point masses stay apart
        bps = sorted(set(draw(st.lists(st.one_of(st.sampled_from(pg[1:-1] or [0.5]), open_unit),
                                       max_size=3))))
        vals = [draw(xs_), *draw(st.lists(st.one_of(xs_, st.just(INF)), min_size=len(bps),
                                          max_size=len(bps)))]
        rho = benchmark_loss_measure(MonotoneStep(tuple(bps), tuple(sorted(vals)), INC, at_one=INF))
    if draw(st.booleans()):
        rho = transform_measure(rho, draw(st.sampled_from(TRANSFORMS)))
    return rho, xg, pg


@given(table_cases())
@settings(max_examples=400, deadline=None)
def test_one_anchor_table_equals_the_descending_anchor_scan(case):
    rho, xg, pg = case
    want = descending_anchor_table(rho, xg, pg)
    try:
        got = construct_psi(rho, xg, pg, stability_trials=0).table
    except ValueError as exc:
        # a measure that ties two grid point masses is refused; the
        # scan's p = 0 column then holds the same tie
        assert "separate point masses" in str(exc)
        col0 = [row[0] for row in want]
        assert any(map(operator.ge, col0, col0[1:]))
    else:
        assert repr(got) == repr(want)


def full_scan_table(rho, xg, pg):
    """One measure call per node at the one anchor below the grid."""
    a = xg[0] - (xg[1] - xg[0])
    base = rho(point_mass(a))
    return tuple(
        tuple(v if v > base else -INF for v in (rho(two_point(a, y, p)) for p in pg))
        for y in xg
    )


def cut_at_first_dead(table):
    """Each row kept up to its first -inf node and -inf after it."""
    rows = []
    for row in table:
        k = row.index(-INF) if -INF in row else len(row)
        rows.append(row[:k] + (-INF,) * (len(row) - k))
    return tuple(rows)


def lookup_measure(xg, pg, rows, base):
    """The measure reading ``rows[i][j]`` at node (xg[i], pg[j]) and ``base`` at the anchor."""
    a = xg[0] - (xg[1] - xg[0])
    key = lambda F: (F.xs, F.cum)
    cells = {key(two_point(a, y, p)): v for y, row in zip(xg, rows) for p, v in zip(pg, row)}
    # every row's p = 1 node is the anchor's point mass
    cells[key(point_mass(a))] = base
    return lambda F: cells[key(F)]


P11 = [k / 10 for k in range(10)] + [1.0]


def rising_case(row):
    """A case whose lookup measure reads ``row`` along its first row; not max-stable."""
    return lookup_measure([0.0, 1.0], P11, [row, [6.0] + [-2.0] * 10], -2.0), [0.0, 1.0], P11, False


@st.composite
def monotone_cases(draw):
    """A table case, or expected shortfall on the same kind of grid.

    The last field says whether the measure is max-stable.
    """
    rho, xg, pg = draw(table_cases())
    if draw(st.booleans()):
        alpha = draw(st.one_of(st.sampled_from(pg[1:-1] or [0.5]), open_unit))
        return expected_shortfall_measure(alpha), xg, pg, False
    return rho, xg, pg, True


def assert_scan_or_run_or_cut(got_row, scan_row):
    """Each cell is the scan's, or -inf after a node where both read -inf,
    or inside a run: the nearest nodes on either side that match the scan
    hold the cell's value."""
    same = [repr(g) == repr(w) for g, w in zip(got_row, scan_row)]
    for j, g in enumerate(got_row):
        if same[j] or (g == -INF and any(s and v == -INF for s, v in zip(same[:j], got_row))):
            continue
        left = [repr(v) for s, v in zip(same[:j], got_row) if s]
        right = [repr(v) for s, v in zip(same[j + 1:], got_row[j + 1:]) if s]
        assert left and right and left[-1] == right[0] == repr(g), (j, got_row, scan_row)


@given(monotone_cases())
# expected shortfall near -1e15 rises along both rows by an ulp at node 3,
# inside a run whose ends the walk reads as equal, so it never reads node 3
@example((expected_shortfall_measure(0.03125), [-1000000000000008.0, -1000000000000007.8],
          [0.0, 0.03125, 0.0625, 0.1015625, 0.25, 1.0], False))
# a row that rises between two nodes the walk places one by one
@example(rising_case([5.0, 4.0, 4.5, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, -2.0]))
# a row that rises at the node just after a run the walk skips
@example(rising_case([5.0, 4.0, 4.0, 4.0, 4.0, 4.5, 3.0, 3.0, 3.0, 3.0, -2.0]))
@settings(max_examples=400, deadline=None)
def test_row_cutoff_equals_the_full_scan(case):
    # rows fall along p for any measure monotone in the dominance order,
    # so the nodes after a row's first dead one are dead too, and a run
    # between two equal nodes holds their value.  Expected shortfall is
    # monotone but its float arithmetic near 1e15 can rise along a row by
    # an ulp; the full scan's table is then refused as not decreasing if
    # the walk reads the rise, and otherwise each cell of such a row is
    # the scan's, -inf past a dead node or the value of the run it is in
    rho, xg, pg, max_stable = case
    want = full_scan_table(rho, xg, pg)
    falls = [all(map(operator.ge, row, row[1:])) for row in want]
    assert all(falls) or not max_stable
    try:
        g = construct_psi(rho, xg, pg, stability_trials=0)
    except ValueError as exc:
        col0 = [row[0] for row in want]
        if "separate point masses" in str(exc):
            assert any(map(operator.ge, col0, col0[1:]))
        else:
            assert "decreasing along p" in str(exc) and not all(falls)
    else:
        # the walk skips the public re-check; the public constructor takes
        # its grid unchanged, so a rise the walk placed fails here
        assert PsiGrid(g.x_grid, g.p_grid, g.table) == g
        got = g.table
        for got_row, want_row, row_falls in zip(got, want, falls):
            if row_falls:
                assert repr(got_row) == repr(want_row)
            else:
                assert_scan_or_run_or_cut(got_row, want_row)


# -- skipping runs of equal values along a row against the full scan --------


# live values falling in blocks of one float each: ties that are not the
# same float, 0.0 and -0.0, sit side by side
BLOCK_VALUES = (4.0, 2.5, 1.0, 0.0, -0.0, -5e-324, -1.0)
DEAD_VALUES = (-2.0, -3.0, -INF)  # at or below the base, -2.0


@st.composite
def lookup_cases(draw):
    """A lookup measure on up to 60 p nodes whose rows fall with runs.

    Each row holds live blocks of one float each: long runs, runs of one
    node, and runs up to the node before p = 1, and then dead values.
    The p = 0 column rises, so the point masses stay apart.
    """
    xg = [float(k) for k in range(draw(st.integers(2, 4)))]
    pg = [0.0, *sorted(set(draw(st.lists(open_unit, min_size=1, max_size=60)))), 1.0]
    rows = []
    for i in range(len(xg)):
        values = [10.0 + i, *sorted(draw(st.lists(st.sampled_from(BLOCK_VALUES), unique_by=float.hex,
                                                  max_size=4)), reverse=True)]
        live = draw(st.integers(1, len(pg) - 1))
        cuts = sorted(set(draw(st.lists(st.integers(1, live), max_size=len(values) - 1))))
        row = [values[bisect_left(cuts, j + 1)] for j in range(live)]
        row += draw(st.lists(st.sampled_from(DEAD_VALUES), min_size=len(pg) - live,
                             max_size=len(pg) - live))
        rows.append(row)
    return lookup_measure(xg, pg, rows, -2.0), xg, pg


@given(lookup_cases())
# one run from p = 0 up to the node before p = 1
@example((lookup_measure([0.0, 1.0], P11, [[1.0] * 10 + [-2.0], [2.0] * 10 + [-2.0]], -2.0),
          [0.0, 1.0], P11))
# runs of one node each, then a run of 0.0 and a run of -0.0
@example((lookup_measure([0.0, 1.0], P11, [[5.0, 4.0, 3.0, 0.0, 0.0, 0.0, -0.0, -0.0, -0.0, -INF, -2.0],
                                           [6.0, 5.0, 5.0, 5.0, 4.0, 3.0, 2.0, 1.0, -0.0, 0.0, -2.0]],
                          -2.0), [0.0, 1.0], P11))
@settings(max_examples=400, deadline=None)
def test_skipped_runs_equal_the_full_scan(case):
    # rows fall, so a run between two nodes holding the same float holds
    # it throughout: skipping its inside changes no bit of the table.  The
    # table and monotone cases take the same path in
    # test_row_cutoff_equals_the_full_scan
    rho, xg, pg = case
    got = construct_psi(rho, xg, pg, stability_trials=0).table
    assert repr(got) == repr(cut_at_first_dead(full_scan_table(rho, xg, pg)))


def test_a_zero_of_the_other_sign_inside_a_run_takes_the_run_value():
    # the run's ends, nodes 1 and 9, are both 0.0; the -0.0 at node 4
    # lies between them, is never read, and reads 0.0 (documented)
    row = [1.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0]
    rho = lookup_measure([0.0, 1.0], P11, [row, [2.0] + [-2.0] * 10], -2.0)
    calls = []
    got = construct_psi(recording(rho, calls), [0.0, 1.0], P11, stability_trials=0).table
    want = cut_at_first_dead(full_scan_table(rho, [0.0, 1.0], P11))
    assert repr(got[0]) == repr((1.0, *[0.0] * 9, -INF))
    assert [i for i in range(11) if repr(got[0][i]) != repr(want[0][i])] == [4]
    node4 = []
    recording(rho, node4)(two_point(-1.0, 0.0, P11[4]))
    assert node4[0] not in calls
    assert got[1] == want[1]


# -- run searches that start at the run ends of the row above ---------------


@st.composite
def hinted_cases(draw):
    """A lookup measure on 3 to 8 falling rows of 20 to 60 p nodes.

    Each row takes the run starts of the row above, shifts some by up to
    two nodes, drops some, adds up to three and moves its first dead
    node, so the run ends the walk hands down land inside runs, at their
    ends, past the row's first dead node or in a row with fewer runs.
    Run values are distinct floats, zeros of both signs among them.
    """
    xg = [float(k) for k in range(draw(st.integers(3, 8)))]
    m = draw(st.integers(19, 59))
    pg = [k / m for k in range(m)] + [1.0]
    starts, live, rows = [], m, []
    for i in range(len(xg)):
        live = draw(st.integers(max(1, live - 3), min(m, live + 3)))
        moves = [draw(st.sampled_from((0, -1, 1, -2, 2, None))) for _ in starts]
        starts = sorted({s + d for s, d in zip(starts, moves) if d is not None}
                        | set(draw(st.lists(st.integers(1, m - 1), max_size=3))))
        inner = [s for s in starts if 0 < s < live]
        values = sorted(draw(st.lists(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.5, 9.5)),
                                      min_size=len(inner), max_size=len(inner),
                                      unique_by=float.hex)), reverse=True)
        row = [(10.0 + i, *values)[bisect_left(inner, j + 1)] for j in range(live)]
        row += draw(st.lists(st.sampled_from(DEAD_VALUES), min_size=m + 1 - live,
                             max_size=m + 1 - live))
        rows.append(row)
    return lookup_measure(xg, pg, rows, -2.0), xg, pg


def two_rows(row0, row1):
    return lookup_measure([0.0, 1.0], P11, [row0, row1], -2.0), [0.0, 1.0], P11


# the row above's runs end at nodes 4 and 6
ABOVE = [5.0, 4.0, 4.0, 4.0, 4.0, 3.0, 3.0, -2.0, -2.0, -2.0, -2.0]


@given(hinted_cases())
# a hint inside a run: node 4 holds the run's 5.0, which goes on to node 7
@example(two_rows(ABOVE, [6.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, -2.0, -2.0, -2.0]))
# hints at runs' ends: both runs end at nodes 4 and 6 again
@example(two_rows(ABOVE, [6.0, 5.0, 5.0, 5.0, 5.0, 2.0, 2.0, -2.0, -2.0, -2.0, -2.0]))
# a hint past the row's first dead node, 3: node 4 bounds the search
@example(two_rows(ABOVE, [6.0, 5.0, 5.0, -INF, -2.0, -3.0, -2.0, -2.0, -2.0, -2.0, -2.0]))
# the row above has four runs, this row one
@example(two_rows([5.0, 4.0, 4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, -2.0, -2.0],
                  [6.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, -2.0, -2.0]))
@settings(max_examples=200, deadline=None)
def test_hinted_run_searches_equal_the_full_scan(case):
    # every row falls, so a hint that holds the run's float lies in the
    # run and one that does not bounds it: the table is the scan's bit
    # for bit, and the hints add no read of a node already read
    rho, xg, pg = case
    calls = []
    got = construct_psi(recording(rho, calls), xg, pg, stability_trials=0).table
    assert repr(got) == repr(cut_at_first_dead(full_scan_table(rho, xg, pg)))
    assert max(Counter(calls).values()) == 1


def test_a_hint_on_a_zero_of_the_other_sign_inside_a_run_keeps_its_sign():
    # the row above's run ends at node 4, where the second row's run of
    # 0.0 holds a -0.0; the hint reads node 4, so it keeps its sign and
    # the row is the full scan's, where the first row's fill, with no
    # hint, reads 0.0 there (documented)
    zeros = [2.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0]
    rho, xg, pg = two_rows([1.0, 0.5, 0.5, 0.5, 0.5] + [-2.0] * 6, zeros)
    calls = []
    got = construct_psi(recording(rho, calls), xg, pg, stability_trials=0).table
    assert repr(got[1]) == repr((*zeros[:10], -INF))
    assert repr(got) == repr(cut_at_first_dead(full_scan_table(rho, xg, pg)))
    node4 = []
    recording(rho, node4)(two_point(-1.0, 1.0, P11[4]))
    assert node4[0] in calls


# -- the in-place mixtures against the two_point_eval route ------------------


def two_point_eval_route(rho, xg, pg):
    """The baseline's call, then one call per node made through two_point_eval."""
    a = xg[0] - (xg[1] - xg[0])
    rho(point_mass(a))
    for y in xg:
        for p in pg:
            two_point_eval(rho, a, y, p)


def recording(rho, calls):
    """``rho``, appending the type and the bits of each input to ``calls``."""

    def measure(F):
        calls.append((type(F), tuple(map(float.hex, F.xs)), tuple(map(float.hex, F.cum))))
        return rho(F)

    return measure


@given(table_cases())
# two p nodes, both collapsing to point masses
@example((var_measure(0.5), [0.0, 1.0], [0.0, 1.0]))
# rows at and left of the pin dead at p = 0, and the grid refused for it
@example((pinned_measure(0.0, MonotoneStep((0.5,), (1.0, 0.25), direction=DEC)),
          [-1.0, 0.0, 1.0, 2.0], [0.0, 0.5, 1.0]))
# every row live up to its p = 1 node, which is called and dead
@example((benchmark_loss_measure(affine_benchmark(2.0)), [0.0, 3.0, 6.0], [0.0, 0.5, 0.99, 1.0]))
@example((var_measure(0.3), [1e15, 1e15 + 0.125, 1e15 + 8.0], [0.0, 0.25, 0.5, 1.0]))
@example((lambda_quantile_measure(MonotoneStep((-1e15,), (0.75, 0.25), direction=DEC)),
          [-1e15 - 8.0, -1e15, -1e15 + 0.5], [0.0, 0.25, 0.5, 0.75, 1.0]))
@settings(max_examples=200, deadline=None)
def test_in_place_mixtures_equal_the_two_point_eval_route(case):
    rho, xg, pg = case
    want, got = [], []
    two_point_eval_route(recording(rho, want), xg, pg)
    try:
        construct_psi(recording(rho, got), xg, pg, stability_trials=0)
    except ValueError as exc:
        # refused only once every node is read
        assert "separate point masses" in str(exc)
    # a run skip reads nodes out of p order and may read past a row's
    # first dead node, but each input is one the full route makes, and
    # no node is read twice: the anchor's point mass, which is also every
    # p = 1 node's, is read no more often than the route reads it
    assert got[0] == want[0]
    assert not Counter(got) - Counter(want)
