"""Sup-form and inf-form kernels and grid tabulations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from fsdrisk.dist import DiscreteDist, point_mass
from fsdrisk.harness import SamplerConfig, sample_distribution
from fsdrisk.kernels import (
    BenchmarkLossKernel,
    DualBenchmarkKernel,
    DualGridKernel,
    DualLambdaKernel,
    DualPinnedKernel,
    DualVarKernel,
    GridKernel,
    LambdaKernel,
    PhiKernel,
    PinnedKernel,
    PsiKernel,
    VarKernel,
    inf_phi_eval,
    sup_psi_eval,
)
from fsdrisk.measures import (
    affine_benchmark,
    benchmark_loss_var,
    lambda_quantile,
    pinned_measure,
    var,
)
from fsdrisk.steps import DEC, INC, MonotoneStep

INF = math.inf


def atoms(*pairs):
    return DiscreteDist.from_atoms(list(pairs))


HALF = atoms((0.0, 0.5), (1.0, 0.5))
LAM2 = MonotoneStep((1.0,), (0.8, 0.4), direction=DEC)


def random_dists(seed, count, max_atoms=6):
    cfg = SamplerConfig(seed=seed, max_atoms=max_atoms, trials=count)
    return [sample_distribution(cfg, trial=t) for t in range(count)]


class TestVarKernel:
    def test_eval(self):
        k = VarKernel(0.4)
        assert k.eval(3.0, 0.39) == 3.0
        assert k.eval(3.0, 0.4) == -INF
        assert k.left_sup(3.0, 0.39) == 3.0

    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0])
    def test_level_strictly_interior(self, a):
        with pytest.raises(ValueError):
            VarKernel(a)

    def test_sup_example(self):
        assert sup_psi_eval(VarKernel(0.4), HALF) == 0.0

    def test_sup_equals_quantile(self):
        for F in random_dists(111, 1000):
            for a in (0.25, 0.5, 0.8):
                assert sup_psi_eval(VarKernel(a), F) == var(F, a)


class TestBenchmarkKernel:
    def test_eval_subtracts_the_curve(self):
        k = BenchmarkLossKernel(affine_benchmark(2.0))
        assert k.eval(3.0, 0.25) == 2.5
        assert k.eval(3.0, 1.0) == -INF

    def test_curve_must_diverge_at_one(self):
        with pytest.raises(ValueError):
            BenchmarkLossKernel(lambda p: p)

    def test_flat_curve_sup_reaches_max_support(self):
        k = BenchmarkLossKernel(affine_benchmark(0.0))
        assert sup_psi_eval(k, HALF) == 1.0

    def test_sup_equals_closed_form(self):
        h = affine_benchmark(2.0)
        k = BenchmarkLossKernel(h)
        for F in random_dists(222, 1000):
            assert abs(sup_psi_eval(k, F) - benchmark_loss_var(F, h)) <= 1e-12


class TestLambdaKernel:
    def test_eval_and_left_sup(self):
        k = LambdaKernel(LAM2)
        assert k.eval(0.5, 0.7) == 0.5
        assert k.eval(0.5, 0.8) == -INF
        assert k.eval(2.0, 0.5) == -INF
        # the open ray {t: curve(t) > 0.5} ends at the jump
        assert k.left_sup(2.0, 0.5) == 1.0
        assert k.left_sup(0.5, 0.5) == 0.5
        assert k.left_sup(2.0, 0.3) == 2.0
        assert k.left_sup(2.0, 0.9) == -INF

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LambdaKernel(MonotoneStep((0.0,), (0.2, 0.8)))
        with pytest.raises(ValueError):
            LambdaKernel(MonotoneStep((0.0,), (0.8, 0.2), direction=DEC, at_one=0.0))
        with pytest.raises(ValueError):
            LambdaKernel(MonotoneStep((), (1.5,), direction=DEC))

    def test_sup_example(self):
        assert sup_psi_eval(LambdaKernel(LAM2), atoms((0.0, 0.5), (2.0, 0.5))) == 1.0

    def test_sup_equals_closed_form(self):
        lam = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
        k = LambdaKernel(lam)
        for F in random_dists(333, 1000):
            assert sup_psi_eval(k, F) == lambda_quantile(F, lam)


class TestPinnedKernel:
    G = MonotoneStep((0.5,), (3.0, -1.0), direction=DEC)

    def test_eval_lives_at_the_pin_only(self):
        k = PinnedKernel(0.0, self.G)
        assert k.eval(0.0, 0.2) == 3.0
        assert k.eval(0.1, 0.2) == -INF
        assert k.left_sup(0.1, 0.9) == -1.0
        assert k.left_sup(-0.1, 0.2) == -INF

    def test_sup_reads_the_cdf_at_the_pin(self):
        k = PinnedKernel(0.0, self.G)
        for F in random_dists(444, 500):
            assert sup_psi_eval(k, F) == self.G(F.cdf(0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            PinnedKernel(math.inf, self.G)
        with pytest.raises(ValueError):
            PinnedKernel(0.0, MonotoneStep((0.5,), (-1.0, 3.0)))


KERNELS = [
    VarKernel(0.3),
    BenchmarkLossKernel(affine_benchmark(2.0)),
    LambdaKernel(MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)),
]


@pytest.mark.parametrize("k", KERNELS, ids=lambda k: type(k).__name__)
def test_kernel_vanishes_at_full_mass(k):
    for x in (-7.5, 0.0, 3.25):
        assert k.eval(x, 1.0) == -INF


def test_pinned_kernel_may_keep_a_value_at_full_mass():
    k = PinnedKernel(0.0, MonotoneStep((0.5,), (3.0, -1.0), direction=DEC))
    assert k.eval(0.0, 1.0) == -1.0


@pytest.mark.parametrize(
    "k",
    KERNELS + [PinnedKernel(0.0, MonotoneStep((0.5,), (3.0, -1.0), direction=DEC))],
    ids=lambda k: type(k).__name__,
)
def test_kernel_is_decreasing_in_p(k):
    ps = [j / 40 for j in range(41)]
    for x in (-3.0, 0.0, 0.5, 4.0):
        vals = [k.eval(x, p) for p in ps]
        assert all(vals[j] >= vals[j + 1] for j in range(len(vals) - 1))


# axes the ordering checks alone let through: a NaN node compares false
# with everything, and an infinite x node still increases
BAD_AXES = [
    ((math.nan,), (0.0, 1.0)),
    ((0.0, math.nan, 1.0), (0.0, 1.0)),
    ((0.0, INF), (0.0, 1.0)),
    ((-INF, 0.0), (0.0, 1.0)),
    ((0.0,), (0.0, math.nan, 1.0)),
]
BAD_AXIS_MESSAGE = "x-grid nodes must be finite|p-grid must not contain NaN"


class TestGridKernel:
    def small(self):
        xg = (0.0, 1.0, 2.0)
        pg = (0.0, 0.5, 1.0)
        table = (
            (0.0, -INF, -INF),
            (1.0, 1.0, -INF),
            (2.0, 2.0, -INF),
        )
        return GridKernel(xg, pg, table)

    def test_eval_floors_x(self):
        k = self.small()
        assert k.eval(-0.1, 0.0) == -INF
        assert k.eval(0.3, 0.0) == 0.0
        assert k.eval(1.0, 0.0) == 1.0
        assert k.eval(5.0, 0.0) == 2.0
        # the grid's ends: the padded row left of it, then the end nodes
        assert k.eval(-INF, 0.0) == -INF
        assert k.eval(math.nextafter(0.0, -INF), 0.0) == -INF
        assert k.eval(0.0, 0.0) == 0.0
        assert k.eval(2.0, 0.0) == 2.0
        assert k.eval(math.nextafter(2.0, INF), 0.0) == 2.0
        assert k.eval(INF, 0.0) == 2.0

    def test_nearest_p_ties_go_down(self):
        k = self.small()
        assert k.nearest_p_index(0.25) == 0
        assert k.nearest_p_index(0.26) == 1
        assert k.nearest_p_index(0.75) == 1
        assert k.nearest_p_index(0.76) == 2
        assert k.nearest_p_index(-0.5) == 0
        assert k.nearest_p_index(1.5) == 2

    def test_left_sup_is_a_running_max_strictly_below(self):
        k = self.small()
        assert k.left_sup(0.0, 0.0) == -INF  # nothing strictly below the first node
        assert k.left_sup(1.0, 0.5) == -INF
        assert k.left_sup(1.5, 0.5) == 1.0
        assert k.left_sup(2.0, 0.5) == 1.0
        assert k.left_sup(2.5, 0.5) == 2.0
        # the grid's ends, at p = 0 where every node is live
        assert k.left_sup(-INF, 0.0) == -INF
        assert k.left_sup(math.nextafter(0.0, -INF), 0.0) == -INF
        assert k.left_sup(2.0, 0.0) == 1.0
        assert k.left_sup(math.nextafter(2.0, INF), 0.0) == 2.0
        assert k.left_sup(INF, 0.0) == 2.0
        assert k.left_sup(INF, 1.0) == -INF

    def test_running_max_is_built_on_first_read_outside_eq_and_repr(self):
        k, fresh = self.small(), self.small()
        assert "_runmax" not in vars(k)
        k.left_sup(1.5, 0.5)
        assert "_runmax" in vars(k)
        assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)

    @pytest.mark.parametrize(
        "pg,table",
        [
            ((0.1, 1.0), ((0.0, -INF),)),
            ((0.0, 0.9), ((0.0, -INF),)),
            ((0.0, 1.0), ((0.0, 1.0),)),  # row rises along p
            ((0.0, 1.0), ((0.0, 0.0),)),  # p = 1 column not -inf
            ((0.0, 1.0), ((math.nan, -INF),)),
        ],
    )
    def test_validation(self, pg, table):
        with pytest.raises(ValueError):
            GridKernel((0.0,), pg, table)

    @pytest.mark.parametrize(
        "row,message",
        [
            ((1.0, math.nan, 0.0, -INF), "must not contain NaN"),
            ((1.0, 0.0, 0.5, -INF), "decreasing along p"),
            # a rise before a NaN, and a NaN before a rise: the NaN is named
            ((0.0, 1.0, math.nan, -INF), "must not contain NaN"),
            ((math.nan, 0.0, 1.0, -INF), "must not contain NaN"),
            # a NaN where -inf belongs is a NaN, not a wrong p = 1 column
            ((1.0, 0.5, 0.0, math.nan), "must not contain NaN"),
            ((1.0, 0.5, 0.0, 0.0), "column at p = 1 must be -inf"),
        ],
        ids=["nan", "rise", "rise-then-nan", "nan-then-rise", "nan-at-p-one", "p-one-finite"],
    )
    def test_validation_names_the_defect(self, row, message):
        # the bad row comes second, after one that passes
        good = (2.0, 1.0, 0.0, -INF)
        with pytest.raises(ValueError, match=message):
            GridKernel((0.0, 1.0), (0.0, 0.25, 0.5, 1.0), (good, row))

    def test_signed_zero_neighbours_are_accepted(self):
        # 0.0 and -0.0 compare equal, so neither order is a rise
        table = ((0.0, -0.0, 0.0, -INF), (-0.0, 0.0, -0.0, -INF))
        k = GridKernel((0.0, 1.0), (0.0, 0.25, 0.5, 1.0), table)
        assert repr(k.table) == repr(table)
        # the running max over the -inf row keeps the first of equal cells
        assert [repr(k.left_sup(INF, p)) for p in (0.0, 0.25, 0.5)] == ["0.0", "-0.0", "0.0"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridKernel((0.0, 1.0), (0.0, 1.0), ((0.0, -INF),))

    @pytest.mark.parametrize("xg,pg", BAD_AXES)
    def test_non_finite_axes_are_rejected(self, xg, pg):
        table = tuple((1.0,) * (len(pg) - 1) + (-INF,) for _ in xg)
        with pytest.raises(ValueError, match=BAD_AXIS_MESSAGE):
            GridKernel(xg, pg, table)


class TestRegularization:
    """The left-sup regularization, the only read sup_psi_eval makes."""

    @pytest.mark.parametrize("x0", [0.0, 2.0**53, 1e16], ids=["0", "2**53", "1e16"])
    def test_sup_preserved_when_all_mass_sits_left_of_the_pin(self, x0):
        # regression: with all the mass left of x0, the pin's value sits on
        # the ray past the last atom, which is read at +inf; a tail probe at
        # x0 + 1.0 would round back onto x0 from 2**53 on
        g = MonotoneStep((0.5,), (1.0, 0.25), direction=DEC)
        k = PinnedKernel(x0, g)
        left = [point_mass(-2.0), atoms((-3.0, 0.4), (-1.0, 0.6)),
                point_mass(math.nextafter(x0, -INF))]
        for F in left + [point_mass(0.0)]:
            assert pinned_measure(x0, g)(F) == g(1.0) == 0.25
            assert sup_psi_eval(k, F) == 0.25


class TestDualKernels:
    def test_dual_var_examples(self):
        assert inf_phi_eval(DualVarKernel(0.5), HALF) == 0.0
        for c in (-2.0, 0.0, 3.5):
            for a in (0.2, 1.0):
                assert inf_phi_eval(DualVarKernel(a), point_mass(c)) == c

    def test_dual_var_equals_quantile(self):
        for F in random_dists(666, 1000):
            for a in (0.25, 0.5, 0.8):
                assert abs(inf_phi_eval(DualVarKernel(a), F) - var(F, a)) <= 1e-9

    def test_dual_var_level_range(self):
        DualVarKernel(1.0)
        with pytest.raises(ValueError):
            DualVarKernel(0.0)

    def test_dual_lambda_equals_direct(self):
        lam = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
        k = DualLambdaKernel(lam)
        for F in random_dists(777, 1000):
            assert abs(inf_phi_eval(k, F) - lambda_quantile(F, lam)) <= 1e-9

    def test_dual_lambda_requires_positive_curve(self):
        with pytest.raises(ValueError):
            DualLambdaKernel(MonotoneStep((0.0,), (0.5, 0.0), direction=DEC))

    def test_dual_benchmark_validation(self):
        def g(p):
            return -INF if p == 0.0 else math.log(p)

        DualBenchmarkKernel(g)
        with pytest.raises(ValueError):
            DualBenchmarkKernel(lambda p: p)  # finite at 0
        with pytest.raises(ValueError):
            DualBenchmarkKernel(lambda p: -INF if p == 0.0 else INF)
        with pytest.raises(ValueError):
            DualBenchmarkKernel(lambda p: -INF if p == 0.0 else -p)

    def test_dual_pinned_requires_divergence_at_zero(self):
        g = MonotoneStep((0.3,), (INF, 2.0), direction=DEC)
        k = DualPinnedKernel(1.0, g)
        assert k.eval(1.0, 0.5) == 2.0
        assert k.eval(0.0, 0.5) == INF
        with pytest.raises(ValueError):
            DualPinnedKernel(1.0, MonotoneStep((0.3,), (5.0, 2.0), direction=DEC))

    def test_phi_never_selects_below_the_support(self):
        # phi(x, 0) = +inf on every variant, so points left of all mass
        # cannot realize the infimum
        ks = [
            DualVarKernel(0.5),
            DualLambdaKernel(MonotoneStep((0.0,), (0.9, 0.4), direction=DEC)),
            DualPinnedKernel(0.0, MonotoneStep((0.3,), (INF, 2.0), direction=DEC)),
        ]
        for k in ks:
            for x in (-100.0, -1.0, 50.0):
                assert k.eval(x, 0.0) == INF


class TestDualGridKernel:
    def small(self):
        xg = (0.0, 1.0)
        pg = (0.0, 0.5, 1.0)
        table = (
            (INF, 0.0, 0.0),
            (INF, 1.0, 1.0),
        )
        return DualGridKernel(xg, pg, table)

    def test_eval_ceils_x(self):
        k = self.small()
        assert k.eval(-1.0, 0.5) == 0.0
        assert k.eval(0.5, 0.5) == 1.0
        assert k.eval(2.0, 0.5) == INF
        # the grid's ends: the end nodes, then the padded row right of it
        assert k.eval(-INF, 0.5) == 0.0
        assert k.eval(math.nextafter(0.0, -INF), 0.5) == 0.0
        assert k.eval(0.0, 0.5) == 0.0
        assert k.eval(1.0, 0.5) == 1.0
        assert k.eval(math.nextafter(1.0, INF), 0.5) == INF
        assert k.eval(INF, 0.5) == INF

    def test_right_inf_strictly_above(self):
        k = self.small()
        assert k.right_inf(0.0, 0.5) == 1.0
        assert k.right_inf(1.0, 0.5) == INF
        # the grid's ends
        assert k.right_inf(-INF, 0.5) == 0.0
        assert k.right_inf(math.nextafter(0.0, -INF), 0.5) == 0.0
        assert k.right_inf(math.nextafter(1.0, INF), 0.5) == INF
        assert k.right_inf(INF, 0.5) == INF
        assert k.right_inf(-INF, 0.0) == INF

    def test_running_min_is_built_on_first_read_outside_eq_and_repr(self):
        k, fresh = self.small(), self.small()
        assert "_runmin" not in vars(k)
        k.right_inf(0.0, 0.5)
        assert "_runmin" in vars(k)
        assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)

    def test_p_zero_column_must_diverge(self):
        with pytest.raises(ValueError):
            DualGridKernel((0.0,), (0.0, 1.0), ((0.0, 0.0),))

    @pytest.mark.parametrize("xg,pg", BAD_AXES)
    def test_non_finite_axes_are_rejected(self, xg, pg):
        table = tuple((INF,) + (1.0,) * (len(pg) - 1) for _ in xg)
        with pytest.raises(ValueError, match=BAD_AXIS_MESSAGE):
            DualGridKernel(xg, pg, table)


class _RecordingPsi(PsiKernel):
    """Passes every read through to a base kernel and logs its name."""

    def __init__(self, base):
        self.base = base
        self.reads = []

    def eval(self, x, p):
        self.reads.append("eval")
        return self.base.eval(x, p)

    def left_sup(self, x, p):
        self.reads.append("left_sup")
        return self.base.left_sup(x, p)


class _RecordingPhi(PhiKernel):
    def __init__(self, base):
        self.base = base
        self.reads = []

    def eval(self, x, p):
        self.reads.append("eval")
        return self.base.eval(x, p)

    def right_inf(self, x, p):
        self.reads.append("right_inf")
        return self.base.right_inf(x, p)


class TestOneReadPerAtom:
    F = atoms((-1.0, 0.25), (0.0, 0.25), (2.0, 0.5))
    # the curve breaks at -2, off the support: it costs no read
    LAM = MonotoneStep((-2.0, 0.0, 2.0), (0.9, 0.6, 0.4, 0.2), direction=DEC)

    def test_sup_reads_left_sup_per_atom_and_at_infinity(self):
        k = _RecordingPsi(LambdaKernel(self.LAM))
        value = sup_psi_eval(k, self.F)
        assert k.reads == ["left_sup"] * (len(self.F.xs) + 1)
        assert value == lambda_quantile(self.F, self.LAM)

    def test_inf_reads_right_inf_at_minus_infinity_and_per_atom(self):
        k = _RecordingPhi(DualLambdaKernel(self.LAM))
        value = inf_phi_eval(k, self.F)
        assert k.reads == ["right_inf"] * (len(self.F.xs) + 1)
        assert value == lambda_quantile(self.F, self.LAM)


class _IdentityPsi(PsiKernel):
    """psi(x, p) = x at every level: it keeps rising past every atom."""

    def eval(self, x, p):
        return x

    def left_sup(self, x, p):
        return x


class _IdentityPhi(PhiKernel):
    """phi(x, p) = x at every level, also at p = 0."""

    def eval(self, x, p):
        return x

    def right_inf(self, x, p):
        return x


class TestKernelsUnboundedInX:
    """Evaluation needs no breakpoint list and no edge column to see the tails."""

    @pytest.mark.parametrize("F", [point_mass(0.0), atoms((-1.0, 0.25), (2.0**53, 0.75))])
    def test_sup_of_a_kernel_rising_in_x_is_plus_infinity(self, F):
        assert sup_psi_eval(_IdentityPsi(), F) == INF

    @pytest.mark.parametrize("F", [point_mass(0.0), atoms((-1e16, 0.5), (3.0, 0.5))])
    def test_inf_of_a_kernel_falling_in_x_is_minus_infinity(self, F):
        assert inf_phi_eval(_IdentityPhi(), F) == -INF


# magnitudes up to 1e16, where consecutive floats are 2 apart
SCALES = st.sampled_from([1.0, 1e3, 1e15, 2.0**53, 1e16])
UNIT = st.floats(-1.0, 1.0, allow_nan=False)
INNER_P = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
KERNEL_EXAMPLES = settings(max_examples=100, deadline=None)


@st.composite
def dists_near(draw, scale, nodes=()):
    """Atoms on the given nodes, beside them or anywhere within the scale."""
    free = UNIT.map(lambda u: u * scale)
    if nodes:
        node = st.sampled_from(nodes)
        free = st.one_of(node, node.map(lambda x: math.nextafter(x, INF)), free)
    xs = draw(st.lists(free, min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(xs), max_size=len(xs)))
    total = sum(weights)
    return DiscreteDist.from_atoms([(x, w / total) for x, w in zip(xs, weights)])


@st.composite
def grid_cases(draw, dual):
    """A random grid kernel with rows decreasing along p, and a distribution."""
    scale = draw(SCALES)
    x_grid = sorted(draw(st.lists(UNIT.map(lambda u: u * scale), min_size=1, max_size=4,
                                  unique=True)))
    p_grid = [0.0, *sorted(draw(st.lists(INNER_P, max_size=3, unique=True))), 1.0]
    entry = st.one_of(UNIT.map(lambda u: u * scale), st.sampled_from([-INF, INF]))
    table = []
    for _ in x_grid:
        row = sorted(draw(st.lists(entry, min_size=len(p_grid), max_size=len(p_grid))),
                     reverse=True)
        if dual:
            row[0] = INF
        else:
            row[-1] = -INF
        table.append(tuple(row))
    cls = DualGridKernel if dual else GridKernel
    kernel = cls(tuple(x_grid), tuple(p_grid), tuple(table))
    return kernel, draw(dists_near(scale, tuple(x_grid)))


@st.composite
def pin_cases(draw):
    scale = draw(SCALES)
    # a pin at the scale's edge often has all the mass on one side
    x0 = draw(st.one_of(UNIT, st.sampled_from([-1.0, 1.0]))) * scale
    b = draw(INNER_P)
    return x0, b, draw(dists_near(scale, (x0,)))


def _cands(kernel, F):
    """The atoms and the grid nodes, read off the fields, not the evaluator."""
    return sorted(set(F.xs).union(kernel.x_grid))


class TestEvaluationAgainstPointReads:
    """Both evaluators against references that read only eval or the curves."""

    @KERNEL_EXAMPLES
    @given(grid_cases(dual=False))
    def test_grid_sup_is_the_max_of_point_values(self, case):
        k, F = case
        want = max(k.eval(b, F.cdf(b)) for b in _cands(k, F))
        assert sup_psi_eval(k, F) == want

    @KERNEL_EXAMPLES
    @given(grid_cases(dual=True))
    def test_dual_grid_inf_is_the_min_of_left_limit_values(self, case):
        k, F = case
        want = min(k.eval(b, F.cdf_left_limit(b)) for b in _cands(k, F))
        assert inf_phi_eval(k, F) == want

    @KERNEL_EXAMPLES
    @given(pin_cases(), st.floats(-5.0, 5.0), st.floats(0.0, 5.0))
    def test_pinned_reads_the_cdf_at_the_pin(self, case, low, drop):
        x0, b, F = case
        g = MonotoneStep((b,), (low + drop, low), direction=DEC)
        k = PinnedKernel(x0, g)
        assert sup_psi_eval(k, F) == g(F.cdf(x0))

    @KERNEL_EXAMPLES
    @given(pin_cases(), st.floats(-5.0, 5.0))
    def test_dual_pinned_reads_the_left_limit_at_the_pin(self, case, value):
        x0, b, F = case
        g = MonotoneStep((b,), (INF, value), direction=DEC)
        assert inf_phi_eval(DualPinnedKernel(x0, g), F) == g(F.cdf_left_limit(x0))

    @KERNEL_EXAMPLES
    @given(SCALES.flatmap(dists_near), st.floats(0.0, 3.0), st.floats(-5.0, 5.0))
    def test_dual_benchmark_is_the_min_over_atoms(self, F, slope, shift):
        def g(p):
            return -INF if p == 0.0 else slope * math.log(p) + shift

        want = min(x - g(F.cdf(x)) for x in F.xs)
        assert inf_phi_eval(DualBenchmarkKernel(g), F) == want


def test_a_benchmark_curve_that_reads_nan_is_refused():
    with pytest.raises(ValueError, match="benchmark curve evaluated to NaN"):
        BenchmarkLossKernel(lambda p: INF if p >= 1.0 else math.nan)
