"""Every law on every distribution of a small dyadic universe.

The supports are the subsets of {-1, 0, 0.5, 2} and the CDF levels the
multiples of 1/8: 165 distributions and 27,225 ordered pairs.  Random
draws almost never put a level exactly at alpha or at a curve value,
where "<" and "<=" part; here every point and level is dyadic, so every
sum and comparison of levels is exact.  Values are compared bit for bit,
and a mismatch is a bug, not rounding.  The universe is closed under
join and meet, so each pair's join and meet are computed once, as
indices, and a measure's value on them is looked up.
"""

import math
import struct
from itertools import combinations, product
from operator import ge

import pytest

from fsdrisk.dist import DiscreteDist, fsd_join, fsd_leq, fsd_meet, join_decomposition
from fsdrisk.kernels import (
    BenchmarkLossKernel,
    DualLambdaKernel,
    DualVarKernel,
    LambdaKernel,
    VarKernel,
    inf_phi_eval,
    sup_psi_eval,
)
from fsdrisk.measures import (
    benchmark_loss_measure,
    lambda_quantile_dual,
    lambda_quantile_measure,
    var_measure,
)
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf
POINTS = (-1.0, 0.0, 0.5, 2.0)
LAM = MonotoneStep((-0.5, 1.0), (0.75, 0.5, 0.25), direction=DEC)
H = MonotoneStep((0.25, 0.625), (-0.5, 0.5, 2.0), at_one=INF)

# name: (measure, sup kernel, inf kernel or None where no dual kernel exists)
MEASURES = {
    **{f"var({k}/8)": (var_measure(k / 8), VarKernel(k / 8), DualVarKernel(k / 8)) for k in range(1, 8)},
    "lambda": (lambda_quantile_measure(LAM), LambdaKernel(LAM), DualLambdaKernel(LAM)),
    "benchmark": (benchmark_loss_measure(H), BenchmarkLossKernel(H), None),
}
MIN_STABLE = [name for name in MEASURES if name != "benchmark"]


def universe(points, cells):
    """Every distribution on a subset of ``points`` with levels in multiples of 1/cells."""
    return [
        DiscreteDist.from_levels(support, [c / cells for c in cuts] + [1.0])
        for k in range(1, len(points) + 1)
        for support in combinations(points, k)
        for cuts in combinations(range(1, cells), k - 1)
    ]


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


class Lattice:
    """The universe, each member's CDF at the points, and every pair's join and meet by index."""

    def __init__(self, points, cells):
        self.dists = universe(points, cells)
        index = {F: i for i, F in enumerate(self.dists)}
        self.size = len(index)
        self.cdfs = [tuple(map(F.cdf, points)) for F in self.dists]
        self.joins = [[index[fsd_join(F, G)] for G in self.dists] for F in self.dists]
        self.meets = [[index[fsd_meet(F, G)] for G in self.dists] for F in self.dists]

    def below(self, i: int, j: int) -> bool:
        """Member j dominates member i: its CDF is nowhere above i's."""
        return all(map(ge, self.cdfs[i], self.cdfs[j]))

    def pairs(self):
        return product(range(len(self.dists)), repeat=2)


@pytest.fixture(scope="module")
def lattice():
    return Lattice(POINTS, 8)


@pytest.fixture(scope="module")
def values(lattice):
    return {name: [rho(F) for F in lattice.dists] for name, (rho, _, _) in MEASURES.items()}


def test_the_universe_holds_165_distinct_distributions(lattice):
    assert len(lattice.dists) == lattice.size == 165


def test_join_and_meet_are_the_pointwise_min_and_max_of_the_cdfs(lattice):
    for i, j in lattice.pairs():
        pair = list(zip(lattice.cdfs[i], lattice.cdfs[j]))
        assert lattice.cdfs[lattice.joins[i][j]] == tuple(map(min, pair))
        assert lattice.cdfs[lattice.meets[i][j]] == tuple(map(max, pair))


def test_join_bounds_above_and_meet_below(lattice):
    for i, j in lattice.pairs():
        join, meet = lattice.joins[i][j], lattice.meets[i][j]
        assert lattice.below(i, join) and lattice.below(j, join)
        assert lattice.below(meet, i) and lattice.below(meet, j)


def test_absorption(lattice):
    for i, j in lattice.pairs():
        assert lattice.joins[i][lattice.meets[i][j]] == i
        assert lattice.meets[i][lattice.joins[i][j]] == i


def test_dominance_holds_exactly_when_the_join_is_the_upper_one(lattice):
    for i, j in lattice.pairs():
        F, G = lattice.dists[i], lattice.dists[j]
        assert fsd_leq(F, G) is lattice.below(i, j) is (lattice.joins[i][j] == j)


def test_join_and_meet_associate_and_distribute():
    # triples of a smaller universe: {-1, 0, 2} with quarters, 15 members
    small = Lattice((-1.0, 0.0, 2.0), 4)
    assert small.size == 15
    join, meet = small.joins, small.meets
    for i, j, k in product(range(small.size), repeat=3):
        assert join[join[i][j]][k] == join[i][join[j][k]]
        assert meet[meet[i][j]][k] == meet[i][meet[j][k]]
        assert meet[i][join[j][k]] == join[meet[i][j]][meet[i][k]]
        assert join[i][meet[j][k]] == meet[join[i][j]][join[i][k]]


@pytest.mark.parametrize("name", MEASURES)
def test_closed_form_equals_sup_form_and_inf_form(lattice, values, name):
    _, psi, phi = MEASURES[name]
    for F, v in zip(lattice.dists, values[name]):
        assert bits(sup_psi_eval(psi, F)) == bits(v), F
        if phi is not None:
            assert bits(inf_phi_eval(phi, F)) == bits(v), F


def test_lambda_dual_closed_forms_equal_the_closed_form(lattice, values):
    for F, v in zip(lattice.dists, values["lambda"]):
        assert list(map(bits, lambda_quantile_dual(F, LAM))) == [bits(v)] * 2, F


@pytest.mark.parametrize("name", MEASURES)
def test_the_max_over_the_join_decomposition_is_the_measure(lattice, values, name):
    rho = MEASURES[name][0]
    for F, v in zip(lattice.dists, values[name]):
        assert bits(max(map(rho, join_decomposition(F)))) == bits(v), F


@pytest.mark.parametrize("name", MEASURES)
def test_max_stable_on_every_pair(lattice, values, name):
    vals = values[name]
    for i, j in lattice.pairs():
        assert bits(vals[lattice.joins[i][j]]) == bits(max(vals[i], vals[j])), (i, j)


@pytest.mark.parametrize("name", MIN_STABLE)
def test_min_stable_on_every_pair(lattice, values, name):
    vals = values[name]
    for i, j in lattice.pairs():
        assert bits(vals[lattice.meets[i][j]]) == bits(min(vals[i], vals[j])), (i, j)


def test_the_benchmark_loss_is_not_min_stable_on_the_universe(lattice, values):
    vals = values["benchmark"]
    assert any(vals[lattice.meets[i][j]] != min(vals[i], vals[j]) for i, j in lattice.pairs())
