"""Two-point construction, grid verification, level-curve recovery."""

import math

import numpy as np
import pytest

from fsdrisk.dist import DiscreteDist, point_mass, two_point
from fsdrisk.engine import (
    GATE_SEED,
    PsiGrid,
    StabilityGateError,
    construct_psi,
    h_threshold,
    recover_lambda,
    two_point_eval,
    verify_representation,
)
from fsdrisk.jsonio import dump_json
from fsdrisk.kernels import GridKernel
from fsdrisk.measures import (
    affine_benchmark,
    benchmark_loss_measure,
    expected_shortfall_measure,
    lambda_quantile_measure,
    pinned_measure,
    var_measure,
)
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf
VAR05 = var_measure(0.5).fn
LAM3 = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)


def nan_off_point_masses(F):
    """The point of a point mass, NaN on any other distribution."""
    return math.nan if F.n_atoms > 1 else F.xs[0]


def four_means(F):
    """Four times the mean, which falls along every row in distinct values.

    Not max-stable; on integer atoms and levels in quarters it is exact
    and integer-valued.
    """
    return 4.0 * sum(x * (c - b) for x, b, c in zip(F.xs, (0.0, *F.cum), F.cum))


def atoms(*pairs):
    return DiscreteDist.from_atoms(list(pairs))


class TestTwoPointEval:
    def test_var_case_split(self):
        assert two_point_eval(VAR05, 0.0, 2.0, 0.5) == 0.0
        assert two_point_eval(VAR05, 0.0, 2.0, 0.3) == 2.0

    def test_degenerate_and_zero_mass(self):
        assert two_point_eval(VAR05, 1.5, 1.5, 0.7) == VAR05(point_mass(1.5))
        assert two_point_eval(VAR05, 0.0, 3.0, 0.0) == VAR05(point_mass(3.0))


class TestHThreshold:
    def test_immediate_crossing(self):
        # below the level any y > x moves the quantile, so the threshold
        # collapses onto x up to the bisection tolerance
        h = h_threshold(VAR05, 0.0, 0.3, 100.0, 1e-9)
        assert 0.0 <= h <= 1e-9

    def test_no_crossing_is_plus_inf(self):
        assert h_threshold(VAR05, 0.0, 0.5, 100.0, 1e-9) == INF

    def test_zero_mass_threshold_is_x(self):
        for x in (-3.0, 0.0, 2.5):
            h = h_threshold(VAR05, x, 0.0, x + 50.0, 1e-9)
            assert x <= h <= x + 1e-9

    def test_monotone_in_x_and_p(self):
        lamfn = lambda_quantile_measure(LAM3).fn
        ps = (0.0, 0.1, 0.3, 0.6)
        xs = (-4.0, -1.0, 1.0)
        hs = {(x, p): h_threshold(lamfn, x, p, 50.0, 1e-9) for x in xs for p in ps}
        for p in ps:
            for i in range(len(xs) - 1):
                assert hs[(xs[i], p)] <= hs[(xs[i + 1], p)] + 1e-9
        for x in xs:
            for j in range(len(ps) - 1):
                assert hs[(x, ps[j])] <= hs[(x, ps[j + 1])] + 1e-9

    def test_ends_where_float_spacing_exceeds_tol(self):
        # adjacent floats near 1e8 lie 1.5e-8 apart, farther than tol, so
        # only the collapse of the midpoint onto an endpoint can stop it
        var03 = var_measure(0.3).fn
        calls = 0

        def rho(F):
            nonlocal calls
            calls += 1
            if calls > 66:
                raise AssertionError("bisection did not stop within 64 steps")
            return var03(F)

        assert h_threshold(rho, 1e8, 0.2, 3e8, 1e-9) == math.nextafter(1e8, INF)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            h_threshold(VAR05, 0.0, 0.3, 0.0, 1e-9)
        with pytest.raises(ValueError):
            h_threshold(VAR05, 0.0, 0.3, 1.0, 0.0)


class TestPsiGrid:
    def test_point_mass_row_must_separate(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PsiGrid((0.0, 1.0), (0.0, 1.0), ((0.5, -INF), (0.5, -INF)))

    def test_as_kernel_round_trips_the_table(self):
        grid = PsiGrid((0.0, 1.0), (0.0, 1.0), ((0.0, -INF), (1.0, -INF)))
        assert isinstance(grid, GridKernel)
        k = grid.as_kernel()
        assert k is grid
        assert k.table == grid.table
        assert k.eval(0.5, 0.0) == 0.0


def quantile_table_value(x, p, lam):
    """Independent closed form for the level-curve kernel on a grid.

    The alive set {t : lam(t) > p} is an open ray; on nodes the
    constructed value is the node capped at the ray's endpoint, -inf
    when the ray has emptied.  Exact when the curve's jumps lie on the
    x-grid.
    """
    c = lam.level_crossing(p)
    if c == -INF:
        return -INF
    return min(x, c)


class TestConstructPsi:
    def test_var_table_is_exact(self):
        va = var_measure(0.3)
        xg = [0.0, 0.5, 1.0, 1.5, 2.0]
        pg = [0.0, 0.1, 0.2, 0.3, 0.4, 1.0]
        psi = construct_psi(va.fn, xg, pg, stability_trials=25)
        for i, x in enumerate(psi.x_grid):
            for j, p in enumerate(psi.p_grid):
                expect = x if p < 0.3 else -INF
                assert psi.table[i][j] == expect

    def test_three_step_curve_matches_the_closed_form(self):
        meas = lambda_quantile_measure(LAM3)
        xg = [-5.0 + 0.5 * k for k in range(21)]
        pg = [0.05 * k for k in range(21)]
        psi = construct_psi(meas.fn, xg, pg, stability_trials=25)
        for i, x in enumerate(psi.x_grid):
            for j, p in enumerate(psi.p_grid):
                assert psi.table[i][j] == quantile_table_value(x, p, LAM3)
        # spot values: the jump at -2 caps the dead zone rather than
        # sending it straight to -inf
        i2 = psi.x_grid.index(2.0)
        j5 = psi.p_grid.index(0.5)
        assert psi.table[i2][j5] == -2.0
        assert psi.table[psi.x_grid.index(3.0)][psi.p_grid.index(0.0)] == 3.0

    def test_two_step_curve_spot_values(self):
        lam = MonotoneStep((1.0,), (0.8, 0.4), direction=DEC)
        meas = lambda_quantile_measure(lam)
        xg = [-1.0, 0.0, 1.0, 2.0, 3.0]
        pg = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0]
        psi = construct_psi(meas.fn, xg, pg, stability_trials=25)
        k = psi.as_kernel()
        assert k.eval(2.0, 0.5) == 1.0
        assert k.eval(2.0, 0.3) == 2.0
        assert k.eval(2.0, 0.9) == -INF

    def test_grid_validation(self):
        va = var_measure(0.3)
        with pytest.raises(ValueError):
            construct_psi(va.fn, [0.0], [0.0, 1.0], stability_trials=0)
        with pytest.raises(ValueError):
            construct_psi(va.fn, [0.0, 1.0], [0.1, 1.0], stability_trials=0)
        # zero trials skip the gate; a negative count must not do so silently
        with pytest.raises(ValueError, match="stability trials"):
            construct_psi(va.fn, [0.0, 1.0], [0.0, 1.0], stability_trials=-1)

    @pytest.mark.parametrize("xg", [[-1.5e308, 1e308], [-1e308, -0.9e308, 1e308]])
    def test_overflowing_range_is_named_up_front(self, xg):
        # every node is finite, but the anchor one spacing below the first
        # or the span up to the last overflows; the point mass at the
        # anchor and the gate's sampler failed naming no grid
        with pytest.raises(ValueError, match="x-grid must span a finite range from the anchor"):
            construct_psi(var_measure(0.3).fn, xg, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("xg", [[0.0, INF], [0.0, math.nan, 1.0], [-INF, 0.0]])
    def test_non_finite_x_nodes_are_named_up_front(self, xg):
        # NaN passes the ordering test, and an infinite node only failed
        # later at the anchor below the grid, in a message naming no grid
        with pytest.raises(ValueError, match="x-grid nodes must be finite"):
            construct_psi(var_measure(0.3).fn, xg, [0.0, 0.5, 1.0], stability_trials=0)

    def test_gate_rejects_a_join_breaker(self):
        es = expected_shortfall_measure(0.5)
        with pytest.raises(StabilityGateError):
            construct_psi(es.fn, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        assert GATE_SEED == 413279  # pinned so gate runs are reproducible

    def test_pinned_measure_fails_the_separation_check(self):
        g = MonotoneStep((0.5,), (3.0, -1.0), direction=DEC)
        pm = pinned_measure(0.0, g)
        with pytest.raises(ValueError, match="separate point masses"):
            construct_psi(pm.fn, [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], stability_trials=25)

    def test_grid_finer_than_tol_is_exact(self):
        # nodes 1e-10 apart lie closer than the default tol; every node
        # is still decided by the exact strict test
        xg = [k * 1e-10 for k in range(6)]
        pg = [0.0, 0.1, 0.2, 0.3, 0.4, 1.0]
        psi = construct_psi(var_measure(0.3).fn, xg, pg, stability_trials=25)
        for i, x in enumerate(psi.x_grid):
            for j, p in enumerate(psi.p_grid):
                assert psi.table[i][j] == (x if p < 0.3 else -INF)

    @pytest.mark.parametrize("cast", [int, np.float64])
    @pytest.mark.parametrize("measure", [var_measure(0.3).fn, four_means],
                             ids=["runs", "distinct"])
    def test_placed_values_are_floats(self, measure, cast):
        # the walk stores each value it places as a float, in runs and
        # one by one, so a measure returning ints or numpy floats of the
        # same values gives the float measure's grid, cell for cell
        xg, pg = [-2.0, -1.0, 0.0, 1.0, 2.0], [k / 4 for k in range(5)]
        want = construct_psi(measure, xg, pg, stability_trials=0)
        got = construct_psi(lambda F: cast(measure(F)), xg, pg, stability_trials=0)
        assert all(type(v) is float for row in got.table for v in row)
        assert dump_json(got) == dump_json(want)


README_X = [-5.0 + k * 0.05 for k in range(200)] + [5.0]
README_P = [k * 0.01 for k in range(100)] + [1.0]


class TestConstructPsiCallCounts:
    """Measure calls for the README tables (201 x 101), gate included.

    Call counts do not depend on the machine, so they gate regressions.
    A walk with one call per live node ends each row at its first dead
    node, so a row costs its live prefix plus that one dead node (the
    p = 1 node is always dead, as its mixture is the anchor's point
    mass); with 1 call for the anchor's baseline and the 450 calls of the
    default 150-trial gate that is ``walk``.  Skipping runs of equal
    values costs no more than that on these tables, and a run search that
    starts at the run ends of the row above costs about two calls per run
    where neighbouring rows end their runs at the same nodes: every var
    row dies at p = 0.30, so past the first row, which gallops, a var row
    costs four calls.  The table never calls the p = 1 node, so each of
    the 162 affine rows, which hold distinct values and so no run to
    hint, that stay live up to it costs one call less than ``walk``
    counts.  ``before`` is what a threshold search per (anchor, p) pair
    followed by a scan over all anchors at each node costs on the same
    tables.
    """

    @pytest.mark.parametrize(
        "measure,calls,walk,before",
        [
            (var_measure(0.3), 1_262, 6_682, 858_064),
            (lambda_quantile_measure(LAM3), 1_680, 16_732, 1_662_374),
            (benchmark_loss_measure(affine_benchmark(2.0)), 18_650, 18_812, 2_398_524),
        ],
        ids=["var", "lambda", "affine"],
    )
    def test_exact_call_count(self, measure, calls, walk, before):
        count = 0

        def rho(F):
            nonlocal count
            count += 1
            return measure(F)

        psi = construct_psi(rho, README_X, README_P)
        live = sum(v > -INF for row in psi.table for v in row)
        assert live + len(README_X) + 1 + 3 * 150 == walk
        assert count == calls <= walk
        assert 20 * count <= before


class TestRowCutoff:
    """Each row ends at its first node not strictly above the baseline.

    For p < p' the mixture at p' is dominated by the one at p, so a
    measure monotone in the dominance order, as every max-stable one is,
    has no live node after a dead one; the nodes past it read -inf.  The
    walk does not read past it, and a skip over a run of equal values may
    probe past it but keeps no value it reads there.
    """

    XG = (0.0, 1.0, 2.0)
    PG = (0.0, 0.25, 0.5, 0.75, 1.0)

    @staticmethod
    def recording(measure):
        seen = []

        def rho(F):
            seen.append(F)
            return measure(F)

        return rho, seen

    def test_no_node_past_the_first_dead_one_is_evaluated(self):
        rho, seen = self.recording(var_measure(0.3).fn)
        psi = construct_psi(rho, self.XG, self.PG, stability_trials=0)
        # var(0.3) is live for p < 0.3: nodes 0 and 0.25, then 0.5 is dead
        assert psi.table == tuple((x, x, -INF, -INF, -INF) for x in self.XG)
        # the anchor's point mass, then each row up to its first dead node
        assert seen == [point_mass(-1.0)] + [
            two_point(-1.0, y, p) for y in self.XG for p in self.PG[:3]
        ]

    def test_non_monotone_measure_reads_minus_inf_after_the_cutoff(self):
        # dead at p = 0.25 and live again at p = 0.5, which no measure
        # monotone in the dominance order can be; with the gate off the
        # nodes past the first dead one are never evaluated and read -inf
        def bumpy(F):
            if len(F.xs) == 2 and F.cum[0] == 0.25:
                return F.xs[0]
            return F.xs[-1]

        rho, seen = self.recording(bumpy)
        psi = construct_psi(rho, self.XG, self.PG, stability_trials=0)
        assert psi.table == tuple((x, -INF, -INF, -INF, -INF) for x in self.XG)
        assert len(seen) == 1 + 2 * len(self.XG)

    def test_the_p_one_node_is_never_called(self):
        # its mixture is the anchor's point mass, the baseline; both rows
        # skip a run whose gallop stops at the node before it
        rho, seen = self.recording(
            benchmark_loss_measure(MonotoneStep((0.5,), (0.0, 1.0), "inc", at_one=INF)).fn
        )
        xg = (999999999999992.0, 999999999999993.0)
        psi = construct_psi(rho, xg, (0.0, 0.125, 0.25, 0.5, 1.0), stability_trials=0)
        assert psi.table == ((xg[0], xg[0], xg[0], -INF, -INF), (xg[1], xg[1], xg[1], xg[0], -INF))
        assert len(seen) == 9
        assert seen.count(point_mass(999999999999991.0)) == 1


class TestVerifyRepresentation:
    def build(self):
        va = var_measure(0.3)
        xg = [-2.0 + 0.5 * k for k in range(9)]
        pg = [0.05 * k for k in range(21)]
        return va.fn, construct_psi(va.fn, xg, pg, stability_trials=25)

    def test_midpoint_levels_reproduce_exactly(self):
        rho, psi = self.build()
        dists = [
            atoms((-1.5, 0.125), (0.0, 0.5), (1.5, 0.375)),
            atoms((-2.0, 0.275), (0.5, 0.725)),
            point_mass(1.0),
        ]
        rep = verify_representation(rho, psi, dists, tol=1e-9)
        assert rep.max_error == 0.0
        assert rep.failures == ()
        assert rep.count == 3

    def test_heavy_first_node_is_still_seen(self):
        # regression: with 0.945 of the mass on the leftmost node every
        # node's CDF exceeds the level, and only the left-limit term
        # keeps the grid supremum from collapsing to -inf
        rho, psi = self.build()
        F = atoms((-2.0, 0.945), (0.5, 0.055))
        rep = verify_representation(rho, psi, [F], tol=1e-9)
        assert rep.max_error == 0.0

    def test_off_grid_atom_is_rejected_by_name(self):
        rho, psi = self.build()
        with pytest.raises(ValueError, match="off the x-grid"):
            verify_representation(rho, psi, [point_mass(0.3)], tol=1e-9)

    def test_failures_are_recorded_not_raised(self):
        rho, psi = self.build()
        wrong = PsiGrid(
            psi.x_grid,
            psi.p_grid,
            tuple(
                tuple(v + 1.0 if v != -INF else v for v in row) for row in psi.table
            ),
        )
        rep = verify_representation(rho, wrong, [point_mass(0.0)], tol=1e-9)
        assert rep.max_error == 1.0
        assert rep.worst_index == 0
        assert len(rep.failures) == 1

    def test_a_tie_at_zero_keeps_the_first_node_in_x_order(self):
        # nodes 1 and 2 both read zero at F(x-) = 0.5, with opposite signs;
        # a scan over the nodes keeps the first, and so does the atom read
        psi = PsiGrid((0.0, 1.0, 2.0), (0.0, 0.5, 1.0),
                      ((-1.0, -1.0, -INF), (0.0, -0.0, -INF), (1.0, 0.0, -INF)))
        F = DiscreteDist((0.0, 2.0), (0.5, 1.0))
        rep = verify_representation(lambda F: 5.0, psi, [F], tol=0.0)
        assert repr(rep.failures) == repr(((0, 5.0, -0.0, 5.0),))

    def test_a_nan_value_fails_with_an_infinite_error(self):
        # a NaN measure value once passed with max_error 0.0 and no failures
        _, psi = self.build()
        dists = [point_mass(1.0), atoms((-1.5, 0.5), (1.5, 0.5))]
        rep = verify_representation(nan_off_point_masses, psi, dists, tol=1e-9)
        assert rep.max_error == INF
        assert rep.worst_index == 1
        assert [f[0] for f in rep.failures] == [1]

    @pytest.mark.parametrize("tol", [math.nan, -1.0, INF])
    def test_bad_tolerance_is_rejected(self, tol):
        # a NaN tolerance let every probe pass: max_error 98.0, no failures
        rho, psi = self.build()
        wrong = PsiGrid(psi.x_grid, psi.p_grid,
                        tuple(tuple(v + 98.0 if v != -INF else v for v in row) for row in psi.table))
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            verify_representation(rho, wrong, [point_mass(1.0)], tol)


class TestRecoverLambda:
    def build(self, xg=None, pg=None):
        meas = lambda_quantile_measure(LAM3)
        xg = xg or [-5.0 + 0.25 * k for k in range(41)]
        pg = pg or [0.01 * k for k in range(101)]
        psi = construct_psi(meas.fn, xg, pg, stability_trials=25)
        return meas.fn, psi

    def test_curve_estimate_sits_one_cell_under_the_curve(self):
        rho, psi = self.build()
        rec = recover_lambda(rho, psi, tol=1e-9)
        assert rec.lam_violations == ()
        assert rec.f_violations == ()
        for x, lam_hat in zip(rec.x_grid, rec.lam_hat):
            if min(abs(x - b) for b in LAM3.breakpoints) <= 0.25:
                continue  # one x-cell around each jump is unconstrained
            assert abs(LAM3(x) - 0.01 - lam_hat) <= 1e-9

    def test_point_mass_values_recover_the_identity(self):
        rho, psi = self.build()
        rec = recover_lambda(rho, psi, tol=1e-9)
        assert rec.f_hat == psi.x_grid

    def test_default_probes_stay_finite(self):
        rho, psi = self.build()
        rec = recover_lambda(rho, psi, tol=1e-9)
        assert rec.probe_count == 200
        assert math.isfinite(rec.cross_max_error)

    def test_heavy_first_node_probe_is_exact(self):
        # regression: the quantile lands inside the first cell, below
        # every grid node; the sub-grid anchor and the left-limit alive
        # test recover it exactly
        rho, psi = self.build()
        F = atoms((-5.0, 0.945), (-2.5, 0.055))
        rec = recover_lambda(rho, psi, probes=[F], tol=1e-9)
        assert rec.cross_errors == (0.0,)

    def test_level_in_the_snapping_cell_can_cost_a_region(self):
        # a CDF level inside [curve - one p-cell, curve) is judged dead
        # against the one-cell-low curve estimate, so the rebuilt sup can
        # drop to the previous region; reported, never repaired
        rho, psi = self.build()
        F = atoms((-4.0, 0.495), (4.0, 0.505))
        rec = recover_lambda(rho, psi, probes=[F], tol=1e-9)
        assert rec.cross_errors[0] > 0.25

    def test_benchmark_measure_is_loudly_not_of_this_type(self):
        bm = benchmark_loss_measure(affine_benchmark(2.0))
        xg = [-5.0 + 0.25 * k for k in range(41)]
        pg = [0.01 * k for k in range(101)]
        psi = construct_psi(bm.fn, xg, pg, stability_trials=25)
        rec = recover_lambda(bm.fn, psi, tol=1e-9)
        assert rec.cross_max_error > 1.0

    def test_a_nan_value_fails_the_cross_check(self):
        # every default probe has two atoms or more, so the measure is NaN on each
        _, psi = self.build()
        rec = recover_lambda(nan_off_point_masses, psi, tol=1e-9)
        assert rec.f_hat == psi.x_grid
        assert rec.cross_errors == (INF,) * 200
        assert rec.cross_max_error == INF

    @pytest.mark.parametrize("tol", [math.nan, -1.0, INF])
    def test_bad_tolerance_is_rejected(self, tol):
        # a NaN tolerance matched no node past p = 0, so lam_hat read all zero
        rho, psi = self.build()
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            recover_lambda(rho, psi, tol=tol)
