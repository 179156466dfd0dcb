"""Two-point construction, grid verification, level-curve recovery."""

import math

import pytest

from fsdrisk.dist import DiscreteDist, point_mass
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
            PsiGrid(
                (0.0, 1.0),
                (0.0, 1.0),
                ((0.5, -INF), (0.5, -INF)),
                y_max=3.0,
                tol=1e-9,
            )

    def test_metadata_validation(self):
        table = ((0.0, -INF), (1.0, -INF))
        with pytest.raises(ValueError):
            PsiGrid((0.0, 1.0), (0.0, 1.0), table, y_max=INF, tol=1e-9)
        with pytest.raises(ValueError):
            PsiGrid((0.0, 1.0), (0.0, 1.0), table, y_max=3.0, tol=0.0)

    def test_as_kernel_round_trips_the_table(self):
        grid = PsiGrid((0.0, 1.0), (0.0, 1.0), ((0.0, -INF), (1.0, -INF)), 3.0, 1e-9)
        k = grid.as_kernel()
        assert k.table == grid.table
        assert k.eval(0.5, 0.0) == 0.0
        assert grid.as_kernel() is k


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
        with pytest.raises(ValueError):
            construct_psi(va.fn, [0.0, 1.0], [0.0, 1.0], y_max=0.5, stability_trials=0)

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
            psi.y_max,
            psi.tol,
        )
        rep = verify_representation(rho, wrong, [point_mass(0.0)], tol=1e-9)
        assert rep.max_error == 1.0
        assert rep.worst_index == 0
        assert len(rep.failures) == 1


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
