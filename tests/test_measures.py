"""Closed-form risk measures and their cross identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsdrisk.dist import ContinuousCDF, DiscreteDist, point_mass
from fsdrisk.harness import SamplerConfig, dominating_variant, sample_distribution
from fsdrisk.measures import (
    RiskMeasure,
    affine_benchmark,
    benchmark_loss_measure,
    benchmark_loss_var,
    expected_shortfall,
    expected_shortfall_measure,
    lambda_quantile,
    lambda_quantile_dual,
    lambda_quantile_measure,
    pinned_measure,
    transform_measure,
    var,
    var_measure,
)
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf


def atoms(*pairs):
    return DiscreteDist.from_atoms(list(pairs))


F3 = atoms((1.0, 0.3), (2.0, 0.4), (3.0, 0.3))
HALF = atoms((0.0, 0.5), (1.0, 0.5))


def random_dists(seed, count, max_atoms=6):
    cfg = SamplerConfig(seed=seed, max_atoms=max_atoms, trials=count)
    return [sample_distribution(cfg, trial=t) for t in range(count)]


class TestVar:
    def test_examples(self):
        assert var(F3, 0.5) == 2.0
        assert var(point_mass(-3.0), 0.9) == -3.0
        assert var(HALF, 0.5) == 0.0
        assert var(HALF, 0.4) == 0.0

    def test_equals_left_quantile(self):
        for F in random_dists(101, 1000):
            for a in (0.1, 0.37, 0.5, 0.93):
                assert var(F, a) == F.left_quantile(a)

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_must_be_interior(self, a):
        with pytest.raises(ValueError):
            var(HALF, a)


class TestBenchmarkLoss:
    def test_identity_benchmark(self):
        h = affine_benchmark(1.0)
        assert benchmark_loss_var(HALF, h) == 0.5  # max(0 - 0, 1 - 0.5)

    def test_slope_two(self):
        h = affine_benchmark(2.0)
        assert benchmark_loss_var(atoms((-1.0, 0.5), (0.6, 0.5)), h) == -0.4

    def test_flat_benchmark_reaches_max_support(self):
        h = MonotoneStep((), (0.0,), at_one=INF)
        assert benchmark_loss_var(HALF, h) == 1.0

    def test_step_benchmark_reduces_to_var(self):
        a0 = 0.3

        def h(p):
            return INF if p >= a0 else 0.0

        for F in random_dists(202, 300):
            assert benchmark_loss_var(F, h) == var(F, a0)

    def test_benchmark_must_diverge_at_one(self):
        with pytest.raises(ValueError):
            benchmark_loss_measure(lambda p: 2.0 * p)


class TestLambdaQuantile:
    LAM = MonotoneStep((1.0,), (0.8, 0.4), direction=DEC)

    def test_two_piece_example(self):
        assert lambda_quantile(atoms((0.0, 0.5), (2.0, 0.5)), self.LAM) == 1.0

    def test_constant_curve_reduces_to_var(self):
        lam = MonotoneStep((), (0.35,), direction=DEC)
        for F in random_dists(303, 300):
            assert lambda_quantile(F, lam) == var(F, 0.35)

    def test_curve_at_one_reaches_max_support(self):
        lam = MonotoneStep((), (1.0,), direction=DEC)
        for F in random_dists(404, 100):
            assert lambda_quantile(F, lam) == F.xs[-1]

    def test_dual_forms_example(self):
        F = atoms((0.0, 0.5), (2.0, 0.5))
        assert lambda_quantile_dual(F, self.LAM) == (1.0, 1.0)

    def test_dual_pinned_at_point_mass(self):
        lam = MonotoneStep((5.0,), (0.9, 0.3), direction=DEC)
        assert lambda_quantile_dual(point_mass(2.5), lam) == (2.5, 2.5)

    def test_dual_forms_agree_with_direct(self):
        rng = np.random.default_rng(90210)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            xs = np.sort(rng.uniform(-10, 10, n)).tolist()
            ps = rng.dirichlet(np.ones(n)).tolist()
            while min(ps) <= 0.0:
                ps = rng.dirichlet(np.ones(n)).tolist()
            F = DiscreteDist.from_atoms(list(zip(xs, ps)))
            k = int(rng.integers(0, 4))
            bps = np.sort(rng.uniform(-8, 8, k)).tolist()
            vals = sorted(rng.uniform(0.05, 1.0, k + 1).tolist(), reverse=True)
            lam = MonotoneStep(tuple(bps), tuple(vals), direction=DEC)
            direct = lambda_quantile(F, lam)
            sup_form, inf_form = lambda_quantile_dual(F, lam)
            assert abs(direct - sup_form) <= 1e-9
            assert abs(direct - inf_form) <= 1e-9


class TestExpectedShortfall:
    def test_examples(self):
        assert expected_shortfall(atoms((0.0, 0.6), (1.25, 0.4)), 0.5) == 1.0
        assert expected_shortfall(point_mass(4.2), 0.3) == 4.2
        assert expected_shortfall(atoms((1.0, 0.6), (1.25, 0.4)), 0.5) == 1.2

    def test_matches_conditional_tail_mean(self):
        # independent form: split the atom the level lands in, then average
        # the tail beyond it
        rng = np.random.default_rng(515)
        for _ in range(300):
            F = random_dists(int(rng.integers(0, 10**6)), 1)[0]
            a = float(rng.uniform(0.05, 0.95))
            k = 0
            while F.cum[k] < a:
                k += 1
            expect = (F.cum[k] - a) * F.xs[k]
            for i in range(k + 1, len(F.xs)):
                expect += F.ps[i] * F.xs[i]
            expect /= 1.0 - a
            assert abs(expected_shortfall(F, a) - expect) <= 1e-12


class TestTransform:
    def test_identity_is_a_no_op(self):
        base = lambda_quantile_measure(MonotoneStep((0.0,), (0.7, 0.2), direction=DEC))
        same = transform_measure(base, lambda t: t)
        for F in random_dists(606, 100):
            assert same.fn(F) == base.fn(F)

    def test_affine_composition(self):
        base = lambda_quantile_measure(MonotoneStep((0.0,), (0.7, 0.2), direction=DEC))
        tr = transform_measure(base, lambda t: 2.0 * t + 1.0)
        for F in random_dists(707, 100):
            assert tr.fn(F) == 2.0 * base.fn(F) + 1.0

    def test_infinite_values_pass_through(self):
        toy = RiskMeasure("toy", lambda F: INF)
        assert transform_measure(toy, lambda t: 2.0 * t + 1.0).fn(point_mass(0.0)) == INF

    def test_non_monotone_rejected(self):
        base = var_measure(0.5)
        with pytest.raises(ValueError):
            transform_measure(base, lambda t: -t)
        with pytest.raises(ValueError):
            transform_measure(base, math.sin)


class TestFsdConsistency:
    MEASURES = [
        var_measure(0.3),
        benchmark_loss_measure(affine_benchmark(2.0)),
        lambda_quantile_measure(MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)),
        expected_shortfall_measure(0.5),
        pinned_measure(0.0, MonotoneStep((0.5,), (3.0, -1.0), direction=DEC)),
    ]

    @pytest.mark.parametrize("m", MEASURES, ids=lambda m: m.name)
    def test_dominated_pairs_order_the_values(self, m):
        cfg = SamplerConfig(seed=808, trials=1000)
        for t in range(1000):
            F = sample_distribution(cfg, trial=t)
            G = dominating_variant(F, cfg, trial=t)
            assert m.fn(F) <= m.fn(G) + 1e-12


def loaded_after(imports: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` a fresh interpreter on the tested src holds after ``imports``."""
    import fsdrisk.dist

    src = str(Path(fsdrisk.dist.__file__).resolve().parent.parent)
    code = f"import sys\n{imports}\nprint(*sorted(set({names!r}) & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_the_pure_python_core_imports_without_numpy():
    # the package root re-exports nothing, so the core modules, the grid
    # types among them, load neither numpy nor the modules built on it
    imports = ("import fsdrisk.dist, fsdrisk.steps, fsdrisk.kernels, fsdrisk.measures\n"
               "from fsdrisk.kernels import PsiGrid")
    heavy = ("numpy", "fsdrisk.harness", "fsdrisk.engine", "fsdrisk.jsonio", "fsdrisk.cli")
    assert loaded_after(imports, heavy) == []


def test_grid_files_are_read_without_the_engine():
    # jsonio takes the grid types and their trusted constructor from kernels
    assert loaded_after("import fsdrisk.jsonio", ("fsdrisk.engine", "fsdrisk.jsonio")) == ["fsdrisk.jsonio"]
