"""Seeded sampling and the stability check suites."""

import hashlib
import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest

from fsdrisk import harness
from fsdrisk.dist import (
    ContinuousCDF,
    DiscreteDist,
    discretize,
    fsd_join,
    fsd_leq,
    fsd_meet,
    two_point,
)
from fsdrisk.harness import (
    MAX_PROBE_CELLS,
    PairWitness,
    PointWitness,
    ProbeWitness,
    SamplerConfig,
    StabilityReport,
    check_fsd_consistency,
    check_max_stability,
    check_min_stability,
    check_nondegeneracy,
    check_semicontinuity_probe,
    dominating_variant,
    ext_gap,
    find_stability_counterexample,
    sample_distribution,
)
from fsdrisk.jsonio import report_to_json
from fsdrisk.measures import (
    RiskMeasure,
    expected_shortfall_measure,
    lambda_quantile_measure,
    pinned_measure,
    var,
    var_measure,
)
from fsdrisk.steps import DEC, MonotoneStep

INF = math.inf
LAM3 = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
ND_GRID = [-10.0 + 20.0 * k / 49 for k in range(50)]
# falls as mass moves up: the stock measure that is not FSD-consistent
NEG_MEDIAN = RiskMeasure("neg_median", lambda F: -var(F, 0.5))


def hexes(F: DiscreteDist) -> tuple[list[str], list[str]]:
    """Support points and levels, bit for bit."""
    return [x.hex() for x in F.xs], [c.hex() for c in F.cum]


class TestSampler:
    def test_deterministic_per_seed_trial_role(self):
        cfg = SamplerConfig(seed=2024)
        a = sample_distribution(cfg, trial=5, role=1)
        b = sample_distribution(cfg, trial=5, role=1)
        assert a == b
        assert sample_distribution(cfg, trial=5, role=0) != a
        assert sample_distribution(cfg, trial=6, role=1) != a

    def test_samples_are_valid_distributions(self):
        cfg = SamplerConfig(seed=99, max_atoms=8, support_range=(-3.0, 4.0))
        for t in range(1000):
            F = sample_distribution(cfg, trial=t)
            assert 1 <= len(F.xs) <= 8
            assert all(-3.0 <= x <= 4.0 for x in F.xs)
            assert all(p > 0.0 for p in F.ps)
            assert F.cum[-1] == 1.0

    def test_stream_matches_the_dirichlet_sampler(self, monkeypatch):
        # The sampler scales standard exponentials by one over their
        # left-to-right sum, which is what rng.dirichlet(np.ones(n)) does
        # inside numpy.  The draws, and the generator's state after them,
        # must equal the rng.dirichlet form it replaced; a numpy release
        # that changes either side fails here instead of moving every
        # seeded report.
        default_rng = np.random.default_rng

        def reference(cfg, trial, role):
            rng = default_rng([cfg.seed & ((1 << 64) - 1), trial, role])
            lo, hi = cfg.support_range
            while True:
                n = int(rng.integers(1, cfg.max_atoms + 1))
                xs = rng.uniform(lo, hi, n)
                ps = rng.dirichlet(np.ones(n))
                if np.all(ps > 0.0):
                    return DiscreteDist.from_atoms(zip(xs.tolist(), ps.tolist())), rng

        made = []

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        seeds = (0, 1, 12345, 2**32 + 7, 2**53 + 1, 2**63 - 1, 2**64 - 1, 2**64 + 5, -3)
        cases = 0
        for seed in seeds:
            for max_atoms in (1, 2, 6, 12):
                cfg = SamplerConfig(seed=seed, max_atoms=max_atoms, support_range=(-7.0, 3.0))
                for trial in range(35):
                    for role in (0, 1):
                        got = sample_distribution(cfg, trial, role)
                        want, rng = reference(cfg, trial, role)
                        assert (got.xs, got.cum) == (want.xs, want.cum)
                        assert made[-1].bit_generator.state == rng.bit_generator.state
                        cases += 1
        assert cases == 2520

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials=0),
            dict(max_atoms=0),
            dict(support_range=(2.0, 2.0)),
            dict(support_range=(-1e308, 1e308)),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("role", [0, 1, 2])
    def test_check_stream_draws_the_reference_samples(self, role):
        cfg = SamplerConfig(seed=2**64 + 5, max_atoms=9, trials=2 * harness._BLOCK + 3)
        got = list(harness._samples(cfg, role))
        assert len(got) == cfg.trials
        for trial, F in enumerate(got):
            assert F == sample_distribution(cfg, trial, role)

    @pytest.mark.parametrize("max_atoms", [1, 2, 6, 64, 300])
    def test_passes_draw_the_reference_bit_for_bit(self, max_atoms):
        # one trial, a pass but one, a pass, a pass and one, and many
        # passes; a pass computes its rows in numpy, the reference one
        # trial at a time, and no numpy warning may escape either
        per_pass = max(1, harness._PASS_CELLS // max_atoms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trials in sorted({1, max(1, per_pass - 1), per_pass, per_pass + 1, 2051}):
                cfg = SamplerConfig(seed=trials * max_atoms, max_atoms=max_atoms,
                                    support_range=(-3.0, 7.5), trials=trials)
                got = list(harness._samples(cfg, 1))
                assert len(got) == trials
                for trial, F in enumerate(got):
                    assert hexes(F) == hexes(sample_distribution(cfg, trial, 1))


_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# PCG64's LCG multiplier, and its inverse, which steps the state back
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_UNMULT = pow(_PCG_MULT, -1, 1 << 128)
_PCG_INC = 0x9E3779B97F4A7C15F39CC0605CEDC835


def crafted_rng(position: int, word: int, hi: int) -> np.random.Generator:
    """A PCG64 generator whose ``position``-th raw word is ``word``.

    PCG64 steps its 128-bit state and then outputs the xor of the state's
    halves rotated right by the state's top six bits.  Any high half
    ``hi`` has one low half that gives ``word``; that state is stepped
    back ``position`` times.
    """
    hi &= _M64
    rot = hi >> 58
    lo = hi ^ ((word << rot | word >> (64 - rot)) & _M64)
    state = hi << 64 | lo
    for _ in range(position):
        state = (state - _PCG_INC) * _PCG_UNMULT & _M128
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": _PCG_INC},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


class TestRawRoute:
    """``_samples`` reads raw words; ``sample_distribution`` calls numpy."""

    @pytest.mark.parametrize("max_atoms", [1, 2, 4, 6, 9, 12])
    def test_draws_equal_the_reference(self, max_atoms):
        cases = 0
        for support in ((-10.0, 10.0), (-3.0, 4.0), (1e15, 1e15 + 8), (-1e-300, 1e-300)):
            for seed in (0, 2**32 + 7, 2**64 - 1, -3):
                cfg = SamplerConfig(seed, max_atoms, support, trials=40)
                for role in (0, 1, 2):
                    for trial, F in enumerate(harness._samples(cfg, role)):
                        want = sample_distribution(cfg, trial, role)
                        assert (F.xs, F.cum) == (want.xs, want.cum)
                        cases += 1
        assert cases == 1920

    def route(self, monkeypatch, cfg, make):
        """``_samples`` on the generators ``make(trial)``, against ``_draw`` on them.

        Returns the trials that took the reference draw.
        """
        fell_back = []

        def reference(cfg, trial, role):
            fell_back.append(trial)
            return harness._draw(make(trial), cfg)

        monkeypatch.setattr(harness, "_generators",
                            lambda seed, trials, role: map(make, trials))
        monkeypatch.setattr(harness, "sample_distribution", reference)
        got = list(harness._samples(cfg, 0))
        monkeypatch.undo()
        for trial, F in enumerate(got):
            assert hexes(F) == hexes(harness._draw(make(trial), cfg))
        return fell_back

    @staticmethod
    def first_hi(position, word, ok, hi):
        """The first high half after ``hi`` whose crafted generator passes ``ok``."""
        while True:
            hi = hi * 0x9E3779B97F4A7C15 + 1 & _M64
            if ok(crafted_rng(position, word, hi)):
                return hi

    def test_crafted_words_reach_the_plain_route(self, monkeypatch):
        # counts 1 to 6 straight from the low half, no fallback
        cfg = SamplerConfig(seed=1, max_atoms=6, trials=6)
        words = [k * 2**32 // 6 + 2 for k in range(6)]
        assert [(w * 6 >> 32) + 1 for w in words] == [1, 2, 3, 4, 5, 6]
        assert min(w * 6 % 2**32 for w in words) >= 6
        assert self.route(monkeypatch, cfg, lambda t: crafted_rng(1, words[t], 0xA5 << 56)) == []

    @pytest.mark.parametrize("max_atoms,lo32", [
        # leftover 0 sits under Lemire's threshold 4: numpy rejects the
        # word and reads the buffered high half
        (6, 0),
        # leftover 7 is under max_atoms but not under the threshold 4
        (9, 7 * pow(9, -1, 2**32) % 2**32),
    ])
    def test_a_gated_count_word_takes_the_reference(self, monkeypatch, max_atoms, lo32):
        cfg = SamplerConfig(seed=1, max_atoms=max_atoms, trials=8)
        assert lo32 * max_atoms % 2**32 < max_atoms

        def make(trial):
            return crafted_rng(1, (trial + 1) << 40 | lo32, (trial * 0x9E37 + 5) << 48)

        assert self.route(monkeypatch, cfg, make) == list(range(8))

    def test_a_zero_mass_takes_the_reference(self, monkeypatch):
        # a word below 2**11 is an exponential of exactly zero; with two
        # atoms the fourth word is the first exponential, so high halves
        # are searched until the count word reads two atoms
        cfg = SamplerConfig(seed=1, max_atoms=2, trials=4)
        his, hi = [], 1
        while len(his) < cfg.trials:
            hi = hi * 0x9E3779B97F4A7C15 + 1 & _M64
            rng = crafted_rng(4, 0, hi)
            if int(rng.bit_generator.random_raw()) % 2**32 * 2 >= 2**32 + 2:
                rng.bit_generator.random_raw(2)
                assert harness._flat_dirichlet(rng, 2)[0] == 0.0
                his.append(hi)
        assert self.route(monkeypatch, cfg, lambda t: crafted_rng(4, 0, his[t])) == [0, 1, 2, 3]

    def test_a_zero_mass_on_the_highest_point_takes_the_reference(self, monkeypatch):
        # the level of the highest point is set to 1.0, so with a zero mass
        # there the levels can still rise strictly: of four atoms the first
        # has the highest point and an exponential of exactly zero, and the
        # other three masses, summed left to right, fall short of their
        # exact sum; the fifth word after the count word is that exponential
        cfg = SamplerConfig(seed=1, max_atoms=4, trials=3)

        def zero_on_top(rng):
            if int(rng.integers(1, 5)) != 4:
                return False
            xs, es = rng.uniform(-10.0, 10.0, 4), rng.standard_exponential(4)
            ps = (es * (1.0 / np.cumsum(es)[-1]))[np.argsort(xs)].tolist()
            return es[0] == 0.0 and xs.argmax() == 0 and ps[0] + ps[1] + ps[2] < math.fsum(ps)

        his, hi = [], 1
        for _ in range(cfg.trials):
            hi = self.first_hi(6, 0, zero_on_top, hi)
            his.append(hi)
        assert self.route(monkeypatch, cfg, lambda t: crafted_rng(6, 0, his[t])) == [0, 1, 2]

    def test_a_repeated_point_takes_the_reference(self, monkeypatch):
        # a low half of 2**32 - 1 reads three atoms, and the support holds
        # only two floats, 0.0 and 5e-324
        cfg = SamplerConfig(seed=1, max_atoms=3, support_range=(0.0, 5e-324), trials=5)
        def make(trial):
            return crafted_rng(1, trial << 32 | 0xFFFFFFFF, (trial + 3) << 58)

        assert self.route(monkeypatch, cfg, make) == list(range(5))

    def test_fallbacks_mid_pass_and_last_in_a_pass(self, monkeypatch):
        # two floats of support, 0.0 and 5e-324, and up to two atoms: a
        # natural trial draws one point, both, or one twice, a repeated
        # point that takes the reference draw; crafted trials, which take
        # it too, sit mid-pass, last in a pass and alone in the last pass
        per = harness._PASS_CELLS // 2
        cfg = SamplerConfig(seed=1, max_atoms=2, support_range=(0.0, 5e-324), trials=2 * per + 1)
        two = 2**31 + 5  # a count word's low half reading two atoms

        def reads_two(rng):
            return int(rng.integers(1, 3)) == 2

        def repeats(rng):
            return reads_two(rng) and len(set(rng.uniform(0.0, 5e-324, 2).tolist())) == 1

        def tiny_on_top(rng):
            # the word 2**11 | 1 << 3 is an exponential of 7.1e-18; on the
            # higher point, the level before it already rounds to 1.0
            if not reads_two(rng):
                return False
            xs, es = rng.uniform(0.0, 5e-324, 2), rng.standard_exponential(2)
            return xs[0] > xs[1] and 0.0 < es[0] < es[1] * 2.0**-56

        crafted = {}
        for t in (per // 5, 2 * per):  # a gated count word
            crafted[t] = (1, (t + 1) << 40, t << 48)
        for t in (per * 3 // 5, 2 * per - 1):  # a zero exponential
            crafted[t] = (4, 0, self.first_hi(4, 0, reads_two, t))
        for t in (per + per // 3, per - 1):  # a repeated point
            crafted[t] = (1, t << 32 | two, self.first_hi(1, t << 32 | two, repeats, t))
        tiny = (per, per + per // 2)  # distinct points, levels not rising strictly
        for t in tiny:
            crafted[t] = (4, 2056, self.first_hi(4, 2056, tiny_on_top, t))

        def make(trial):
            if trial in crafted:
                return crafted_rng(*crafted[trial])
            return np.random.default_rng([3, trial])

        natural = [t for t in range(cfg.trials) if t not in crafted and repeats(make(t))]
        assert len(natural) > 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fell_back = self.route(monkeypatch, cfg, make)
        assert fell_back == sorted(natural + list(crafted))
        # the reference keeps one of a tiny-mass row's two points
        for t in tiny:
            assert harness._draw(make(t), cfg).xs == (0.0,)

    def test_max_atoms_past_32_bits_takes_the_reference(self, monkeypatch):
        # numpy's count then reads the whole low half, and draws up to
        # 2**32 points; the stand-in reference draws none
        cfg = SamplerConfig(seed=1, max_atoms=2**32, trials=3)
        monkeypatch.setattr(harness, "sample_distribution", lambda cfg, t, r: (t, r))
        assert list(harness._samples(cfg, 2)) == [(0, 2), (1, 2), (2, 2)]


class TestBulkSeeding:
    """The check loops' generators against ``np.random.default_rng``.

    The bulk pass re-implements numpy's SeedSequence hash, so a numpy
    release that changes SeedSequence fails here instead of quietly
    moving every seeded report away from its replay.
    """

    SEEDS = (0, 1, 7, 12345, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1, 2**64 + 5, -3)

    def test_states_match_seed_sequence(self):
        cases = 0
        for seed in self.SEEDS:
            for role in (0, 1, 2):
                trials = range(0, 310)
                words = [np.full(len(trials), w, np.uint32)
                         for w in harness._uint32_words(seed & ((1 << 64) - 1))]
                words += [np.arange(trials.start, trials.stop, dtype=np.uint32),
                          np.full(len(trials), role, np.uint32)]
                states = harness._seed_states(words)
                for trial, state in zip(trials, states):
                    entropy = [seed & ((1 << 64) - 1), trial, role]
                    want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
                    assert state.tolist() == want.tolist()
                    cases += 1
        assert cases == 10230

    def test_generators_match_default_rng(self):
        cases = 0
        for seed in self.SEEDS:
            for role in (0, 1, 2):
                # crosses a block boundary
                trials = range(harness._BLOCK - 155, harness._BLOCK + 155)
                for trial, rng in zip(trials, harness._generators(seed, trials, role)):
                    want = np.random.default_rng([seed & ((1 << 64) - 1), trial, role])
                    assert rng.bit_generator.state == want.bit_generator.state
                    assert rng.random(3).tolist() == want.random(3).tolist()
                    cases += 1
        assert cases == 10230

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**64 - 1, -3])
    def test_trials_past_two_to_the_32_fall_back(self, seed):
        trials = range(2**32 - 3, 2**32 + 3)
        rngs = list(harness._generators(seed, trials, 1))
        assert len(rngs) == len(trials)
        for trial, rng in zip(trials, rngs):
            want = np.random.default_rng([seed & ((1 << 64) - 1), trial, 1])
            assert rng.bit_generator.state == want.bit_generator.state

    def test_uint32_words(self):
        assert harness._uint32_words(0) == [0]
        assert harness._uint32_words(2**32 - 1) == [2**32 - 1]
        assert harness._uint32_words(2**32) == [0, 1]
        assert harness._uint32_words(2**64 - 1) == [2**32 - 1, 2**32 - 1]


def test_ext_gap_treats_matching_infinities_as_zero():
    assert ext_gap(INF, INF) == 0.0
    assert ext_gap(-INF, -INF) == 0.0
    assert ext_gap(INF, 3.0) == INF
    assert ext_gap(-INF, 3.0) == INF
    assert ext_gap(2.0, 5.0) == 3.0


VA03 = var_measure(0.3).fn
CHECKS_WITH_TOL = {
    "maxs": lambda tol: check_max_stability(VA03, SamplerConfig(trials=5), tol),
    "mins": lambda tol: check_min_stability(VA03, SamplerConfig(trials=5), tol),
    "fsd": lambda tol: check_fsd_consistency(VA03, SamplerConfig(trials=5), tol),
    "nd": lambda tol: check_nondegeneracy(VA03, ND_GRID, tol),
    "ls": lambda tol: check_semicontinuity_probe(VA03, ContinuousCDF.uniform(0.0, 1.0), 8, tol),
}


@pytest.mark.parametrize("tol", [math.nan, INF, -1e-9])
@pytest.mark.parametrize("axiom", sorted(CHECKS_WITH_TOL))
def test_unusable_tolerance_is_rejected(axiom, tol):
    # a NaN or infinite tolerance passes every trial, a negative one fails every trial
    with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
        CHECKS_WITH_TOL[axiom](tol)


class TestPairSuites:
    def test_var_passes_both(self):
        cfg = SamplerConfig(seed=12345, trials=2000)
        va = var_measure(0.3)
        assert check_max_stability(va.fn, cfg).passed
        assert check_min_stability(va.fn, cfg).passed

    def test_expected_shortfall_fails_max_stability(self):
        cfg = SamplerConfig(seed=99, trials=300)
        es = expected_shortfall_measure(0.5)
        rep = check_max_stability(es.fn, cfg)
        assert rep.verdict == "fail"
        assert rep.violations == 108
        assert rep.worst_gap == 2.8681368102798435

    def test_witness_replays_exactly(self):
        cfg = SamplerConfig(seed=99, trials=300)
        es = expected_shortfall_measure(0.5)
        rep = check_max_stability(es.fn, cfg)
        w = rep.witness
        assert isinstance(w, PairWitness)
        assert es.fn(fsd_join(w.f, w.g)) == w.lhs
        assert max(es.fn(w.f), es.fn(w.g)) == w.rhs
        assert ext_gap(w.lhs, w.rhs) == w.gap
        # the witness pair regenerates from its trial index alone
        assert sample_distribution(cfg, w.trial, 0) == w.f
        assert sample_distribution(cfg, w.trial, 1) == w.g

    def test_reports_serialize_identically_across_runs(self):
        cfg = SamplerConfig(seed=5150, trials=200)
        es = expected_shortfall_measure(0.5)
        one = report_to_json(check_max_stability(es.fn, cfg))
        two = report_to_json(check_max_stability(es.fn, cfg))
        assert one == two


# SHA-256 of report_to_json for runs whose witness is a sampled pair, so
# that any change to the (seed, trial, role) streams behind roles 0, 1
# and 2 moves a digest; check_pair_witness in test_cli pins maxs
STREAM_PINS = {
    "fsd": (lambda: check_fsd_consistency(NEG_MEDIAN, SamplerConfig(seed=1234, trials=300)),
            "af9aa2975d22b448c69eda229dc6f97717a45ccdd6328b2786da8100133e76ff"),
    "mins": (lambda: check_min_stability(expected_shortfall_measure(0.5).fn,
                                         SamplerConfig(seed=24601, trials=300, max_atoms=10)),
             "b10896963507aa439f97163d63cd5b58ccef30e38c00bfa6c99a919bf7788aaa"),
}


@pytest.mark.parametrize("axiom", sorted(STREAM_PINS))
def test_sampled_pair_reports_are_pinned(axiom):
    run, want = STREAM_PINS[axiom]
    report = run()
    assert report.violations > 0
    assert isinstance(report.witness, PairWitness)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == want


class TestNondegeneracy:
    def test_quantile_family_passes(self):
        rep = check_nondegeneracy(lambda_quantile_measure(LAM3).fn, ND_GRID)
        assert rep.passed
        assert rep.trials == 49

    def test_pinned_measure_fails_almost_everywhere(self):
        g = MonotoneStep((0.5,), (3.0, -1.0), direction=DEC)
        rep = check_nondegeneracy(pinned_measure(0.0, g).fn, ND_GRID)
        assert rep.verdict == "fail"
        # constant on each side of the pin: only the pair crossing it rises
        assert rep.violations == 48
        assert rep.worst_gap == pytest.approx(1e-9)

    def test_constant_infinite_values_fall_short_by_infinity(self):
        # Lambda = 0 puts every value at -inf: equal infinities gain nothing
        rep = check_nondegeneracy(lambda_quantile_measure(MonotoneStep((), (0.0,), DEC)),
                                  [-1.0, 0.0, 1.0])
        assert rep.violations == 2
        assert rep.worst_gap == INF
        assert rep.witness == PointWitness(-1.0, 0.0, -INF, -INF, INF)

    def test_grid_validation(self):
        va = var_measure(0.3)
        with pytest.raises(ValueError):
            check_nondegeneracy(va.fn, [1.0])
        with pytest.raises(ValueError):
            check_nondegeneracy(va.fn, [1.0, 0.5, 2.0])


class TestFsdConsistency:
    def test_dominating_variant_dominates(self):
        cfg = SamplerConfig(seed=606, trials=1000)
        for t in range(1000):
            F = sample_distribution(cfg, trial=t)
            G = dominating_variant(F, cfg, trial=t)
            assert fsd_leq(F, G)

    def test_decreasing_measure_fails_with_a_dominated_pair(self):
        cfg = SamplerConfig(seed=1234, trials=50)
        rep = check_fsd_consistency(NEG_MEDIAN, cfg)
        assert rep.verdict == "fail"
        assert rep.violations == 30
        w = rep.witness
        assert isinstance(w, PairWitness)
        assert fsd_leq(w.f, w.g)
        assert (NEG_MEDIAN(w.f), NEG_MEDIAN(w.g)) == (w.lhs, w.rhs)
        assert w.gap == rep.worst_gap == w.lhs - w.rhs > 0.0

    def test_measures_pass(self):
        cfg = SamplerConfig(seed=1234, trials=1000)
        for m in (var_measure(0.3), expected_shortfall_measure(0.5)):
            rep = check_fsd_consistency(m.fn, cfg)
            assert rep.passed
            assert rep.axiom == "fsd"


class TestSemicontinuityProbe:
    U = ContinuousCDF.uniform(0.0, 1.0)
    VA = var_measure(0.5)

    def test_quantile_approaches_from_below(self):
        rep = check_semicontinuity_probe(self.VA.fn, self.U, 256)
        assert rep.passed
        assert rep.axiom == "ls"
        assert rep.tail_gap == 0.0029296875  # reference at 1024 cells vs n = 256

    def test_known_deficits_at_powers_of_two(self):
        for n in (2, 4, 8, 16):
            v = self.VA.fn(discretize(self.U, n))
            assert 0.5 - v == 1.0 / n

    def test_explicit_limit_reference(self):
        rep = check_semicontinuity_probe(self.VA.fn, self.U, 64, rho_limit=0.5)
        assert rep.passed
        assert rep.tail_gap == 1.0 / 64

    def test_consecutive_values_may_fall(self):
        # n = 3 and n = 4 interleave: 1/3 then 1/4; only doubling chains
        # are ordered, which is what the suite checks
        assert self.VA.fn(discretize(self.U, 3)) == pytest.approx(1.0 / 3)
        assert self.VA.fn(discretize(self.U, 4)) == 0.25
        rep = check_semicontinuity_probe(self.VA.fn, self.U, 4)
        assert rep.passed

    def test_finite_reference_bounds_only_the_cell_counts_it_refines(self):
        # at alpha = 0.3, 7 cells give 2/7 and 297 cells 89/297, above the
        # 9/32 and 359/1200 of 32 and 1200 cells, but neither count
        # divides the reference's, so neither is dominated by it
        va = var_measure(0.3)
        assert va(discretize(self.U, 7)) > va(discretize(self.U, 32))
        assert va(discretize(self.U, 297)) > va(discretize(self.U, 1200))
        assert check_semicontinuity_probe(va, self.U, 8).passed
        assert check_semicontinuity_probe(va, self.U, 300).passed
        # a stated limit bounds every term
        rep = check_semicontinuity_probe(va, self.U, 8, rho_limit=0.28)
        assert rep.violations == 1
        assert rep.witness.n == 7

    def test_falling_values_fail_on_a_doubling_chain(self):
        # an upper bound as the limit leaves only the chain checks: 2 -> 4
        # and 4 -> 8 cells move the median up, so its negation falls
        rep = check_semicontinuity_probe(NEG_MEDIAN, self.U, 8, rho_limit=0.0)
        assert rep.violations == 2
        assert rep.witness == ProbeWitness(4, -0.25, 0.0, 0.25, "value fell on doubling refinement")

    def test_values_above_a_refined_reference_fail(self):
        # with the 32-cell reference, n = 1, 2, 4 and 8 exceed it and the
        # two falling doubling steps count too
        rep = check_semicontinuity_probe(NEG_MEDIAN, self.U, 8)
        assert rep.violations == 6
        assert rep.witness.n == 1
        assert rep.witness.reason == "value exceeds the reference"

    def test_needs_at_least_two_cells(self):
        with pytest.raises(ValueError):
            check_semicontinuity_probe(self.VA.fn, self.U, 1)

    def test_a_limit_above_the_cell_bound_is_refused_before_any_call(self):
        calls = []

        def counting(F):
            calls.append(F)
            return 0.0

        assert MAX_PROBE_CELLS == 4096
        with pytest.raises(ValueError, match="at most 4096, got 4097"):
            check_semicontinuity_probe(counting, self.U, 4097)
        assert calls == []
        # a one-point limit discretizes at no cost, so the bound itself runs quickly
        rep = check_semicontinuity_probe(counting, ContinuousCDF.uniform(2.0, 2.0), 4096)
        assert rep.passed
        assert len(calls) == 4096 + 1


def test_right_quantile_passes_every_check_yet_is_not_lower_semicontinuous():
    # q+(F) = sup{x : F(x) <= 0.3}; on float levels it differs from the
    # left quantile only where a level sits exactly at 0.3
    def right_quantile(F):
        return F.xs[bisect_right(F.cum, 0.3)]

    # mass 0.3 + 2**-k at 0 rises to mass 0.3 there, yet the value jumps
    # from 0 to 1 at the limit
    assert all(right_quantile(two_point(0.0, 1.0, 0.3 + 2.0**-k)) == 0.0 for k in range(2, 40))
    assert right_quantile(two_point(0.0, 1.0, 0.3)) == 1.0
    cfg = SamplerConfig(seed=7, trials=2000)
    assert check_max_stability(right_quantile, cfg).passed
    assert check_min_stability(right_quantile, cfg).passed
    assert check_fsd_consistency(right_quantile, cfg).passed
    assert check_nondegeneracy(right_quantile, ND_GRID).passed
    assert check_semicontinuity_probe(right_quantile, ContinuousCDF.uniform(0.0, 1.0), 256).passed


class TestCounterexampleSearch:
    def test_expected_shortfall_meet_witness(self):
        es = expected_shortfall_measure(0.5)
        cfg = SamplerConfig(seed=24601, trials=10000, max_atoms=10)
        w = find_stability_counterexample(es.fn, "mins", cfg)
        assert w is not None
        assert w.trial == 0
        assert w.gap == 0.3298020305518623
        assert es.fn(fsd_meet(w.f, w.g)) == w.lhs

    def test_stable_measure_yields_none(self):
        va = var_measure(0.3)
        cfg = SamplerConfig(seed=1, trials=500)
        assert find_stability_counterexample(va.fn, "maxs", cfg) is None

    def test_axiom_name_is_case_insensitive(self):
        es = expected_shortfall_measure(0.5)
        cfg = SamplerConfig(seed=24601, trials=10, max_atoms=10)
        assert find_stability_counterexample(es.fn, "MinS", cfg) is not None

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            find_stability_counterexample(var_measure(0.3).fn, "nd", SamplerConfig())


def test_report_passed_property():
    rep = StabilityReport("maxs", 1, 10, 0, 0.0, None)
    assert rep.passed and rep.verdict == "pass"
    rep = StabilityReport("maxs", 1, 10, 2, 0.5, None)
    assert not rep.passed and rep.verdict == "fail"
