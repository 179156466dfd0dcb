"""Discrete distributions, the dominance lattice, and discretization."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from fsdrisk.dist import (
    MASS_TOL,
    ContinuousCDF,
    DiscreteDist,
    _trusted,
    discretize,
    fsd_join,
    fsd_leq,
    fsd_meet,
    join_decomposition,
    point_mass,
    two_point,
)
from fsdrisk.harness import SamplerConfig, sample_distribution


def atoms(*pairs):
    return DiscreteDist.from_atoms(list(pairs))


F3 = atoms((1.0, 0.3), (2.0, 0.4), (3.0, 0.3))


class TestConstruction:
    def test_atoms_are_sorted_and_merged(self):
        d = atoms((2.0, 0.25), (1.0, 0.5), (2.0, 0.25))
        assert d.xs == (1.0, 2.0)
        assert d.ps == (0.5, 0.5)

    def test_near_one_mass_renormalizes(self):
        d = DiscreteDist.from_atoms([(0.0, 0.5), (1.0, 0.5 + 1e-13)])
        assert d.cum[-1] == 1.0

    def test_a_long_run_at_one_point_is_a_point_mass(self):
        # a running sum of 100,000 masses of 1e-5 drifts out of the band;
        # the masses at one point are summed exactly
        assert DiscreteDist.from_atoms([(0.0, 1e-5)] * 100_000) == point_mass(0.0)

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [(math.inf, 1.0)],
            [(0.0, math.nan)],
            [(0.0, 0.0), (1.0, 1.0)],
            [(0.0, -0.1), (1.0, 1.1)],
            [(0.0, 0.5), (1.0, 0.4)],  # mass clearly short of 1
            [(math.nan, 1.0)],
        ],
    )
    def test_bad_atoms_rejected(self, pairs):
        finite = all(math.isfinite(x) for x, _ in pairs)
        with pytest.raises(ValueError, match=None if finite else "support point must be finite"):
            DiscreteDist.from_atoms(pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.0, 1e308), (1.0, 1e308)],  # the sum would overflow fsum
            [(0.0, math.inf)],
            [(0.0, 1.0 + 2e-12)],
            [(0.0, 0.5), (1.0, 1.5)],
        ],
    )
    def test_a_mass_above_one_is_rejected_by_name(self, pairs):
        with pytest.raises(ValueError, match=r"atom mass must lie in \(0, 1\], got "):
            DiscreteDist.from_atoms(pairs)

    def test_a_mass_inside_the_band_above_one_builds(self):
        assert DiscreteDist.from_atoms([(0.0, 1.0 + 5e-13)]) == point_mass(0.0)

    def test_from_levels_rejects_decreasing_and_nan(self):
        with pytest.raises(ValueError):
            DiscreteDist.from_levels([0.0, 1.0], [0.6, 0.5])
        with pytest.raises(ValueError):
            DiscreteDist.from_levels([0.0, 1.0], [math.nan, 1.0])
        with pytest.raises(ValueError):
            DiscreteDist.from_levels([1.0, 0.0], [0.5, 1.0])

    def test_only_the_cdf_is_stored(self):
        assert [f.name for f in dataclasses.fields(DiscreteDist)] == ["xs", "cum"]

    def test_float_noise_leaves_no_empty_atom(self):
        # the running mass sum passes 1.0 before the last atom
        d = DiscreteDist.from_atoms([(0, 0.3), (1, 0.7), (2, 1e-15), (3, 1.2e-16), (4, 1.2e-16)])
        assert d.xs == (0.0, 1.0, 2.0)
        assert all(p > 0.0 for p in d.ps)
        assert d.cum[-1] == 1.0

    def test_levels_above_one(self):
        d = DiscreteDist.from_levels([0.0, 1.0], [1 + 5e-13, 1 + 6e-13])
        assert d == point_mass(0.0)
        assert d.ps == (1.0,)
        with pytest.raises(ValueError, match="above 1"):
            DiscreteDist.from_levels([0.0, 1.0], [0.5, 1.0 + 2 * MASS_TOL])

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_two_point_masses_are_bit_exact(self, p):
        ps = two_point(-1.0, 2.0, p).ps
        assert [m.hex() for m in ps] == [p.hex(), (1.0 - p).hex()]

    def test_two_point_collapses_degenerate_cases(self):
        assert two_point(1.0, 1.0, 0.3) == point_mass(1.0)
        assert two_point(0.0, 2.0, 1.0) == point_mass(0.0)
        assert two_point(0.0, 2.0, 0.0) == point_mass(2.0)
        with pytest.raises(ValueError):
            two_point(2.0, 0.0, 0.5)

    @pytest.mark.parametrize("x, y", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (0.0, math.nan)])
    def test_two_point_rejects_non_finite_points(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            two_point(x, y, 0.5)


class TestPublicConstructor:
    @pytest.mark.parametrize(
        "xs, cum",
        [
            ((1.0, 0.0), (0.5, 0.7)),  # decreasing support, levels short of 1
            ((0.0, 0.0), (0.5, 1.0)),  # repeated support point
            ((math.inf,), (1.0,)),
            ((-math.inf, 0.0), (0.5, 1.0)),
            ((math.nan,), (1.0,)),
            ((0.0, 1.0), (math.nan, 1.0)),
            ((0.0, 1.0, 2.0), (0.7, 0.5, 1.0)),  # falling level
            ((0.0, 1.0, 2.0), (0.5, 0.5, 1.0)),  # a zero mass
            ((0.0, 1.0), (0.0, 1.0)),
            ((0.0, 1.0), (-0.5, 1.0)),
            ((0.0,), (1.5,)),
            ((0.0, 1.0), (0.5, 1.0 + 1e-15)),
            ((0.0, 1.0), (0.5, 0.7)),
            ((0.0, 1.0), (0.5, math.nextafter(1.0, 0.0))),
            ((0.0, 1.0), (1.0,)),  # one level short
            ((0.0,), (0.5, 1.0)),
            ((), ()),
        ],
    )
    def test_malformed_cdfs_are_rejected(self, xs, cum):
        with pytest.raises(ValueError):
            DiscreteDist(xs, cum)

    def test_canonical_input_is_stored_as_float_tuples(self):
        d = DiscreteDist([0, 2], [0.25, 1])
        assert d == atoms((0.0, 0.25), (2.0, 0.75))
        assert type(d.xs) is tuple and type(d.cum) is tuple
        assert all(type(v) is float for v in d.xs + d.cum)

    def test_both_constructors_give_slotted_frozen_equal_objects(self):
        # the trusted builder writes the slots directly; what it makes is
        # the public constructor's object in every observable way
        public = DiscreteDist((-1.0, 2.0), (0.25, 1.0))
        trusted = _trusted((-1.0, 2.0), (0.25, 1.0))
        for d in (public, trusted):
            assert type(d) is DiscreteDist
            assert not hasattr(d, "__dict__")
            for name in ("xs", "cum"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(d, name, (3.0,))
            assert (d.xs, d.cum) == ((-1.0, 2.0), (0.25, 1.0))
        assert public == trusted and hash(public) == hash(trusted)
        assert trusted != _trusted((-1.0, 2.0), (0.5, 1.0))


class TestEvaluation:
    def test_cdf(self):
        assert F3.cdf(2.0) == 0.7
        assert point_mass(5.0).cdf(4.999) == 0.0
        assert F3.cdf(3.0) == 1.0
        assert F3.cdf(100.0) == 1.0

    def test_cdf_left_limit(self):
        assert F3.cdf_left_limit(2.0) == 0.3
        assert point_mass(0.0).cdf_left_limit(0.0) == 0.0
        assert F3.cdf_left_limit(100.0) == 1.0

    def test_left_quantile(self):
        assert F3.left_quantile(0.5) == 2.0
        assert point_mass(3.5).left_quantile(0.2) == 3.5
        assert atoms((0.0, 0.5), (1.0, 0.5)).left_quantile(0.5) == 0.0

    def test_quantile_galois_pairing(self):
        # left_quantile(a) <= x exactly when the CDF at x reaches a
        for a in (0.1, 0.3, 0.5, 0.7, 1.0):
            for x in (-1.0, 1.0, 1.5, 2.0, 2.5, 3.0):
                assert (F3.left_quantile(a) <= x) == (F3.cdf(x) >= a)


class TestLattice:
    def test_join_examples(self):
        assert fsd_join(point_mass(0.0), atoms((-1.0, 0.5), (2.0, 0.5))) == atoms(
            (0.0, 0.5), (2.0, 0.5)
        )
        assert fsd_join(F3, F3) == F3
        assert fsd_join(atoms((0.0, 0.5), (2.0, 0.5)), point_mass(1.0)) == atoms(
            (1.0, 0.5), (2.0, 0.5)
        )

    def test_meet_examples(self):
        assert fsd_meet(point_mass(0.0), atoms((-1.0, 0.5), (2.0, 0.5))) == atoms(
            (-1.0, 0.5), (0.0, 0.5)
        )
        assert fsd_meet(F3, F3) == F3
        assert fsd_meet(point_mass(0.0), atoms((-1.0, 0.5), (0.6, 0.5))) == atoms(
            (-1.0, 0.5), (0.0, 0.5)
        )

    def test_signed_zero_at_shared_point(self):
        # -0.0 == 0.0, so the merge meets them as one point; it reads 0.0
        # there, so the operand order does not show in repr, while a
        # distribution joined or met with itself keeps its own bits
        f = DiscreteDist((-0.0, 1.0), (0.5, 1.0))
        g = DiscreteDist((0.0, 2.0), (0.25, 1.0))
        for op in (fsd_join, fsd_meet):
            assert repr(op(f, g).xs) == repr(op(g, f).xs)
            assert repr(op(f, f).xs) == repr(f.xs) == "(-0.0, 1.0)"
        assert repr(fsd_join(f, g).xs) == "(0.0, 2.0)"
        assert repr(fsd_meet(f, g).xs) == "(0.0, 1.0)"

    def test_leq_examples(self):
        assert fsd_leq(point_mass(0.0), point_mass(1.0))
        assert fsd_leq(F3, F3)
        f = atoms((0.0, 0.5), (2.0, 0.5))
        g = point_mass(1.0)
        assert not fsd_leq(f, g)
        assert not fsd_leq(g, f)


@st.composite
def dists(draw):
    xs = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=20), min_size=len(xs), max_size=len(xs)
        )
    )
    total = sum(weights)
    levels, acc = [], 0
    for w in weights:
        acc += w
        levels.append(acc / total)
    levels[-1] = 1.0
    return DiscreteDist.from_levels(sorted(xs), levels)


def near_one(ulps):
    """1.0 moved by ``ulps`` representable steps (down when negative)."""
    x = 1.0
    for _ in range(abs(ulps)):
        x = math.nextafter(x, 2.0 if ulps > 0 else 0.0)
    return x


@st.composite
def noisy_atoms(draw):
    """Ordinary masses mixed with masses of 1e-16 to 1e-15.

    A run of equal tiny masses sits above the ordinary atoms: each step of
    the running mass sum can round up, so it may pass 1.0 before the last
    atom.  A few more tiny masses land anywhere.
    """
    tiny = st.floats(min_value=1e-16, max_value=1e-15)
    weights = draw(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5))
    pairs = [(draw(st.integers(min_value=-5, max_value=5)), w / sum(weights)) for w in weights]
    run_mass = draw(tiny)
    pairs += [(6 + k, run_mass) for k in range(draw(st.integers(min_value=0, max_value=6)))]
    return pairs + draw(st.lists(st.tuples(st.integers(min_value=-5, max_value=12), tiny), max_size=2))


@st.composite
def noisy_levels(draw):
    """Rising levels, then a tail a few ulps either side of 1."""
    head = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4)))
    tail = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4))
    levels = head + [near_one(k) for k in tail]
    return list(range(len(levels))), levels


def assert_canonical(d):
    assert len(d.xs) == len(d.cum)
    assert all(0.0 < c <= 1.0 for c in d.cum)
    assert all(a < b for a, b in zip(d.cum, d.cum[1:]))
    assert d.cum[-1] == 1.0
    assert all(p > 0.0 for p in d.ps)


@given(noisy_atoms())
@settings(max_examples=300, deadline=None)
def test_from_atoms_is_canonical_under_float_noise(pairs):
    assert abs(math.fsum(p for _, p in pairs) - 1.0) <= MASS_TOL
    assert_canonical(DiscreteDist.from_atoms(pairs))


@given(noisy_levels())
@settings(max_examples=300, deadline=None)
def test_from_levels_is_canonical_near_one(xs_levels):
    assert_canonical(DiscreteDist.from_levels(*xs_levels))


def assert_passes_public_check(d):
    assert type(d.xs) is tuple and type(d.cum) is tuple
    assert all(type(v) is float for v in d.xs + d.cum)
    assert DiscreteDist(d.xs, d.cum) == d


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(finite_floats, finite_floats, st.floats(0.0, 1.0), noisy_atoms(), noisy_levels(), dists(), dists())
@settings(max_examples=200, deadline=None)
def test_every_trusted_output_passes_the_public_check(x, y, p, pairs, xs_levels, f, g):
    # point_mass, two_point, from_atoms, from_levels and the lattice skip
    # the public constructor's check; what they build must pass it
    built = [
        point_mass(x),
        two_point(min(x, y), max(x, y), p),
        DiscreteDist.from_atoms(pairs),
        DiscreteDist.from_levels(*xs_levels),
        fsd_join(f, g),
        fsd_meet(f, g),
        *join_decomposition(f),
    ]
    for d in built:
        assert_passes_public_check(d)


def from_levels_keep_loop(xs, levels):
    """A reference for ``from_levels``: one loop that checks and keeps as it goes."""
    if len(xs) != len(levels):
        raise ValueError("need one cumulative level per breakpoint")
    for i, x in enumerate(xs):
        if not math.isfinite(x):
            raise ValueError(f"support point must be finite, got {x}")
        if i and xs[i - 1] >= x:
            raise ValueError("breakpoints must be strictly increasing")
    kept_x, kept_c, prev = [], [], 0.0
    for x, lev in zip(xs, levels):
        if math.isnan(lev):
            raise ValueError("cumulative levels must not be NaN")
        if lev < prev - MASS_TOL:
            raise ValueError("cumulative levels must be non-decreasing")
        if lev > 1.0:
            if lev > 1.0 + MASS_TOL:
                raise ValueError(f"cumulative level {lev!r} is above 1")
            lev = 1.0
        if lev - prev > 0.0:
            kept_x.append(float(x))
            kept_c.append(float(lev))
            prev = lev
    if not kept_x:
        raise ValueError("no atom carries positive mass")
    if 1.0 - kept_c[-1] > MASS_TOL:
        raise ValueError(f"cumulative levels end at {kept_c[-1]!r}, not 1.0")
    kept_c[-1] = 1.0
    return tuple(kept_x), tuple(kept_c)


def outcome(fn, *args):
    try:
        d = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return repr(d if type(d) is tuple else (d.xs, d.cum))


# levels around the places where keeping, clamping and closing decide
EDGE_LEVELS = (
    0.0, -0.0, 5e-324, -5e-324, 0.25, 0.5, 0.5 - 0.5 * MASS_TOL, 0.5 - 2 * MASS_TOL,
    1.0 - 0.5 * MASS_TOL, 1.0 - 2 * MASS_TOL, 1.0 + 0.5 * MASS_TOL, 1.0 + MASS_TOL,
    1.0 + 2 * MASS_TOL, *(near_one(k) for k in range(-4, 5)), math.nan,
)


@st.composite
def edge_levels(draw):
    """Breakpoints, mostly increasing and finite, with levels from the edges and anywhere."""
    level = st.one_of(st.sampled_from(EDGE_LEVELS), st.floats(-0.1, 1.1))
    levels = draw(st.lists(level, max_size=6))
    if draw(st.booleans()):
        levels.sort()
    xs = [float(i) for i in range(len(levels) + draw(st.sampled_from((0, 0, 0, 0, 1))))]
    if xs and draw(st.integers(0, 9)) == 0:
        xs[draw(st.integers(0, len(xs) - 1))] = draw(st.sampled_from((math.inf, -1.0, math.nan)))
    return xs, levels


@given(edge_levels())
@example(([], []))
@example(([0.0], [-0.0]))
@example(([0.0, 1.0], [5e-324, 1.0]))
@example(([0.0, 1.0], [5e-324, 5e-324]))
@example(([0.0, 1.0, 2.0], [0.5, 0.5 - 0.5 * MASS_TOL, 1.0]))
@example(([0.0, 1.0, 2.0], [1.0 - 0.5 * MASS_TOL, 1.0 + 0.5 * MASS_TOL, 1.0]))
@example(([0.0, 1.0, 2.0], [near_one(-3), near_one(-1), near_one(-2)]))
@example(([0.0, math.inf], [math.nan, 1.0]))
@settings(max_examples=500, deadline=None)
def test_from_levels_equals_a_keep_loop(xs_levels):
    # errors, their order and their messages included
    assert outcome(DiscreteDist.from_levels, *xs_levels) == outcome(from_levels_keep_loop, *xs_levels)


def summed_at_every_point(pairs):
    """``from_levels`` on levels whose every point's masses, one or many, are ``fsum``-ed."""
    runs = {}
    for x, p in pairs:
        runs.setdefault(float(x), []).append(p)
    xs = sorted(runs)
    ps = [math.fsum(runs[x]) for x in xs]
    total = math.fsum(p for _, p in pairs)
    levels, acc = [], 0.0
    for m in ps:
        acc += m
        levels.append(acc / total)
    levels[-1] = 1.0
    return DiscreteDist.from_levels(xs, levels)


@given(noisy_atoms())
@settings(max_examples=300, deadline=None)
def test_from_atoms_equals_its_from_levels_route(pairs):
    # from_atoms builds its levels itself; handing them to from_levels,
    # which re-checks them, gives the same bits; each point's masses and
    # the input's own total are summed exactly
    d = DiscreteDist.from_atoms(pairs)
    ref = summed_at_every_point(pairs)
    assert repr((d.xs, d.cum)) == repr((ref.xs, ref.cum))


@given(st.lists(st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=999)),
                min_size=2, max_size=30))
@example([(1, 1), (1, 1), (2, 2)])
@example([(0, 3), (1, 7), (0, 1), (2, 5), (0, 1), (3, 999)])
@settings(max_examples=300, deadline=None)
def test_only_repeated_points_are_fsummed(weighted):
    # from_atoms sums the masses of a repeated point with fsum and keeps
    # a lone mass as it is, which is what fsum of that one mass returns
    total = sum(w for _, w in weighted)
    pairs = [(x, w / total) for x, w in weighted]
    d = DiscreteDist.from_atoms(pairs)
    ref = summed_at_every_point(pairs)
    assert repr((d.xs, d.cum)) == repr((ref.xs, ref.cum))


@given(dists(), dists(), dists())
@settings(max_examples=200)
def test_lattice_laws_hold_exactly(f, g, h):
    assert fsd_join(f, f) == f
    assert fsd_meet(f, f) == f
    assert fsd_join(f, g) == fsd_join(g, f)
    assert fsd_meet(f, g) == fsd_meet(g, f)
    assert fsd_join(f, fsd_join(g, h)) == fsd_join(fsd_join(f, g), h)
    assert fsd_meet(f, fsd_meet(g, h)) == fsd_meet(fsd_meet(f, g), h)
    assert fsd_join(f, fsd_meet(f, g)) == f
    assert fsd_meet(f, fsd_join(f, g)) == f


@given(dists(), dists())
@settings(max_examples=200)
def test_join_meet_match_pointwise_min_max(f, g):
    j, m = fsd_join(f, g), fsd_meet(f, g)
    assert fsd_leq(f, j) and fsd_leq(g, j)
    assert fsd_leq(m, f) and fsd_leq(m, g)
    for x in set(f.xs) | set(g.xs):
        assert j.cdf(x) == min(f.cdf(x), g.cdf(x))
        assert m.cdf(x) == max(f.cdf(x), g.cdf(x))


class TestDecomposition:
    def test_three_atom_example(self):
        f = atoms((1.0, 0.2), (2.0, 0.3), (3.0, 0.5))
        parts = join_decomposition(f)
        assert parts == [
            atoms((1.0, 0.2), (2.0, 0.8)),
            atoms((1.0, 0.5), (3.0, 0.5)),
        ]

    def test_two_point_and_degenerate(self):
        f = atoms((0.0, 0.5), (1.0, 0.5))
        assert join_decomposition(f) == [f]
        assert join_decomposition(point_mass(2.0)) == [point_mass(2.0)]

    def test_seeded_round_trip(self):
        cfg = SamplerConfig(seed=31337, max_atoms=10, trials=1000)
        for t in range(1000):
            f = sample_distribution(cfg, trial=t)
            parts = join_decomposition(f)
            back = parts[0]
            for p in parts[1:]:
                back = fsd_join(back, p)
            assert back == f


class TestDiscretize:
    def test_uniform_examples(self):
        u = ContinuousCDF.uniform(0.0, 1.0)
        assert discretize(u, 2) == atoms((0.0, 0.5), (0.5, 0.5))
        assert discretize(u, 1) == point_mass(0.0)

    def test_degenerate_support(self):
        u = ContinuousCDF.uniform(2.0, 2.0)
        assert discretize(u, 4) == point_mass(2.0)

    def test_refinement_never_moves_mass_up(self):
        u = ContinuousCDF.uniform(-3.0, 5.0)
        for n in (1, 2, 4, 8, 16):
            assert fsd_leq(discretize(u, n), discretize(u, 2 * n))

    def test_uniform_cdf_pieces(self):
        u = ContinuousCDF.uniform(-3.0, 5.0)
        assert [u(x) for x in (-math.inf, -3.5, -3.0, 1.0, 4.0, 5.0, 6.0)] == [
            0.0, 0.0, 0.0, 0.5, 0.875, 1.0, 1.0]
        # a support of one point: 0 below it, 1 from it
        p = ContinuousCDF.uniform(2.0, 2.0)
        assert [p(x) for x in (1.5, 2.0, 2.5)] == [0.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="reversed, hi < lo"):
            ContinuousCDF.uniform(1.0, 0.0)

    def test_support_too_wide_to_cut_is_named(self):
        # (n - 1) * width overflows from n = 4 on; the last cell's left end
        # would be inf, a point the caller never gave
        u = ContinuousCDF.uniform(1e308, 1.7e308)
        assert discretize(u, 3).xs[-1] < 1.7e308
        with pytest.raises(ValueError, match=r"^support width 6\.999999999999999e\+307 is too wide "
                                             r"to cut into n=4 cells$"):
            discretize(u, 4)

    def test_a_cell_count_past_the_float_range_is_named(self):
        # n - 1 has no float, so the width guard cannot scale by it; 10**5000
        # has more digits than Python will convert to a string
        for n, bits in [(10**400, 1329), (10**5000, 16610)]:
            with pytest.raises(ValueError, match=rf"^cell count n of {bits} bits is past the float range$"):
                discretize(ContinuousCDF.uniform(0.0, 1.0), n)

    def test_continuous_cdf_names_an_overflowing_width(self):
        # both ends are finite, but hi - lo is not
        with pytest.raises(ValueError, match=r"^support width inf must be finite"):
            ContinuousCDF.uniform(-1e308, 1e308)


class TestRefusalsOffTheCommonPath:
    def test_left_quantile_refuses_level_zero(self):
        with pytest.raises(ValueError, match=r"left quantile level must lie in \(0, 1\]"):
            point_mass(1.0).left_quantile(0.0)

    def test_point_mass_refuses_an_infinite_point(self):
        with pytest.raises(ValueError, match="support point must be finite"):
            point_mass(math.inf)

    def test_two_point_refuses_a_weight_above_one(self):
        with pytest.raises(ValueError, match=r"mixing weight must lie in \[0, 1\]"):
            two_point(0.0, 1.0, 1.5)

    def test_uniform_refuses_an_unbounded_support(self):
        with pytest.raises(ValueError, match="support must be a finite interval"):
            ContinuousCDF((0.0, math.inf))

    def test_discretize_refuses_zero_cells(self):
        with pytest.raises(ValueError, match="need at least one cell"):
            discretize(ContinuousCDF.uniform(0.0, 1.0), 0)

    def test_repr_lists_mass_and_point_per_atom(self):
        F = DiscreteDist.from_atoms([(0.0, 0.25), (1.5, 0.75)])
        assert repr(F) == "DiscreteDist(0.25*d[0] + 0.75*d[1.5])"
