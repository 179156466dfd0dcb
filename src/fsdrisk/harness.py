"""Seeded randomized verification of the stability axioms.

Every check here consumes a measure as an opaque callable and reports
pass or fail with a replayable witness.  Randomness is fully pinned:
trial ``t``, role ``r`` draws from PCG64 seeded with
``SeedSequence([seed mod 2**64, t, r])``, so a report is reproducible
from its config alone, trial by trial, in any order.
``sample_distribution`` is the reference draw, on numpy's own calls
(``integers``, ``uniform`` and ``dirichlet``), that replays any witness
from its trial index.  The check loops hash a pass of seed states in
bulk, for both sides of every pair at once, jump each PCG64 state to
the raw words a trial reads and compute from them, as numpy would, the
atom count, points, exponentials (the ziggurat's fast path), masses and
levels.  A pass holds ``_PASS_CELLS`` padded cells per role.  A row
with an exponential off that path, about 7% of rows at 6 atoms, has
numpy draw its exponentials from a generator seeded from its bulk
state and advanced past its points.  Only a row that is not canonical
runs the reference draw.

Gaps are measured in extended reals with equal infinities counting as
zero; all shipped measures are breakpoint-exact, so the default
tolerance only has to absorb float accumulation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dist import ContinuousCDF, DiscreteDist, discretize, fsd_join, fsd_meet, point_mass
from .dist import MASS_TOL, _trusted

INF = math.inf
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# uint64 operands, so the word arithmetic stays uint64 on old numpy releases too
_U32, _U255 = np.uint64(_MASK32), np.uint64(255)
_S1, _S3, _S8, _S11, _S32, _S58, _S63, _S64 = map(np.uint64, (1, 3, 8, 11, 32, 58, 63, 64))

DEFAULT_TOL = 1e-9
# the probe discretizes once per cell count up to its limit, so its cost
# grows with the square of the limit
MAX_PROBE_CELLS = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan: one config, one stream of instances."""

    seed: int = 12345
    max_atoms: int = 6
    support_range: tuple[float, float] = (-10.0, 10.0)
    trials: int = 1000

    def __post_init__(self):
        # ints and numpy ints pass; a float is refused here, not deep in a draw
        for name in ("seed", "max_atoms", "trials"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.max_atoms < 1:
            raise ValueError(f"need at least one atom, got max_atoms={self.max_atoms}")
        lo, hi = (float(self.support_range[0]), float(self.support_range[1]))
        # a finite width implies finite ends; the raw draws scale by it
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(f"support range must be finite with a finite width, got {self.support_range}")
        object.__setattr__(self, "support_range", (lo, hi))
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")


def sample_distribution(cfg: SamplerConfig, trial: int = 0, role: int = 0) -> DiscreteDist:
    """Draw one distribution, identically for identical arguments.

    ``role`` separates the independent draws inside one trial (the two
    sides of a pair, the derived variant) without any shared state.
    This is the reference draw, on numpy's own calls; ``_samples`` reads
    the same values from the raw words of the same generators.
    """
    return _draw(np.random.default_rng([cfg.seed & _MASK64, trial, role]), cfg)


def _draw(rng: np.random.Generator, cfg: SamplerConfig) -> DiscreteDist:
    """One distribution from ``rng``: atom count, support points, masses."""
    lo, hi = cfg.support_range
    while True:
        n = int(rng.integers(1, cfg.max_atoms + 1))
        xs = rng.uniform(lo, hi, n)
        ps = rng.dirichlet(np.ones(n)).tolist()
        # an exactly zero component is astronomically rare but would be
        # rejected downstream, and a zero sum of exponentials gives NaN
        # masses; either is redrawn from the same stream
        if min(ps) > 0.0:
            return DiscreteDist.from_atoms(zip(xs.tolist(), ps))


# SeedSequence's hash constants, as numpy defines them since 1.17
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# trials per bulk pass of ``_generators``: memory stays flat for any trial count
_BLOCK = 1024
# padded cells per role in a sampling pass, so a pass's arrays stay small for any max_atoms
_PASS_CELLS = 2048
# PCG64's LCG multiplier, and where the tail of numpy's exponential ziggurat starts
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ZIGGURAT_R = 7.69711747013104972


def _seed_states(words: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many entropies.

    ``words[i]`` holds entropy word i of every entropy, one uint32 array
    each, and there are at most four words, so nothing is left over
    after the pool is filled.  Returns one state per row.
    """
    n = len(words[0])
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                         - np.uint32(_MIX_MULT_R) * hashmix(pool[src]))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = np.empty((n, 2 * _POOL_WORDS), np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    # word pairs read little-endian, as SeedSequence reads them
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Hands PCG64 a seed state that was computed in bulk."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.state


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: little-endian uint32 words."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _states(seed: int, trials: range, roles: tuple[int, ...]) -> np.ndarray:
    """``SeedSequence([seed & _MASK64, t, r])``'s seed state for each role r and trial t.

    One row each, role-major: every trial of the first role, then every
    trial of the next.
    """
    seed &= _MASK64
    if trials.stop - 1 > _MASK32:  # more entropy words than the bulk pass covers
        return np.array([np.random.SeedSequence([seed, t, r]).generate_state(4, np.uint64)
                         for r in roles for t in trials])
    n = len(trials)
    words = [np.full(n * len(roles), w, np.uint32) for w in _uint32_words(seed)]
    words.append(np.tile(np.arange(trials.start, trials.stop, dtype=np.uint32), len(roles)))
    words.append(np.repeat(np.array(roles, np.uint32), n))
    return _seed_states(words)


def _generators(seed: int, trials: range, role: int) -> Iterator[np.random.Generator]:
    """The generator of each trial in ``trials`` for one role, in order.

    Each equals ``np.random.default_rng([seed & _MASK64, trial, role])``,
    state for state.
    """
    for lo in range(trials.start, trials.stop, _BLOCK):
        for state in _states(seed, range(lo, min(lo + _BLOCK, trials.stop)), (role,)):
            yield np.random.Generator(np.random.PCG64(_SeedState(state)))


def _muladd128(a_hi, a_lo, b_hi, b_lo, c_hi=0, c_lo=0) -> tuple[np.ndarray, np.ndarray]:
    """(a * b + c) mod 2**128 on (high, low) uint64 halves, a_lo * b_lo by 32-bit limbs."""
    a0, a1, b0, b1 = a_lo & _U32, a_lo >> _S32, b_lo & _U32, b_lo >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _S32) + (p01 & _U32) + (p10 & _U32)
    lo = a_lo * b_lo + c_lo
    hi = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + a_hi * b_lo + a_lo * b_hi
    return hi + c_hi + (lo < c_lo), lo


# MULT**(k + 1) and 1 + MULT + ... + MULT**k mod 2**128 at index k, as
# (high, low) halves, doubled in length as longer rows need them
_JUMPS: list[np.ndarray] = []


def _pcg_words(states: np.ndarray, positions: range) -> np.ndarray:
    """Raw words ``positions`` (1 is the first) of PCG64 seeded by each row of ``states``.

    PCG64 seeds inc = s2:s3 << 1 | 1 and state = (s0:s1 + inc) * MULT + inc
    and steps state = state * MULT + inc before each word, so word k comes
    from MULT**(k + 1) * s0:s1 + (1 + ... + MULT**(k + 1)) * inc: the xor of
    its halves rotated right by its top six bits.
    """
    if not _JUMPS:
        _JUMPS[:] = [np.array([v], np.uint64) for v in (_PCG_MULT >> 64, _PCG_MULT & _MASK64, 0, 1)]
    while len(_JUMPS[0]) <= positions.stop:
        # entry k + n is MULT**n times entry k, plus 1 + ... + MULT**(n - 1) in the sum
        a_hi, a_lo, c_hi, c_lo = (j[-1:] for j in _JUMPS)
        grown = (*_muladd128(*_JUMPS[:2], a_hi, a_lo), *_muladd128(*_JUMPS[2:], a_hi, a_lo, c_hi, c_lo))
        _JUMPS[:] = [np.concatenate(pair) for pair in zip(_JUMPS, grown)]
    a_hi, a_lo, c_hi, c_lo = _JUMPS
    s0, s1, s2, s3 = (states[:, i, None] for i in range(_POOL_WORDS))
    k, k1 = slice(positions.start, positions.stop), slice(positions.start + 1, positions.stop + 1)
    inc = _muladd128(s2 << _S1 | s3 >> _S63, s3 << _S1 | _S1, c_hi[k1], c_lo[k1])
    hi, lo = _muladd128(s0, s1, a_hi[k], a_lo[k], *inc)
    x, rot = hi ^ lo, hi >> _S58
    return x >> rot | x << (_S64 - rot & _S63)


@functools.cache
def _exp_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's exponential ziggurat: layer widths ``we`` and fast-path bounds ``ke``.

    Of a word w, ``standard_exponential`` returns ri * we[idx] if ri < ke[idx],
    where ri = w >> 11 and idx = w >> 3 & 255.  we[idx] is drawn at ri = 1;
    ke[idx], the layer's bound over we[idx] less 16, is kept if a draw at
    ri = ke[idx] - 1 reads one word too, else it is 0.  Built on first use.
    """
    bits = np.random.PCG64(0)
    inc, unmult = bits.state["state"]["inc"], pow(_PCG_MULT, -1, 1 << 128)

    def draw(ri: int, idx: int) -> tuple[float, bool]:
        # one step makes the state the word itself, which outputs unrotated
        word = (ri << 8 | idx) << 3
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (word - inc) * unmult % (1 << 128), "inc": inc}}
        e = np.random.Generator(bits).standard_exponential()
        return e, bits.state["state"]["state"] == word

    we, one_word = zip(*(draw(1, idx) for idx in range(256)))
    # the base layer is bounded by the tail's start r, layer idx by layer idx - 1
    bounds = [_ZIGGURAT_R] + [w * 2.0**53 for w in we[:-1]]
    ke = [min(int(b / w) - 16, 1 << 53) for b, w in zip(bounds, we)]
    ke = [k if k > 0 and one_word[i] and draw(k - 1, i)[1] else 0 for i, k in enumerate(ke)]
    return np.array(we), np.array(ke, np.uint64)


def _samples(cfg: SamplerConfig, roles: tuple[int, ...]) -> Iterator[tuple[DiscreteDist, ...]]:
    """``sample_distribution(cfg, t, r)`` for every role r, for every trial t of ``cfg``.

    One tuple per trial, in the order of ``roles``.  A pass draws every
    role of ``_PASS_CELLS // max_atoms`` trials at once, its rows
    role-major, and makes no numpy call per trial.  ``_pcg_words`` gives
    each trial's count n = 1 + (lo32 * max_atoms >> 32), ``integers``'
    Lemire step on word 1's low half (no word for one atom), then its n
    point words and n exponential words.  numpy computes each point as
    ``uniform``'s lo + width * ((w >> 11) * 2**-53), each exponential by
    the ziggurat's fast path, the masses over their left-to-right sum,
    the sort and the levels, as the scalar code orders them.  A row with
    an exponential off the fast path (about 7% of rows at 6 atoms) seeds
    its PCG64 from its bulk state, advances it past the count and point
    words, and has numpy draw all its exponentials, so the extra words of
    the tail or of a rejected layer are read as numpy reads them.  A row
    of distinct points, positive masses and levels rising strictly to 1
    is canonical, and is built from its live cells alone.  Any other row
    runs ``_draw`` on a generator seeded from its bulk state: a count word
    where numpy may read a second one (from 2**32 atoms on, every one), a
    zero mass, a repeated point.
    """
    lo, hi = cfg.support_range
    width = hi - lo
    m = cfg.max_atoms
    we, ke = _exp_tables()
    per_pass = max(1, _PASS_CELLS // m)
    for start in range(0, cfg.trials, per_pass):
        k = min(per_pass, cfg.trials - start)
        states = _states(cfg.seed, range(start, start + k), roles)
        ns = np.ones((len(states), 1), np.int64)
        if m > 1:
            # from 2**32 atoms on every count word is gated; a gated trial draws no atoms here
            count = np.uint64(min(m, 1 << 32))
            prod = (_pcg_words(states, range(1, 2)) & _U32) * count
            ns = np.where(prod & _U32 < count, 0, 1 + (prod >> _S32)).astype(np.int64)
        cols = np.arange(ns.max())
        filled = cols < ns
        # the point words follow the count word, the exponential words a row's points
        first = 2 if m > 1 else 1
        w = _pcg_words(states, range(first, first + 2 * len(cols)))
        ri = np.take_along_axis(w, ns + cols, 1) >> _S3
        idx = (ri & _U255).astype(np.intp)
        ri >>= _S8
        e = np.where(filled, ri * we[idx], 0.0)
        # a row with an exponential off the fast path has numpy draw all its
        # exponentials, from its generator advanced past the count and points
        for i in np.flatnonzero(np.any(filled & (ri >= ke[idx]), axis=1)).tolist():
            n = int(ns[i, 0])
            bits = np.random.PCG64(_SeedState(states[i])).advance(first - 1 + n)
            e[i, :n] = np.random.Generator(bits).standard_exponential(n)
        # padded points sort last; a row with no atoms has masses 0 / 0
        xs = np.where(filled, lo + width * ((w[:, :len(cols)] >> _S11) * 2.0**-53), INF)
        with np.errstate(divide="ignore", invalid="ignore"):
            ps = e * (1.0 / np.cumsum(e, axis=1)[:, -1:])
            order = np.argsort(xs, axis=1, kind="stable")
            xs = np.take_along_axis(xs, order, 1)
            ps = np.take_along_axis(ps, order, 1)
            totals = np.array([math.fsum(row) for row in ps.tolist()])
            levels = np.cumsum(ps, axis=1) / totals[:, None]
        levels[cols == ns - 1] = 1.0
        # distinct points, positive masses and levels rising strictly to 1.0
        # are the reference's canonical form; a zero mass on the last point
        # still rises to the 1.0 set above, and a row of no atoms has a NaN total
        canon = np.abs(totals - 1.0) <= MASS_TOL
        canon &= np.all(((ps > 0.0) & (np.diff(levels, axis=1, prepend=0.0) > 0.0)) | ~filled, axis=1)
        canon &= np.all((xs[:, 1:] > xs[:, :-1]) | ~filled[:, 1:], axis=1)
        # a row's live cells lead it once sorted, so row i's are cells
        # ends[i] - ns[i] to ends[i] of the flat live cells
        live_xs, live_levels = tuple(xs[filled].tolist()), tuple(levels[filled].tolist())
        ends = np.cumsum(ns[:, 0])
        cuts = zip((ends - ns[:, 0]).tolist(), ends.tolist(), canon.tolist())
        dists = [_trusted(live_xs[a:b], live_levels[a:b]) if ok else None for a, b, ok in cuts]
        for i in np.flatnonzero(~canon).tolist():
            dists[i] = _draw(np.random.Generator(np.random.PCG64(_SeedState(states[i]))), cfg)
        yield from zip(*(dists[r * k:(r + 1) * k] for r in range(len(roles))))


def ext_gap(a: float, b: float) -> float:
    """|a - b|, zero for equal values, infinite ones included, and +inf beside a NaN."""
    if a == b:
        return 0.0
    gap = abs(a - b)
    return INF if math.isnan(gap) else gap


def _check_tol(tol: float) -> None:
    # a NaN or infinite tolerance would pass every trial, a negative one fail every trial
    if not 0.0 <= tol < INF:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")


@dataclass(frozen=True)
class PairWitness:
    """A two-distribution counterexample with both side evaluations."""

    trial: int
    f: DiscreteDist
    g: DiscreteDist
    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class PointWitness:
    """Adjacent grid points whose values fail the strict-increase margin."""

    x: float
    y: float
    value_x: float
    value_y: float
    gap: float


@dataclass(frozen=True)
class ProbeWitness:
    """A discretization step that broke the convergence pattern."""

    n: int
    value: float
    reference: float
    gap: float
    reason: str


Witness = Union[PairWitness, PointWitness, ProbeWitness]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one axiom check; a failing one carries the worst witness."""

    axiom: str
    seed: int
    trials: int
    violations: int
    worst_gap: float
    witness: Witness | None
    tail_gap: float | None = None

    @property
    def verdict(self) -> str:
        return "fail" if self.violations else "pass"

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class _Tally:
    """Violations seen by one axiom check, and the worst of them."""

    violations: int = 0
    worst_gap: float = 0.0
    witness: Witness | None = None

    def add(self, gap: float, witness: Witness) -> None:
        self.violations += 1
        if self.witness is None or gap > self.worst_gap:
            self.worst_gap = gap
            self.witness = witness

    def report(self, axiom: str, seed: int, trials: int, tail_gap: float | None = None) -> StabilityReport:
        return StabilityReport(
            axiom, seed, trials, self.violations, self.worst_gap, self.witness, tail_gap
        )


def _check_pairs(
    rho: Callable[[DiscreteDist], float],
    cfg: SamplerConfig,
    tol: float,
    axiom: str,
    combine: Callable[[DiscreteDist, DiscreteDist], DiscreteDist],
    pick: Callable[[float, float], float],
    stop_at_first: bool = False,
) -> StabilityReport:
    """The pair loop behind both stability checks and the counterexample search.

    The witness is the worst violating pair, or with ``stop_at_first``
    the first one, at which sampling stops.
    """
    _check_tol(tol)
    tally = _Tally()
    for trial, (F, G) in enumerate(_samples(cfg, (0, 1))):
        lhs = rho(combine(F, G))
        rhs = pick(rho(F), rho(G))
        gap = ext_gap(lhs, rhs)
        if gap > tol:
            tally.add(gap, PairWitness(trial, F, G, lhs, rhs, gap))
            if stop_at_first:
                break
    return tally.report(axiom, cfg.seed, cfg.trials)


def check_max_stability(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Value of the join against the max of the values, on sampled pairs."""
    return _check_pairs(rho, cfg, tol, "maxs", fsd_join, max)


def check_min_stability(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Value of the meet against the min of the values, on sampled pairs."""
    return _check_pairs(rho, cfg, tol, "mins", fsd_meet, min)


def check_nondegeneracy(
    rho: Callable[[DiscreteDist], float], grid: Sequence[float], tol: float = DEFAULT_TOL
) -> StabilityReport:
    """Point-mass values must rise strictly along the grid.

    This is the strengthened separation property: each step along the
    grid must gain more than tol.  The reported gap of a violation is
    the shortfall below that margin, +inf for equal infinities or a NaN.
    """
    _check_tol(tol)
    xs = [float(x) for x in grid]
    if len(xs) < 2 or any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
        raise ValueError("grid must be strictly increasing with at least two points")
    vals = [rho(point_mass(x)) for x in xs]
    tally = _Tally()
    for i in range(len(xs) - 1):
        vx, vy = vals[i], vals[i + 1]
        if vy > vx + tol:
            continue
        shortfall = (vx + tol) - vy
        if math.isnan(shortfall):  # equal infinities, or a NaN value
            shortfall = INF
        tally.add(shortfall, PointWitness(xs[i], xs[i + 1], vx, vy, shortfall))
    return tally.report("nd", 0, len(xs) - 1)


def check_fsd_consistency(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """The measure must not decrease along explicitly dominated pairs.

    Even trials shift every atom rightwards by increasing offsets, odd
    trials move a slice of mass from a lower atom onto a higher one;
    both constructions dominate the original by direct CDF comparison.
    A NaN on either side fails, with gap +inf.
    """
    _check_tol(tol)
    tally = _Tally()
    variant_rngs = _generators(cfg.seed, range(cfg.trials), 2)
    for trial, ((F,), rng) in enumerate(zip(_samples(cfg, (0,)), variant_rngs)):
        G = _dominate(F, rng, trial)
        lhs = rho(F)
        rhs = rho(G)
        if not lhs <= rhs + tol:
            gap = ext_gap(lhs, rhs)
            tally.add(gap, PairWitness(trial, F, G, lhs, rhs, gap))
    return tally.report("fsd", cfg.seed, cfg.trials)


def dominating_variant(F: DiscreteDist, cfg: SamplerConfig, trial: int) -> DiscreteDist:
    """A distribution constructed to dominate F in the dominance order.

    Built through the exact cumulative levels of F rather than its atom
    masses: re-deriving masses would renormalize and the ulp of drift
    that introduces is enough to break a pointwise CDF comparison.
    """
    return _dominate(F, np.random.default_rng([cfg.seed & _MASK64, trial, 2]), trial)


def _dominate(F: DiscreteDist, rng: np.random.Generator, trial: int) -> DiscreteDist:
    """``dominating_variant`` drawing from a given role-2 generator."""
    if trial % 2 == 0 or F.n_atoms == 1:
        shifts = np.sort(rng.uniform(0.1, 2.0, F.n_atoms))
        xs = [x + s for x, s in zip(F.xs, shifts.tolist())]
        return DiscreteDist.from_levels(xs, list(F.cum))
    i = int(rng.integers(0, F.n_atoms - 1))
    j = int(rng.integers(i + 1, F.n_atoms))
    moved = F.ps[i] * float(rng.uniform(0.2, 0.8))
    # lowering the levels on [i, j) is exactly the slice move i -> j;
    # each new level drops by the same float, so domination is exact
    levels = [c - moved if i <= k < j else c for k, c in enumerate(F.cum)]
    return DiscreteDist.from_levels(list(F.xs), levels)


def check_semicontinuity_probe(
    rho: Callable[[DiscreteDist], float],
    F: ContinuousCDF,
    n_max: int,
    tol: float = DEFAULT_TOL,
    rho_limit: float | None = None,
) -> StabilityReport:
    """Approach a continuous input from below and watch the values.

    Discretizing with n cells is dominated by discretizing with k * n,
    so along each doubling chain the value may only move up, and no term
    may exceed a reference that dominates it.  The supplied limit
    dominates every term.  Without one, the reference is the measure at
    a 4 * n_max discretization, which dominates only the terms whose n
    divides 4 * n_max; the others are not compared with it.  Nothing is
    asserted between consecutive cell counts: n = 3 and n = 4 interleave
    and are genuinely incomparable in the dominance order.  A NaN value
    fails each comparison it enters, and a NaN gap reads +inf.  A NaN
    ``rho_limit``, or an ``n_max`` above ``MAX_PROBE_CELLS``, is refused
    before any measure call.

    Lower semicontinuity itself is assumed, not checked: the right
    quantile q+(F) = sup{x : F(x) <= 0.3} is not lower semicontinuous,
    yet it passes this probe and the stability checks.  On float levels
    it differs from the left quantile only where a level sits exactly
    at 0.3, which no sampled or discretized input separates.
    """
    _check_tol(tol)
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if n_max > MAX_PROBE_CELLS:
        raise ValueError(f"n_max must be at most {MAX_PROBE_CELLS}, got {n_max}")
    if rho_limit is not None and math.isnan(rho_limit):
        raise ValueError("limit value must not be NaN")
    n_ref = 4 * n_max
    ref = rho(discretize(F, n_ref)) if rho_limit is None else float(rho_limit)
    values = [rho(discretize(F, n)) for n in range(1, n_max + 1)]
    tally = _Tally()
    for n, v in enumerate(values, start=1):
        if (rho_limit is not None or n_ref % n == 0) and not v <= ref + tol:
            gap = ext_gap(v, ref)
            tally.add(gap, ProbeWitness(n, v, ref, gap, "value exceeds the reference"))
    for n in range(1, n_max // 2 + 1):
        v_coarse = values[n - 1]
        v_fine = values[2 * n - 1]
        if not v_coarse <= v_fine + tol:
            gap = ext_gap(v_coarse, v_fine)
            tally.add(gap, ProbeWitness(2 * n, v_fine, ref, gap, "value fell on doubling refinement"))
    tail = 0.0 if ref == values[-1] else ref - values[-1]
    return tally.report("ls", 0, n_max, tail_gap=INF if math.isnan(tail) else tail)


def find_stability_counterexample(
    rho: Callable[[DiscreteDist], float],
    axiom: str,
    cfg: SamplerConfig,
    tol: float = DEFAULT_TOL,
) -> PairWitness | None:
    """First sampled pair violating the requested stability axiom, if any."""
    kind = axiom.lower()
    if kind not in ("maxs", "mins"):
        raise ValueError(f"axiom must be 'maxs' or 'mins', got {axiom!r}")
    combine, pick = (fsd_join, max) if kind == "maxs" else (fsd_meet, min)
    return _check_pairs(rho, cfg, tol, kind, combine, pick, stop_at_first=True).witness
