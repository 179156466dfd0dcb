"""Seeded randomized verification of the stability axioms.

Every check here consumes a measure as an opaque callable and reports
pass or fail with a replayable witness.  Randomness is fully pinned:
trial ``t``, role ``r`` draws from PCG64 seeded with
``SeedSequence([seed mod 2**64, t, r])``, so a report is reproducible
from its config alone, trial by trial, in any order.
``sample_distribution`` is the reference draw, on numpy's own calls,
that replays any witness from its trial index.  The check loops compute
the seed states in bulk, a block of trials per numpy pass, and read
each atom count and support point from raw PCG64 words as numpy would.
Each trial's generator draws its own words; numpy computes a pass of
trials' points, masses and levels, as the reference orders its sums,
and a row that is not canonical takes the reference draw.

Gaps are measured in extended reals with equal infinities counting as
zero; all shipped measures are breakpoint-exact, so the default
tolerance only has to absorb float accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dist import ContinuousCDF, DiscreteDist, discretize, fsd_join, fsd_meet, point_mass
from .dist import MASS_TOL, _trusted

INF = math.inf
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

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
        ps = _flat_dirichlet(rng, n)
        # an exactly zero component is astronomically rare but would be
        # rejected downstream; redraw from the same stream
        if min(ps) > 0.0:
            return DiscreteDist.from_atoms(zip(xs.tolist(), ps))


def _flat_dirichlet(rng: np.random.Generator, n: int) -> list[float]:
    """n masses, draw for draw as ``rng.dirichlet(np.ones(n))`` makes them.

    Standard exponentials times one over their sum, added left to right:
    the builtin ``sum`` of floats is compensated from Python 3.12 on.
    """
    es = rng.standard_exponential(n).tolist()
    s = 0.0
    for e in es:
        s += e
    inv = 1.0 / s
    return [e * inv for e in es]


# SeedSequence's hash constants, as numpy defines them since 1.17
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# trials per bulk pass: memory stays flat for any trial count, and a
# search that stops at its first witness wastes at most one block
_BLOCK = 1024
# padded cells per sampling pass, so a pass's arrays stay small for any max_atoms
_PASS_CELLS = 1024


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


def _generators(seed: int, trials: range, role: int) -> Iterator[np.random.Generator]:
    """The generator of each trial in ``trials`` for one role, in order.

    Each equals ``np.random.default_rng([seed & _MASK64, trial, role])``,
    state for state.  Trials from 2**32 on take more entropy words than
    the bulk pass covers and are seeded one by one instead.
    """
    seed &= _MASK64
    fixed = _uint32_words(seed)
    for lo in range(trials.start, trials.stop, _BLOCK):
        block = range(lo, min(lo + _BLOCK, trials.stop))
        if block.stop - 1 > _MASK32:
            for trial in block:
                yield np.random.default_rng([seed, trial, role])
            continue
        n = len(block)
        words = [np.full(n, w, np.uint32) for w in fixed]
        words.append(np.arange(block.start, block.stop, dtype=np.uint32))
        words.append(np.full(n, role, np.uint32))
        for state in _seed_states(words):
            yield np.random.Generator(np.random.PCG64(_SeedState(state)))


def _samples(cfg: SamplerConfig, role: int) -> Iterator[DiscreteDist]:
    """``sample_distribution(cfg, t, role)`` for every trial t of ``cfg``.

    Per trial, its own generator gives the count n = 1 + (lo32 *
    max_atoms >> 32), ``integers``' Lemire step on one word's low half
    (no word for one atom), then n raw words and n exponentials.  Per
    pass, numpy computes on a zero-padded (trials, widest count) array
    each point as ``uniform``'s lo + width * ((w >> 11) * 2**-53), the
    masses over their left-to-right sum, the sort and the levels, as the
    scalar code orders them.  A row of distinct points, positive masses
    and levels rising strictly to 1 is canonical; any other takes the
    reference draw, as does a count word where numpy may read a second
    one, and max_atoms >= 2**32.
    """
    lo, hi = cfg.support_range
    width = hi - lo
    m = cfg.max_atoms
    per_pass = max(1, _PASS_CELLS // m)
    rngs = iter(_generators(cfg.seed, range(cfg.trials), role))
    for start in range(0, cfg.trials, per_pass):
        counts, words, exps = [], [], []
        for rng in islice(rngs, per_pass):
            bits = rng.bit_generator
            n = 1
            if m > 1:
                prod = (bits.random_raw() & _MASK32) * m
                # always under m from 2**32 atoms on, where numpy counts
                # another way; a gated trial draws no atoms here
                n = 0 if prod & _MASK32 < m else 1 + (prod >> 32)
            counts.append(n)
            words.append(bits.random_raw(n))
            exps.append(rng.standard_exponential(n))
        ns = np.array(counts)[:, None]
        cols = np.arange(ns.max())
        filled = cols < ns
        w = np.zeros(filled.shape, np.uint64)
        w[filled] = np.concatenate(words)
        e = np.zeros(filled.shape)
        e[filled] = np.concatenate(exps)
        # padded points sort last; a row with no atoms has masses 0 / 0
        xs = np.where(filled, lo + width * ((w >> np.uint64(11)) * 2.0**-53), INF)
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
        rows = zip(counts, canon.tolist(), xs.tolist(), levels.tolist())
        for trial, (n, ok, xr, lr) in enumerate(rows, start):
            yield _trusted(tuple(xr[:n]), tuple(lr[:n])) if ok else sample_distribution(cfg, trial, role)


def ext_gap(a: float, b: float) -> float:
    """|a - b| with equal values, infinite ones included, giving zero."""
    if a == b:
        return 0.0
    return abs(a - b)


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
    for trial, (F, G) in enumerate(zip(_samples(cfg, 0), _samples(cfg, 1))):
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
    the shortfall below that margin.
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
        if vx == vy and math.isinf(vx):
            shortfall = INF
        else:
            shortfall = (vx + tol) - vy
        tally.add(shortfall, PointWitness(xs[i], xs[i + 1], vx, vy, shortfall))
    return tally.report("nd", 0, len(xs) - 1)


def check_fsd_consistency(
    rho: Callable[[DiscreteDist], float], cfg: SamplerConfig, tol: float = DEFAULT_TOL
) -> StabilityReport:
    """The measure must not decrease along explicitly dominated pairs.

    Even trials shift every atom rightwards by increasing offsets, odd
    trials move a slice of mass from a lower atom onto a higher one;
    both constructions dominate the original by direct CDF comparison.
    """
    _check_tol(tol)
    tally = _Tally()
    variant_rngs = _generators(cfg.seed, range(cfg.trials), 2)
    for trial, (F, rng) in enumerate(zip(_samples(cfg, 0), variant_rngs)):
        G = _dominate(F, rng, trial)
        lhs = rho(F)
        rhs = rho(G)
        if lhs > rhs + tol:
            gap = lhs - rhs
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
    and are genuinely incomparable in the dominance order.  A limit
    above ``MAX_PROBE_CELLS`` is refused before any measure call.

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
    n_ref = 4 * n_max
    ref = rho(discretize(F, n_ref)) if rho_limit is None else float(rho_limit)
    values = [rho(discretize(F, n)) for n in range(1, n_max + 1)]
    tally = _Tally()
    for n, v in enumerate(values, start=1):
        if (rho_limit is not None or n_ref % n == 0) and v > ref + tol:
            gap = v - ref
            tally.add(gap, ProbeWitness(n, v, ref, gap, "value exceeds the reference"))
    for n in range(1, n_max // 2 + 1):
        v_coarse = values[n - 1]
        v_fine = values[2 * n - 1]
        if v_coarse > v_fine + tol:
            gap = v_coarse - v_fine
            tally.add(gap, ProbeWitness(2 * n, v_fine, ref, gap, "value fell on doubling refinement"))
    tail = 0.0 if ref == values[-1] else ref - values[-1]
    return tally.report("ls", 0, n_max, tail_gap=tail)


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
