"""Monotone right-continuous step functions on the real line.

These are the two curve shapes the risk measures are parameterized by: an
increasing benchmark curve on [0, 1] that diverges at 1, and a decreasing
probability level curve with values in [0, 1].  Both are stored the same
way, as a finite list of jump points plus one value per piece, with the
value at a jump taken from the piece starting there (right-continuous).
For an increasing step that stored value is also the upper one-sided limit
at the jump, which is the evaluation convention the supremum formulas need.

The parameter checks at the bottom are shared by closed forms, measure
families and kernels; ``DualVarKernel``, ``DualBenchmarkKernel`` and
``DualPinnedKernel`` also check their own conditions inline.  A rising
benchmark curve takes -inf exactly when it does at 0, so one read there
refuses it, in the words of ``BenchmarkLossKernel``'s coarse probe.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg
from typing import Callable

INC = "inc"
DEC = "dec"


@dataclass(frozen=True)
class MonotoneStep:
    """Piecewise-constant monotone function.

    ``values`` has one entry more than ``breakpoints``: ``values[0]`` holds
    on ``(-inf, breakpoints[0])``, ``values[i]`` on
    ``[breakpoints[i-1], breakpoints[i])`` and ``values[-1]`` on
    ``[breakpoints[-1], inf)``.  ``at_one`` overrides the value at
    arguments >= 1.0; benchmark curves use it to pin the value at level 1
    (typically ``inf``) without carrying a breakpoint there.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    direction: str = INC
    at_one: float | None = None

    def __post_init__(self):
        if self.direction not in (INC, DEC):
            raise ValueError(f"direction must be {INC!r} or {DEC!r}, got {self.direction!r}")
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bps) + 1:
            raise ValueError("need exactly one value per piece (len(values) == len(breakpoints) + 1)")
        for b in bps:
            if not math.isfinite(b):
                raise ValueError(f"breakpoints must be finite, got {b}")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        for v in vals:
            if math.isnan(v):
                raise ValueError("step values must not be NaN")
        if self.direction == INC:
            ok = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        else:
            ok = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
        if not ok:
            raise ValueError(f"values are not monotone for direction {self.direction!r}")
        if self.at_one is not None:
            a1 = float(self.at_one)
            if math.isnan(a1):
                raise ValueError("at_one must not be NaN")
            if self.direction == INC and a1 < vals[-1]:
                raise ValueError("at_one below the last piece breaks monotonicity")
            if self.direction == DEC and a1 > vals[-1]:
                raise ValueError("at_one above the last piece breaks monotonicity")
            object.__setattr__(self, "at_one", a1)

    def __call__(self, t: float) -> float:
        if self.at_one is not None and t >= 1.0:
            return self.at_one
        return self.values[bisect_right(self.breakpoints, t)]

    def level_crossing(self, p: float) -> float:
        """Where a decreasing step crosses below level ``p``.

        Returns ``sup{t: f(t) > p}``, which for a right-continuous
        decreasing step equals ``inf{t: f(t) <= p}``.  ``-inf`` when the
        whole function sits at or below ``p``, ``inf`` when it never does.
        """
        if self.direction != DEC:
            raise ValueError("level_crossing is defined for decreasing steps")
        # the values fall, so those above p are a prefix; a NaN p has none
        above = bisect_left(self.values, -p, key=neg)
        if above == 0:
            return -math.inf
        if above == len(self.values):
            return math.inf
        return self.breakpoints[above - 1]


# -- parameter checks shared by closed forms, measure families and kernels --


def check_level(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError(f"level must lie strictly in (0, 1), got {a}")


def check_benchmark_curve(h: Callable[[float], float]) -> None:
    """+inf at 1, and neither NaN nor -inf at 0; a rising h takes -inf iff h(0) does."""
    if h(1.0) != math.inf:
        raise ValueError("benchmark curve must be +inf at 1")
    h0 = h(0.0)
    if math.isnan(h0):
        raise ValueError("benchmark curve evaluated to NaN")
    if h0 == -math.inf:
        raise ValueError("benchmark curve must not take -inf")


def check_level_curve(lam: MonotoneStep, positive: bool = False) -> None:
    """A decreasing level curve into [0, 1], or into (0, 1] when ``positive``."""
    if lam.direction != DEC:
        raise ValueError("level curve must be decreasing")
    if lam.at_one is not None:
        raise ValueError("level curve takes real arguments, at_one does not apply")
    for v in lam.values:
        if not 0.0 <= v <= 1.0 or (positive and v <= 0.0):
            band = "(0, 1]" if positive else "[0, 1]"
            raise ValueError(f"level curve values must lie in {band}, got {v}")


def check_pinned(x0: float, g: MonotoneStep) -> None:
    if not math.isfinite(x0):
        raise ValueError(f"pin location must be finite, got {x0}")
    if g.direction != DEC:
        raise ValueError("pinned value curve must be decreasing")
