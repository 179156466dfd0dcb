"""Step function evaluation, validation, and level crossings."""

import math

import pytest
from hypothesis import example, given, strategies as st

from fsdrisk.steps import DEC, INC, MonotoneStep

INF = math.inf


def test_eval_is_right_continuous():
    f = MonotoneStep((0.0, 1.0), (1.0, 2.0, 3.0))
    assert f(-0.5) == 1.0
    assert f(0.0) == 2.0  # value at a jump comes from the right piece
    assert f(0.5) == 2.0
    assert f(1.0) == 3.0
    assert f(10.0) == 3.0


def test_constant_step():
    f = MonotoneStep((), (0.7,), direction=DEC)
    assert f(-100.0) == 0.7
    assert f(100.0) == 0.7
    assert f.breakpoints == ()


def test_at_one_overrides_the_last_piece():
    h = MonotoneStep((0.5,), (0.0, 1.0), direction=INC, at_one=INF)
    assert h(0.4) == 0.0
    assert h(0.5) == 1.0
    assert h(0.999) == 1.0
    assert h(1.0) == INF
    assert h(1.5) == INF


def test_at_one_none_leaves_last_piece_in_charge():
    h = MonotoneStep((0.5,), (0.0, 1.0), direction=INC)
    assert h(1.0) == 1.0
    assert h(2.0) == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(breakpoints=(0.0,), values=(1.0,)),  # length mismatch
        dict(breakpoints=(INF,), values=(0.0, 1.0)),
        dict(breakpoints=(1.0, 1.0), values=(0.0, 1.0, 2.0)),
        dict(breakpoints=(1.0,), values=(0.0, math.nan)),
        dict(breakpoints=(1.0,), values=(2.0, 1.0)),  # not increasing
        dict(breakpoints=(1.0,), values=(0.5, 0.8), direction=DEC),
        dict(breakpoints=(), values=(1.0,), direction="flat"),
        dict(breakpoints=(), values=(2.0,), direction=INC, at_one=1.0),
        dict(breakpoints=(), values=(0.2,), direction=DEC, at_one=0.5),
        dict(breakpoints=(), values=(1.0,), at_one=math.nan),
    ],
)
def test_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        MonotoneStep(**kwargs)


def test_level_crossing_three_piece():
    lam = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)
    # the crossing is strict: the piece sitting exactly at p is not above it
    assert lam.level_crossing(0.5) == -2.0
    assert lam.level_crossing(0.3) == 2.0
    assert lam.level_crossing(0.1) == INF
    assert lam.level_crossing(0.9) == -INF
    assert lam.level_crossing(0.8) == -INF
    assert lam.level_crossing(0.2) == 2.0


def test_level_crossing_requires_decreasing():
    f = MonotoneStep((0.0,), (0.0, 1.0), direction=INC)
    with pytest.raises(ValueError):
        f.level_crossing(0.5)


@st.composite
def decreasing_steps(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    bps = sorted(
        draw(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    vals = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n + 1,
                max_size=n + 1,
            )
        ),
        reverse=True,
    )
    return MonotoneStep(tuple(bps), tuple(vals), direction=DEC)


LAM3 = MonotoneStep((-2.0, 2.0), (0.8, 0.5, 0.2), direction=DEC)


@given(decreasing_steps(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
# p equal to a curve value: the piece holding it is not above p
@example(LAM3, 0.8)
@example(LAM3, 0.5)
@example(LAM3, 0.2)
# no value is above a NaN p, so the crossing is -inf
@example(LAM3, math.nan)
def test_level_crossing_splits_the_line(lam, p):
    # the crossing is sup{t: lam(t) > p}, so the tests are on "> p"
    c = lam.level_crossing(p)
    if c == -INF:
        assert not lam(-1e9) > p
        return
    if c == INF:
        assert lam(1e9) > p
        return
    # strictly above just left of the crossing, not from it on
    assert lam(math.nextafter(c, -INF)) > p
    assert not lam(c) > p
