"""The names the benchmark under perfbench/ imports and patches still exist.

perfbench/tracer.py wraps fsdrisk functions, methods and constructors by
name; a refactor that drops one breaks the benchmark, and this test makes
that show up in the suite instead.
"""

import sys
from pathlib import Path

from fsdrisk.dist import point_mass
from fsdrisk.measures import RiskMeasure, var_measure

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_counter_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    original_call = RiskMeasure.__dict__["__call__"]
    try:
        import tracer
        import workloads

        assert set(workloads.WORKLOADS) == {"construct", "check", "eval", "represent"}
        traced = tracer.Tracer()
        try:
            traced.install()
        finally:
            traced.uninstall()
        assert RiskMeasure.__dict__["__call__"] is original_call

        counter = tracer.CallCounter()
        counter.install()
        try:
            var_measure(0.3)(point_mass(1.0))
        finally:
            counter.uninstall()
        assert counter.calls == 1
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
