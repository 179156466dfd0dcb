"""Measure-call counting and per-layer tracing, applied from outside fsdrisk.

Nothing under ``src/`` knows about this module.  Both classes patch the
module and class attributes that fsdrisk's own callers look up at call
time, and put the originals back on ``uninstall``.

``CallCounter`` is what untraced runs use: it swaps ``RiskMeasure.__call__``
for a body that bumps a counter and then calls ``self.fn`` exactly like the
original, so it adds no call frame.

``Tracer`` is the traced run.  Every wrapped call pushes a frame on one
stack, so a layer's self time is its calls' wall time minus the part spent
in wrapped calls beneath them.  Coarse boundaries (an operation, the CLI
entry, argument parsing, the stability gate, threshold and table phases,
JSON dumps, axiom checks, verification) also leave a span record with the
operation id and the parent span; per-call hot paths (measure calls,
``two_point``, sampler draws, constructors) only add to counters and
accumulated time.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

import fsdrisk.cli
import fsdrisk.engine
import fsdrisk.harness
import fsdrisk.jsonio
import fsdrisk.kernels
from fsdrisk.dist import DiscreteDist
from fsdrisk.engine import PsiGrid
from fsdrisk.kernels import GridKernel
from fsdrisk.measures import RiskMeasure

# program layers, in the order the report lists them; "steps" is only
# reached through measures and is timed as part of that layer
LAYERS = ("cli", "jsonio", "dist", "measures", "kernels", "engine", "harness")


class CallCounter:
    """Counts risk-measure evaluations while installed."""

    def __init__(self):
        self.calls = 0
        self._original = None

    def install(self) -> None:
        self._original = RiskMeasure.__dict__["__call__"]
        counter = self

        def __call__(self, F):
            counter.calls += 1
            return self.fn(F)

        RiskMeasure.__call__ = __call__

    def uninstall(self) -> None:
        RiskMeasure.__call__ = self._original


class Tracer:
    """Spans, counters and per-layer self time for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._frames: list[list] = []  # [child seconds, span id or None]
        self._span_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._in_threshold = 0
        self._phase: dict | None = None

    # -- timing core --------------------------------------------------------

    def wrap(self, fn, name, layer, span=False, after=None):
        """Time ``fn`` under ``name``; ``after(args, result)`` runs untimed."""
        frames = self._frames

        def traced(*args, **kwargs):
            sid = self._open_span(name) if span else None
            frame = [0.0, sid]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dt = t1 - t0
                if frames:
                    frames[-1][0] += dt
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[layer] += dt - frame[0]
                if span:
                    self._close_span(sid, t0, t1)
            if after is not None:
                after(args, return_value)
            return return_value

        return traced

    def _open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append({"id": sid, "op": self.op_id, "name": name, "parent": parent})
        self._span_stack.append(sid)
        return sid

    def _close_span(self, sid: int, t0: float, t1: float) -> None:
        self._span_stack.pop()
        self.spans[sid]["start"] = t0
        self.spans[sid]["end"] = t1

    def _add_span(self, name: str, parent: int, t0: float, t1: float) -> None:
        self.spans.append(
            {"id": len(self.spans), "op": self.op_id, "name": name, "parent": parent,
             "start": t0, "end": t1}
        )

    def run_op(self, op_id: int, label: str, fn):
        """Run one benchmark operation as the root span ``op``."""
        self.op_id = op_id
        sid = len(self.spans)
        try:
            return self.wrap(fn, "op", "bench", span=True)()
        finally:
            self.spans[sid]["label"] = label

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_fn(self, module, attr, name, layer, span=False, after=None):
        self._patch(module, attr, self.wrap(getattr(module, attr), name, layer, span, after))

    def _patch_classmethod(self, cls, attr, name, layer):
        func = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self.wrap(func, name, layer)))

    def install(self) -> None:
        cli, engine, harness, jsonio, kernels = (
            fsdrisk.cli, fsdrisk.engine, fsdrisk.harness, fsdrisk.jsonio, fsdrisk.kernels
        )
        # cli: the entry point and the parser it builds on every call
        self._patch_fn(cli, "main", "cli.main", "cli", span=True)
        self._patch_fn(cli, "build_parser", "cli.build_parser", "cli", after=self._wrap_parse_args)

        # jsonio, at the names cli imported and at the module itself, where
        # library callers and report_to_json look dump_json up
        self._patch_fn(cli, "parse_json_text", "jsonio.parse", "jsonio", after=self._count_text_in)
        self._patch_fn(cli, "load_json_file", "jsonio.parse", "jsonio", after=self._count_file_in)
        for attr in ("parse_distribution_obj", "parse_measure_obj", "parse_kernel_obj"):
            self._patch_fn(cli, attr, "jsonio.parse_obj", "jsonio")
        for module in (cli, jsonio):
            self._patch_fn(module, "dump_json", "jsonio.dump", "jsonio", span=True,
                           after=self._count_bytes_out)
            self._patch_fn(module, "psi_grid_to_obj", "jsonio.dump", "jsonio", span=True)
        for attr in ("superlevel_rows", "write_superlevel_csv"):
            self._patch_fn(cli, attr, "jsonio.superlevel", "jsonio", span=True)

        # dist: constructors on the class, lattice and two_point at their callers
        self._patch_classmethod(DiscreteDist, "from_atoms", "dist.from_atoms", "dist")
        self._patch_classmethod(DiscreteDist, "from_levels", "dist.from_levels", "dist")
        self._patch_fn(engine, "two_point", "dist.two_point", "dist")
        for attr in ("fsd_join", "fsd_meet"):
            self._patch_fn(harness, attr, "dist.join_meet", "dist")

        # measures: every RiskMeasure evaluation, whoever calls it
        self._patch(RiskMeasure, "__call__",
                    self.wrap(RiskMeasure.__dict__["__call__"], "measures.call", "measures",
                              after=self._count_atoms))

        # kernels
        for attr in ("sup_psi_eval", "inf_phi_eval"):
            self._patch_fn(kernels, attr, f"kernels.{attr}", "kernels")
        self._patch(GridKernel, "__post_init__",
                    self.wrap(GridKernel.__dict__["__post_init__"], "kernels.grid_build",
                              "kernels", span=True))

        # engine
        for module in (cli, engine):
            self._patch(module, "construct_psi",
                        self._wrap_construct(getattr(module, "construct_psi")))
        self._patch(engine, "h_threshold", self._wrap_threshold(engine.h_threshold))
        self._patch_fn(engine, "two_point_eval", "engine.two_point_eval", "engine",
                       after=self._count_table_call)
        self._patch(PsiGrid, "__post_init__", self._wrap_psigrid(PsiGrid.__dict__["__post_init__"]))
        self._patch_fn(engine, "verify_representation", "engine.verify", "engine", span=True)
        self._patch_fn(engine, "recover_lambda", "engine.recover", "engine", span=True)

        # harness: construct_psi imports the gate from harness at call
        # time; the CLI's checks go through the names cli imported
        self._patch_fn(harness, "check_max_stability", "engine.gate", "harness", span=True)
        for attr in ("check_max_stability", "check_min_stability"):
            self._patch_fn(cli, attr, "harness.check", "harness", span=True)
        self._patch_fn(harness, "sample_distribution", "harness.sample", "harness")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- special wrappers and notes -------------------------------------------

    def _wrap_parse_args(self, _args, parser) -> None:
        parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args", "cli", span=True)

    def _count_text_in(self, args, _result) -> None:
        self.extra["jsonio.bytes_in"] += len(args[0].encode())

    def _count_file_in(self, args, _result) -> None:
        self.extra["jsonio.bytes_in"] += os.path.getsize(args[0])

    def _count_bytes_out(self, _args, text) -> None:
        self.extra["jsonio.bytes_out"] += len(text.encode())

    def _count_atoms(self, args, _result) -> None:
        self.extra["measures.atoms"] += args[1].n_atoms

    def _count_table_call(self, _args, _result) -> None:
        if self._phase is not None and not self._in_threshold:
            self._phase["table_calls"] += 1

    def _wrap_construct(self, fn):
        traced = self.wrap(fn, "engine.construct", "engine", span=True)

        def construct_psi(rho, x_grid, p_grid, *args, **kwargs):
            outer = self._phase
            self._phase = {"sid": len(self.spans), "first": None, "last": None,
                           "grid": None, "table_calls": 0}
            try:
                grid = traced(rho, x_grid, p_grid, *args, **kwargs)
            finally:
                phase, self._phase = self._phase, outer
            if phase["first"] is not None:
                self._add_span("engine.thresholds", phase["sid"], phase["first"], phase["last"])
                self._add_span("engine.table", phase["sid"], phase["last"], phase["grid"])
                self.extra["engine.table_s"] += phase["grid"] - phase["last"]
            self.extra["engine.table_calls"] += phase["table_calls"]
            self.extra["engine.table_nodes"] += len(grid.x_grid) * len(grid.p_grid)
            return grid

        return construct_psi

    def _wrap_threshold(self, fn):
        traced = self.wrap(fn, "engine.threshold", "engine")

        def h_threshold(*args, **kwargs):
            evals = self.calls["engine.two_point_eval"]
            self._in_threshold += 1
            t0 = perf_counter()
            try:
                h = traced(*args, **kwargs)
            finally:
                self._in_threshold -= 1
            t1 = perf_counter()
            # one evaluation at the search bound, then one per bisection step
            self.extra["engine.bisect_steps"] += max(self.calls["engine.two_point_eval"] - evals - 1, 0)
            if self._phase is not None:
                if self._phase["first"] is None:
                    self._phase["first"] = t0
                self._phase["last"] = t1
            return h

        return h_threshold

    def _wrap_psigrid(self, fn):
        traced = self.wrap(fn, "engine.psigrid", "engine", span=True)

        def __post_init__(grid):
            if self._phase is not None and self._phase["grid"] is None:
                self._phase["grid"] = perf_counter()
            return traced(grid)

        return __post_init__

    # -- report ------------------------------------------------------------------

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        c, t, x = self.calls, self.incl, self.extra
        measure_calls = c["measures.call"]
        nodes = x["engine.table_nodes"]
        metrics = {
            "cli.parse_args_s": (t["cli.parse_args"], "s"),
            "jsonio.parse_calls": (c["jsonio.parse"], "count"),
            "jsonio.parse_s": (t["jsonio.parse"] + t["jsonio.parse_obj"], "s"),
            "jsonio.bytes_in": (x["jsonio.bytes_in"], "B"),
            "jsonio.dump_s": (t["jsonio.dump"], "s"),
            "jsonio.bytes_out": (x["jsonio.bytes_out"], "B"),
            "jsonio.superlevel_s": (t["jsonio.superlevel"], "s"),
            "dist.from_atoms_calls": (c["dist.from_atoms"], "count"),
            "dist.from_atoms_s": (t["dist.from_atoms"], "s"),
            "dist.from_levels_calls": (c["dist.from_levels"], "count"),
            "dist.from_levels_s": (t["dist.from_levels"], "s"),
            "dist.join_meet_calls": (c["dist.join_meet"], "count"),
            "dist.join_meet_s": (t["dist.join_meet"], "s"),
            "dist.two_point_calls": (c["dist.two_point"], "count"),
            "dist.two_point_s": (t["dist.two_point"], "s"),
            "measures.calls": (measure_calls, "count"),
            "measures.s": (t["measures.call"], "s"),
            "measures.atoms_per_call": (x["measures.atoms"] / measure_calls if measure_calls else 0.0,
                                        "atoms/call"),
            "measures.calls_per_item": (measure_calls / items if items else 0.0, "calls/item"),
            "kernels.sup_psi_calls": (c["kernels.sup_psi_eval"], "count"),
            "kernels.sup_psi_s": (t["kernels.sup_psi_eval"], "s"),
            "kernels.inf_phi_s": (t["kernels.inf_phi_eval"], "s"),
            "kernels.grid_build_calls": (c["kernels.grid_build"], "count"),
            "kernels.grid_build_s": (t["kernels.grid_build"], "s"),
            "engine.gate_s": (t["engine.gate"], "s"),
            "engine.threshold_calls": (c["engine.threshold"], "count"),
            "engine.threshold_s": (t["engine.threshold"], "s"),
            "engine.bisect_steps": (x["engine.bisect_steps"], "count"),
            "engine.table_s": (x["engine.table_s"], "s"),
            "engine.table_calls_per_node": (x["engine.table_calls"] / nodes if nodes else 0.0,
                                            "calls/node"),
            "engine.verify_s": (t["engine.verify"], "s"),
            "engine.recover_s": (t["engine.recover"], "s"),
            "harness.sample_calls": (c["harness.sample"], "count"),
            "harness.sample_s": (t["harness.sample"], "s"),
            "harness.check_s": (t["harness.check"] + t["engine.gate"], "s"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return metrics
