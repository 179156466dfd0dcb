"""fsdrisk benchmark: one closed-loop caller, one process, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Workloads: construct, check, eval, represent (see perfbench/README.md).
With ``--trace 0`` the run repeats whole rounds of the workload's
operations for about ``--seconds`` and reports the end-to-end metrics.
With ``--trace 1`` it runs one round untraced and the same round traced,
and reports the per-layer metrics; the round is fixed, so counts repeat
exactly.  Every operation's output is checked.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record (environment, per-operation times, spans) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# Timings are scaled to a reference interpreter speed.  Shared virtual
# machines drift between speed states; on the 2-vCPU Intel Xeon VM this
# was built on, states up to 1.7x apart lasted seconds to tens of seconds.
# A fixed interpreter-bound loop, timed right before and right after each
# operation and every CAL_TICK_S while it runs, tracks that drift; dividing
# it out leaves the program's own cost.  CAL_REF_S is what one pass of the
# loop takes at the reference speed (that VM's fast state), so scaled
# times read in seconds at that speed.
CAL_REF_S = 3.5e-4
CAL_TICK_S = 0.05
_CAL_XS = tuple(i * 0.37 for i in range(64))


def _cal_step(k: int, acc: float) -> float:
    return _CAL_XS[bisect_right(_CAL_XS, (k % 200) * 0.1) - 1] + acc * 0.5


def calibration_pass() -> float:
    """Wall time of one pass of the calibration loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1000):
        acc = _cal_step(k, acc)
        acc += (k, acc)[0] * 1e-9
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples around and during one timed interval.

    During the interval a SIGALRM handler takes one sample per tick, in the
    main thread between bytecodes.  ``spent`` is all the time the probe's
    own sampling took, so the caller can take it out of the interval.
    """

    def __enter__(self) -> "SpeedProbe":
        t0 = time.perf_counter()
        self.samples = [statistics.median(calibration_pass() for _ in range(5))]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        self.spent = time.perf_counter() - t0
        return self

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_pass())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *_exc) -> None:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(statistics.median(calibration_pass() for _ in range(5)))
        self.spent += time.perf_counter() - t0

    def scale(self) -> float:
        # a sample the OS preempted is many times the others; speed states
        # differ by less than 2x, so anything beyond twice the median goes
        cut = 2.0 * statistics.median(self.samples)
        return CAL_REF_S / statistics.fmean(s for s in self.samples if s <= cut)


def timed(fn, start: float | None = None):
    """Run ``fn``; return its result, the exception it raised, scaled and raw seconds.

    The interval runs from ``start`` (a ``perf_counter`` reading; default
    now) until ``fn`` returns, less the probe's own time.
    """
    result = error = None
    if start is None:
        start = time.perf_counter()
    with SpeedProbe() as probe:
        try:
            result = fn()
        except Exception as exc:  # a program fault is a failed operation, timed like any other
            error = exc
    raw = time.perf_counter() - start - probe.spent
    return result, error, raw * probe.scale(), raw


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["construct", "check", "eval", "represent"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import fsdrisk, do the workload's set-up, print its time and exit")
    ap.add_argument("--spawned-at", type=float,
                    help="the parent's perf_counter reading when it spawned this set-up run")
    return ap.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "fsdrisk" / "__init__.py").is_file():
        sys.exit(f"error: no fsdrisk sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fsdrisk

    if Path(fsdrisk.__file__).resolve().parent != SRC / "fsdrisk":
        sys.exit(f"error: imported fsdrisk from {fsdrisk.__file__}, not from {SRC}")


def time_setups(args: argparse.Namespace) -> list[dict]:
    """Set up in fresh interpreters; each times itself from its spawn.

    The child does the timing so that the speed samples come from the CPU
    that does the work.  ``perf_counter`` is the system-wide monotonic
    clock, so the parent's reading at spawn is valid in the child.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only",
               "--spawned-at", repr(time.perf_counter())]
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                              capture_output=True, text=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def setup_only(args: argparse.Namespace) -> int:
    def work():
        load_program()
        from workloads import WORKLOADS

        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            WORKLOADS[args.workload](args.seed, workdir).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    _, error, seconds, raw = timed(work, start=args.spawned_at)
    if error is not None:
        raise error
    print(json.dumps({"seconds": seconds, "raw_seconds": raw}))
    return 0


def environment(args: argparse.Namespace) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fsdrisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Recorder:
    """Runs operations, checks their outputs and keeps one record per run."""

    def __init__(self):
        self.records: list[dict] = []

    def run(self, op, execute) -> dict:
        """Time ``execute(op.run)``; a raised exception or a failed check is a failure."""
        result, error, seconds, raw = timed(lambda: execute(op.run))
        if error is not None:
            error = repr(error)
        else:
            try:
                if not op.check(result):
                    error = "output check failed"
            except Exception as exc:
                error = f"output check raised {exc!r}"
        rec = {"label": op.label, "items": op.items, "seconds": seconds, "raw_seconds": raw,
               "ok": error is None}
        if error:
            rec["error"] = error
        self.records.append(rec)
        return rec


def counted(counter, fn):
    counter.install()
    try:
        return fn()
    finally:
        counter.uninstall()


def run_rounds(ops, seconds: float, recorder: Recorder, counter) -> None:
    """Whole rounds only, so every run sees the same mix of operations.

    The number of rounds is ``seconds`` over the first round's scaled
    time, rounded, and at least one; scaled time keeps that number the same
    whatever speed state the machine is in.
    """
    first_round = 0.0
    rounds = target = 1
    while True:
        for op in ops:
            before = counter.calls
            rec = recorder.run(op, lambda run: counted(counter, run))
            rec["measure_calls"] = counter.calls - before
            if rounds == 1:
                first_round += rec["seconds"]
        if rounds == 1:
            target = max(1, round(seconds / first_round))
        if rounds >= target:
            return
        rounds += 1


def end_to_end(records: list[dict], setups: list[dict], measure_calls: int) -> dict:
    times = [r["seconds"] for r in records]
    items = sum(r["items"] for r in records)
    done = sum(r["items"] for r in records if r["ok"])
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(s["seconds"] for s in setups), "s"),
        "items_per_s": (done / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "measure_calls_per_item": (measure_calls / items, "calls/item"),
    }


def traced_round(ops, recorder: Recorder, counter) -> dict:
    """One round untraced, then the same round traced; per-layer metrics."""
    from tracer import Tracer

    untraced = 0.0
    for op in ops:
        untraced += recorder.run(op, lambda run: counted(counter, run))["seconds"]
    tracer = Tracer()
    traced = 0.0
    items = 0
    family_calls = {}
    for op_id, op in enumerate(ops):
        before = tracer.calls["measures.call"]

        def execute(run, op_id=op_id, label=op.label):
            tracer.install()
            try:
                return tracer.run_op(op_id, label, run)
            finally:
                tracer.uninstall()

        rec = recorder.run(op, execute)
        rec["measure_calls"] = tracer.calls["measures.call"] - before
        family_calls[op.label] = rec["measure_calls"]
        traced += rec["seconds"]
        items += op.items
    metrics = tracer.layer_metrics(items)
    for family in ("var", "lambda", "affine"):
        metrics[f"measures.calls_{family}_table"] = (family_calls.get(f"construct-{family}", 0), "count")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return {"metrics": metrics, "spans": tracer.spans}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    load_program()
    from tracer import CallCounter
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if args.trace else time_setups(args)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        ops = workload.prepare()
        recorder = Recorder()
        counter = CallCounter()
        spans = []
        if args.trace:
            traced = traced_round(ops, recorder, counter)
            metrics, spans = traced["metrics"], traced["spans"]
        else:
            run_rounds(ops, args.seconds, recorder, counter)
            metrics = end_to_end(recorder.records, setups, counter.calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = recorder.records
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"env": env, "setup_runs": setups, "result": result, "ops": records, "spans": spans},
        indent=1) + "\n")
    print(f"# env {json.dumps(env)}")
    print(f"# fail_ratio {failed / len(records)} (failed {failed} of {len(records)} operations)")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
