"""homcat benchmark: one workload per process, closed loop, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload bialgebra-sweep --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 runs one traced pass (spans around the public functions of every
layer) between untraced passes and reports the per-layer metrics, the
kernel probe and the tracing overhead. stdout ends with a labels line
(environment, tail percentile, sample counts, fail ratio) and then the
result line: {"correct", "attempted", "failed", "metrics"}. Every reported
time is scaled to a nominal host speed by a reference loop run between ops
(hostspeed.py).
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("bialgebra-sweep", "yd-coherence", "cli-session")
SETUP_REPEATS = 5
# Fixed per workload so that the metric keeps its meaning when the program
# gets faster: the highest of 50/90/99 that leaves at least ten samples
# beyond it in one run of the seed program.
TAIL_PERCENTILE = {"bialgebra-sweep": 90, "yd-coherence": 99,
                   "cli-session": 90}
MAX_REPORTED_FAILURES = 5

_clock = time.perf_counter


class PassLog:
    """Op timings, verdicts and failures of the passes that count."""

    def __init__(self, clock):
        self.clock = clock
        self.passes = []  # per counted pass: [(label, start, raw seconds)]
        self.verdicts = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_pass(self, battery, record=True):
        """Run one pass; returns its ops as (label, start, raw seconds)."""
        # every pass starts from the same collector state, so the cyclic
        # collections inside it fall at the same points each time
        gc.collect()
        ctx = {}
        timed = []
        for label, op in battery.ops:
            self.clock.maybe_sample()
            t0 = _clock()
            try:
                verdicts, ok = op(ctx)
                reason = None if ok else "correctness gate failed"
            except Exception:  # the op boundary: record it and keep going
                verdicts, ok = 0, False
                reason = traceback.format_exc()
            timed.append((label, t0, _clock() - t0))
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED_FAILURES:
                    self.failures.append(f"{label}: {reason}")
            if record:
                self.verdicts += verdicts
        if record:
            self.passes.append(timed)
        return timed

    def scaled(self, timed):
        """[(label, seconds)] of one pass, scaled to the nominal host."""
        return [(label, self.clock.scale(t0, dt)) for label, t0, dt in timed]


def _span_factor(clock, timed):
    # one host factor over a whole pass, for times measured inside it
    t0 = timed[0][1]
    return clock.factor(t0, timed[-1][1] + timed[-1][2] - t0)


def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment(seed):
    from homcat import QQ, KERNEL_BACKEND
    return {
        "python": sys.version.split()[0],
        "kernel_backend": KERNEL_BACKEND,
        "rational_type": type(QQ.one).__name__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def fresh_import():
    """Import the program, and the benchmark modules that call it, anew.

    Returns (tracer, workloads, kernel_probe). Dropping the cached modules
    first makes every set-up repetition pay the program's import.
    """
    for name in list(sys.modules):
        if name in ("tracer", "workloads", "kernel_probe") or \
                name == "homcat" or name.startswith("homcat."):
            del sys.modules[name]
    import kernel_probe
    import tracer
    import workloads
    return tracer, workloads, kernel_probe


def _set_up(name, seed, small):
    """One set-up: import, fixtures and, for the CLI session, its files."""
    tracer, workloads, kernel_probe = fresh_import()
    workdir = None
    if name == "cli-session":
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="cli-", dir=WORK)
        try:
            battery = workloads.cli_session(seed, workdir, small)
        except BaseException:
            shutil.rmtree(workdir)
            raise
    elif name == "yd-coherence":
        battery = workloads.yd_coherence(seed, small)
    else:
        battery = workloads.bialgebra_sweep(seed, small)
    return battery, workdir, tracer, kernel_probe


def run_workload(name, seed, seconds, trace, small=False):
    """Run one workload; returns (result, labels, end_to_end, per_layer).

    end_to_end and per_layer map metric names to (value, unit); per_layer is
    empty unless trace is set. Every time is scaled to the nominal host of
    hostspeed.py; the labels carry the raw pass time beside it.
    """
    clock = hostspeed.HostClock()
    workdirs = []
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            clock.sample()
            t0 = _clock()
            battery, workdir, tracer, kernel_probe = _set_up(name, seed, small)
            setups.append((t0, _clock() - t0))
            workdirs.append(workdir)
        clock.sample()
        originals = tracer.originals()

        log = PassLog(clock)
        cwd = os.getcwd()
        if workdir is not None:
            os.chdir(workdir)
        try:
            log.run_pass(battery, record=False)  # caches fill, lazy set-up ends
            window_end = _clock() + seconds
            if trace:
                tr = tracer.Tracer()
                tr.install()
                try:
                    traced = log.run_pass(
                        battery._replace(ops=tr.tag_ops(battery.ops)),
                        record=False)
                finally:
                    tr.uninstall()
            while True:
                log.run_pass(battery)
                if _clock() >= window_end:
                    break
            clock.sample()
        finally:
            os.chdir(cwd)
    finally:
        for workdir in workdirs:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    problems = tracer.unwrapped_problems(originals)
    for p in problems:
        log.failures.append(f"wrapper left in place: {p}")

    passes = [log.scaled(timed) for timed in log.passes]
    latencies = [dt for p in passes for _, dt in p]
    largest = [dt for p in passes for label, dt in p if label in battery.largest]
    wall_s = statistics.median(sum(dt for _, dt in p) for p in passes)
    pct = TAIL_PERCENTILE[name]
    n = len(latencies)
    end_to_end = {
        "setup_s": (statistics.median(clock.scale(t0, dt) for t0, dt in setups),
                    "s"),
        "wall_s": (wall_s, "s"),
        # every pass returns the same verdicts, so this is per median pass
        "verdicts_per_s": (log.verdicts / len(passes) / wall_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (_nearest_rank(latencies, pct) * 1e3, "ms"),
        "largest_s": (statistics.median(largest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    per_layer = {}
    if trace:
        per_layer = _scale_seconds(tr.layer_metrics(),
                                   _span_factor(clock, traced))
        t0 = _clock()
        probe = kernel_probe.run(seed)
        dt = _clock() - t0
        clock.sample()
        per_layer.update(_scale_seconds(probe, clock.factor(t0, dt)))
        traced_wall = sum(dt for _, dt in log.scaled(traced))
        per_layer["trace_overhead"] = (traced_wall / wall_s, "ratio")

    labels = dict(environment(seed), workload=name, trace=int(bool(trace)),
                  op_tail_percentile=pct,
                  op_samples=n, op_samples_beyond_tail=n - math.ceil(pct / 100 * n),
                  passes=len(passes), largest_instances=list(battery.largest),
                  raw_wall_s=statistics.median(
                      sum(dt for _, _, dt in timed) for timed in log.passes),
                  ref_median_s=clock.median_s(),
                  ref_nominal_s=hostspeed.REF_NOMINAL_S,
                  fail_ratio=log.failed / log.attempted)
    result = {
        "correct": log.failed == 0 and not problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (per_layer if trace else end_to_end).items()},
    }
    for line in log.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return result, labels, end_to_end, per_layer


def _scale_seconds(metrics, factor):
    return {k: (v * factor if u == "s" else v, u)
            for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "homcat")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, labels, _, _ = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace)
    print(json.dumps({"labels": labels}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
