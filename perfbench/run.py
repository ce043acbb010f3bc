"""folprin benchmark: one workload per process, a closed loop with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload drop --seed 1 --seconds 5 --trace 0

The run builds the workload's tasks from the seed, then runs whole passes
over them, one task at a time on one thread, until at least `--seconds` of
task time has passed.  Every task's output is checked.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, which holds the end-to-end metrics (`--trace 0`) or the per-layer
metrics of a separately traced pass (`--trace 1`).  Details go to standard
error.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# Set-up times are scaled to a host on which a bare interpreter starts and
# prints a line in START_REF_S (see setup_probe).
START_REF_S = 0.05
# Calibration: see Sampler.  Times are scaled to a host on which one unit
# takes UNIT_REF_S; CALIBRATION_UNITS run between tasks.
UNIT_REF_S = 0.002
CALIBRATION_UNITS = 20
SAMPLE_S = 0.1

# workload -> (per-task time limit in seconds, tail percentile).  The
# percentile is the highest with at least ten tasks of one pass beyond it.
WORKLOADS = {
    "drop": (60, 61),
    "inv": (30, 92),
    "jets": (30, 83),
    "principalize": (45, 58),
}

_UNIT_TERMS = {(i, j): Fraction(i + 1, j + 2)
               for i in range(7) for j in range(7) if i + j <= 6}
_ZERO = Fraction(0)


class TaskTimeout(BaseException):
    """Raised in the task when its time limit expires; a BaseException so
    that no handler inside folprin swallows it."""


def unit() -> float:
    """Seconds taken by one calibration unit: a fixed product of two sparse
    dicts of Fractions, the shape of folprin's own work."""
    t0 = time.perf_counter()
    out = {}
    for e1, c1 in _UNIT_TERMS.items():
        for e2, c2 in _UNIT_TERMS.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, _ZERO) + c1 * c2
    return time.perf_counter() - t0


def calibration() -> list:
    return [unit() for _ in range(CALIBRATION_UNITS)]


class Sampler:
    """Times one call at a time on a host whose speed drifts by up to 2x
    over seconds.  A timer signal every SAMPLE_S seconds runs one
    calibration unit inside the call (and enforces the time limit).  The
    units' own time is taken out of the call's time, and the call's time
    is scaled by UNIT_REF_S over the unit time, piece by piece (see
    `scale`)."""

    def __init__(self):
        self.start = self.limit = self.spent = self.raw = 0.0
        self.units = []
        self.marks = []         # call time (units excluded) at each unit
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if t0 - self.start > self.limit:
            raise TaskTimeout()
        self.marks.append(t0 - self.start - self.spent)
        self.units.append(unit())
        self.spent += time.perf_counter() - t0

    def call(self, fn, limit):
        self.units = []
        self.marks = []
        self.spent = 0.0
        self.limit = limit
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.raw = time.perf_counter() - self.start - self.spent

    def scale(self, raw, before, after):
        """`raw` call seconds on the reference host.  A call too short for
        an in-call unit is scaled by the median of the units just before
        and after it.  A longer call is cut at its units, and each piece is
        scaled by the median of the seven units around it, those before and
        after the call included: the host's speed can change within a
        call, and a median shrugs off a unit that an interrupt lengthened."""
        if not self.units:
            return raw * UNIT_REF_S / statistics.median(before + after)
        units = before[-3:] + self.units + after[:3]
        bounds = [0.0] + self.marks + [raw]
        return sum((bounds[j + 1] - bounds[j]) * UNIT_REF_S
                   / statistics.median(units[j:j + 7])
                   for j in range(len(bounds) - 1))


def build_pass(workload, seed, passno, args):
    import workloads as W
    if workload == "drop":
        return W.drop_tasks(seed, passno, args.corpus_seed)
    if workload == "inv":
        return W.inv_tasks(seed, passno)
    if workload == "jets":
        return W.jets_tasks(seed, passno, args.corpus_seed)
    return W.principalize_tasks(ROOT)


class Tally:
    """Per-task records of one or more passes."""

    def __init__(self):
        self.raw = []           # task wall seconds
        self.scaled = []        # task seconds scaled by the calibration
        self.failed = 0
        self.wrong = 0
        self.checks = {}        # kind -> [passed, attempted]
        self.errors = []

    def add(self, kind, raw, scaled, outcome):
        self.raw.append(raw)
        self.scaled.append(scaled)
        counts = self.checks.setdefault(kind, [0, 0])
        counts[1] += 1
        if outcome == "ok":
            counts[0] += 1
            return
        self.failed += 1
        self.wrong += outcome == "wrong"


def run_passes(workload, seed, args, seconds=0.0, passes=None, first_pass=0,
               tracer=None):
    """Whole passes until `seconds` of task time (or exactly `passes`)."""
    limit, _ = WORKLOADS[workload]
    sampler = Sampler()
    tally = Tally()
    passno = first_pass
    gc.collect()
    before = calibration()
    while True:
        if tracer is not None:
            tracer.enabled = False
        tasks = build_pass(workload, seed, passno, args)
        for k, task in enumerate(tasks):
            if tracer is not None:
                tracer.current_task = k
                tracer.enabled = True
            try:
                out = sampler.call(task.run, limit)
                outcome = None
            except TaskTimeout:
                outcome = "timeout"
            except Exception as exc:        # any raise is a failed task
                outcome = "raised"
                tally.errors.append("%s: %s: %s" % (
                    task.label, type(exc).__name__, exc))
            if tracer is not None:
                tracer.enabled = False
                tracer.close_open_spans()
            if outcome is None:
                outcome = "ok" if task.check(out) else "wrong"
                if outcome == "wrong":
                    tally.errors.append("%s: wrong result" % task.label)
            raw = sampler.raw if outcome == "ok" else max(sampler.raw, limit)
            # every task starts from a collected heap, as in a fresh process
            gc.collect()
            after = calibration()
            tally.add(task.kind, raw, sampler.scale(raw, before, after),
                      outcome)
            before = after
        passno += 1
        done = passno - first_pass
        if (done >= passes) if passes else sum(tally.raw) >= seconds:
            return tally, done


def _until_ready(argv) -> float:
    """Wall seconds from spawning `argv` until it prints "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=str(ROOT), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % code)
    return elapsed


def setup_probe(workload, seed, args) -> float:
    """Seconds from the start of a fresh interpreter until the first task
    is ready (imports, corpus generation and parsing), scaled by the start
    of a bare interpreter timed just before it.  The calibration unit does
    not suit here: process start and imports drift less than it does and
    out of step with it, while they drift with a bare start."""
    bare = _until_ready([sys.executable, "-c", "print('ready')"])
    probe = _until_ready(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed),
         "--corpus-seed", str(args.corpus_seed)])
    return probe * START_REF_S / bare


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, args):
    _, tail_pct = WORKLOADS[workload]
    tally, passes = run_passes(workload, seed, args, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = [setup_probe(workload, seed, args)
                     for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(setup_samples)
    n = len(tally.scaled)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "tasks_per_s": metric(n / sum(tally.scaled), "1/s"),
        "task_p50_ms": metric(1000 * statistics.median(tally.scaled), "ms"),
        "task_tail_ms": metric(1000 * percentile(tally.scaled, tail_pct), "ms"),
        "pass_frac": metric((n - tally.failed) / n, "ratio"),
        "peak_rss_mib": metric(peak_rss_mib, "MiB"),
    }
    detail = {"workload": workload, "seed": seed, "passes": passes,
              "tasks": n, "tail_percentile": tail_pct,
              "task_wall_s": sum(tally.raw),
              "task_scaled_s": sum(tally.scaled),
              "raw_task_p50_ms": 1000 * statistics.median(tally.raw),
              "setup_samples_s": setup_samples,
              "checks": tally.checks, "errors": tally.errors[:20]}
    return tally, metrics, detail


def traced(workload, seed, args):
    """One untraced pass, then one traced pass of the same shape."""
    from tracing import Tracer
    plain, _ = run_passes(workload, seed, args, passes=1)
    tracer = Tracer()
    tracer.install()
    missed = tracer.unpatched()
    if missed:
        raise RuntimeError("unpatched bindings: %s" % ", ".join(missed))
    tally, _ = run_passes(workload, seed, args, passes=1, first_pass=1,
                          tracer=tracer)
    overhead = sum(tally.scaled) / sum(plain.scaled) - 1
    # span times are scaled by their task's calibration factor, as the
    # task times are
    scale = [s / r for s, r in zip(tally.scaled, tally.raw)]
    metrics = tracer.layer_metrics(sum(tally.scaled), overhead, scale)
    out_dir = ROOT / ".perfbench"
    tracer.write(out_dir / ("spans-%s-%d" % (workload, seed)))
    detail = {"workload": workload, "seed": seed, "tasks": len(tally.raw),
              "spans": str(out_dir), "checks": tally.checks,
              "errors": tally.errors[:20]}
    return tally, metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="seed of the base content (default: criterion "
                         "5's); another value gives a held-out corpus")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "folprin" / "__init__.py").is_file():
        print("perfbench: no folprin sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    if args.corpus_seed is None:
        args.corpus_seed = workloads.CORPUS_SEED
    if args.setup_probe:
        build_pass(args.workload, args.seed, 0, args)
        print("ready", flush=True)
        return 0

    run = traced if args.trace else end_to_end
    tally, metrics, detail = run(args.workload, args.seed, args)
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": len(tally.raw),
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
