"""Benchmark entry point: one workload, one process, one client, one thread.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``levitan`` from its
``src/``.  Set-up is timed three times, each a complete cold set-up in its own
process (this one and two helpers), and reported as the median.  The timed
phase runs whole rounds of the workload's operations, closed loop, starting
rounds until ``--seconds`` have passed; every operation's output is checked
after its timer stops.

The machine's speed drifts by up to 1.5x, in phases of seconds to minutes
(see README.md).  So every time is also taken against a calibration
workload that shares no code with the program, sampled at most
``CAL_INTERVAL_S`` apart, and is reported on a reference clock on which
that calibration takes ``CAL_REF_MS``: raw time times ``CAL_REF_MS`` over
the mean of the calibration samples just before and just after it.  Raw
times and the full timeline are kept in the report.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it record the machine, the calibration, and every operation kind's sample
count and percentiles; a full report lands in ``perfbench-out/``.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# The thread cap must be in place before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "op_ms.kind_p50_gmean": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
HELPER_TIMEOUT = 150
CAL_REF_MS = 2.0
CAL_INTERVAL_S = 0.2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one complete set-up, print it, and exit")
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")
    return ns


def _import_program():
    """Put the checkout's src/ first on the path and import the package
    from there; anything else would benchmark the wrong code."""
    src = ROOT / "src"
    if not (src / "levitan" / "__init__.py").is_file():
        raise SystemExit("error: no levitan package under %s; run from a "
                         "source checkout" % src)
    sys.path.insert(0, str(src))
    import levitan
    if Path(levitan.__file__).resolve().parent != (src / "levitan").resolve():
        raise SystemExit("error: levitan imported from %s, not %s"
                         % (levitan.__file__, src))


class Calibration:
    """A fixed piece of work shaped like the program's own, timed to track
    the machine's speed.  It shares no code with the program.

    Two parts, each timed as the fastest of three passes and then summed:
    Python float arithmetic plus numpy vector work over 64k doubles; and
    scipy work with Python callbacks, an adaptive ``quad`` over a small
    numpy product and a DOP853 ``solve_ivp``, the shapes of the flow
    integral and the ODE route.
    """

    def __init__(self):
        import numpy as np
        from scipy.integrate import quad, solve_ivp
        self._np, self._quad, self._ivp = np, quad, solve_ivp
        self._data = np.random.default_rng(0).standard_normal(65536)
        small = self._data[:10]
        self._integrand = lambda x: float(np.prod(small - x))
        self._rhs = lambda x, y: [y[1], -y[0]]
        self.samples = []        # (perf_counter, ms)
        self.parts = []          # ms of each part, per sample

    def _vector(self):
        acc = 0.0
        for i in range(2000):
            acc += (i * 0.5) % 3.0
        run = self._np.cumsum(self._data * 1.0001)
        float(self._np.exp(-self._np.abs(run)).sum())

    def _scipy(self):
        self._quad(self._integrand, 0.0, 1.0)
        self._ivp(self._rhs, (0.0, 3.0), [1.0, 0.0], method="DOP853",
                  rtol=1e-9, atol=1e-9)

    def sample(self) -> float:
        parts = []
        for part in (self._vector, self._scipy):
            best = math.inf
            for _ in range(3):
                t = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - t)
            parts.append(1e3 * best)
        self.samples.append((time.perf_counter(), sum(parts)))
        self.parts.append(parts)
        return sum(parts)

    def scale(self, before: int) -> float:
        """Reference-clock factor for work between samples ``before`` and
        ``before + 1``."""
        pair = self.samples[before:before + 2]
        return CAL_REF_MS / statistics.fmean(ms for _, ms in pair)


def _setup(ns, work_dir: Path):
    """One complete set-up; returns (workload, raw seconds, scaled seconds).
    The first calibration sample runs once numpy has loaded; its own time is
    not counted."""
    import workloads
    cal = Calibration()
    t = time.perf_counter()
    cal.sample()
    own = time.perf_counter() - t
    work = workloads.setup(ns.workload, ns.seed, work_dir)
    raw = time.perf_counter() - _T0 - own
    cal.sample()
    return work, raw, raw * cal.scale(0)


def _thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def _blas_threads() -> int:
    """Threads in this process after one BLAS call large enough to fan out."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((800, 800))
    float((a @ a).sum())
    return _thread_count()


def _machine(threads_after_blas: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads_after_blas": threads_after_blas}


def _helper_setups(ns, n: int) -> list:
    """Complete set-ups in fresh helper processes, one after another; each
    returns (raw, scaled) seconds."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             ns.workload, "--seed", str(ns.seed), "--seconds", str(ns.seconds),
             "--trace", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=HELPER_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("set-up helper failed:\n" + proc.stderr)
        raw, scaled = proc.stdout.split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def _percentiles(ms: list) -> dict:
    """The median, plus the highest of p90/p99/p99.9 with at least ten
    samples beyond it."""
    ms = sorted(ms)
    out = {"n": len(ms), "p50_ms": statistics.median(ms)}
    for name, q in (("p99.9_ms", 0.999), ("p99_ms", 0.99), ("p90_ms", 0.9)):
        if len(ms) * (1.0 - q) >= 10:
            out[name] = ms[min(len(ms) - 1, math.ceil(q * len(ms)) - 1)]
            break
    return out


def _timed_phase(work, seconds: float, cal: Calibration, tracer):
    """Whole rounds, closed loop; a round started before the deadline runs
    to its end.  Returns one record per completed operation."""
    from checks import CheckFailure

    ops = []      # (kind, start, raw seconds, last calibration index, op id)
    attempted = failed = 0
    failures, wrong = [], []
    rounds = 0
    if tracer:
        tracer.end_setup()
    start = time.perf_counter()
    cal.sample()
    while True:
        for kind, call, check in work.round():
            attempted += 1
            if time.perf_counter() - cal.samples[-1][0] >= CAL_INTERVAL_S:
                cal.sample()
            scope = (tracer.operation(attempted, "op." + work.NAME, kind)
                     if tracer else nullcontext())
            try:
                with scope:
                    t = time.perf_counter()
                    out = call()
                    dt = time.perf_counter() - t
            except Exception as exc:  # the program failed this operation
                failed += 1
                failures.append({"kind": kind, "error": type(exc).__name__,
                                 "message": str(exc)[:300]})
                continue
            ops.append((kind, t, dt, len(cal.samples) - 1, attempted))
            try:
                counts = check(out)
            except CheckFailure as exc:
                wrong.append({"kind": kind, "check": str(exc)[:300]})
                continue
            if tracer and counts:
                tracer.op_counts[-1].update(counts)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    cal.sample()
    return {"ops": ops, "attempted": attempted, "failed": failed,
            "failures": failures, "wrong": wrong, "rounds": rounds,
            "wall_s": wall}


def _end_to_end(ms_by_kind: dict, completed: int, setup_s: float) -> dict:
    p50s = [statistics.median(v) for v in ms_by_kind.values()]
    busy_s = sum(sum(v) for v in ms_by_kind.values()) / 1e3
    values = {
        "setup_s": setup_s,
        "ops_per_s": completed / busy_s if busy_s else 0.0,
        "op_ms.kind_p50_gmean": (math.exp(statistics.fmean(
            math.log(v) for v in p50s)) if p50s else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def main(argv=None) -> int:
    ns = _parse(argv)
    _import_program()
    import workloads
    if ns.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (ns.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    out_dir = OUT / ns.workload
    work_dir = out_dir / ("work-%d" % os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if ns.trace:
        # traced from set-up on, so the set-up's flows and touch searches
        # show as spans outside any operation
        import spans
        tracer = spans.Tracer()
    try:
        with spans.install(tracer) if tracer else nullcontext():
            work, raw, scaled = _setup(ns, work_dir)
            if ns.setup_only:
                print("%.9f %.9f" % (raw, scaled))
                return 0

            threads = _blas_threads()
            if threads != 1:
                print("error: %d threads after a BLAS call; the thread cap "
                      "did not take effect" % threads, file=sys.stderr)
                return 3
            setups = [(raw, scaled)] + _helper_setups(ns, SETUP_REPEATS - 1)

            cal = Calibration()
            phase = _timed_phase(work, ns.seconds, cal, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    scale = {op: cal.scale(i) for _, _, _, i, op in phase["ops"]}
    scaled_ms, raw_ms = {}, {}
    for kind, _, dt, _, op in phase["ops"]:
        raw_ms.setdefault(kind, []).append(1e3 * dt)
        scaled_ms.setdefault(kind, []).append(1e3 * dt * scale[op])
    completed = len(phase["ops"])
    e2e = _end_to_end(scaled_ms, completed,
                      statistics.median(s for _, s in setups))
    e2e_raw = _end_to_end(raw_ms, completed,
                          statistics.median(r for r, _ in setups))
    kinds = {k: dict(_percentiles(v), raw_p50_ms=statistics.median(raw_ms[k]))
             for k, v in sorted(scaled_ms.items())}
    cal_ms = [ms for _, ms in cal.samples]
    report = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
              "trace": ns.trace, "machine": _machine(threads),
              "setups_s": setups, "rounds": phase["rounds"],
              "wall_s": phase["wall_s"],
              "calibration_ms": {"n": len(cal_ms), "ref": CAL_REF_MS,
                                 "min": min(cal_ms), "max": max(cal_ms),
                                 "median": statistics.median(cal_ms)},
              "end_to_end": e2e, "end_to_end_raw": e2e_raw, "kinds": kinds,
              "failures": phase["failures"], "wrong": phase["wrong"],
              "timeline": {"ops": [op[:3] for op in phase["ops"]],
                           "calibration": [(t, ms, parts) for (t, ms), parts
                                           in zip(cal.samples, cal.parts)]}}
    metrics = e2e
    if tracer:
        metrics = tracer.metrics(scale, scaled / raw)
        report["per_layer"] = metrics
        base = out_dir / ("seed%d-trace0.json" % ns.seed)
        if base.is_file():
            untraced = json.loads(base.read_text())["end_to_end"]
            report["tracing_overhead"] = {
                k: e2e[k]["value"] - untraced[k]["value"] for k in e2e}
        tracer.write(out_dir / ("seed%d-spans.jsonl" % ns.seed))
    (out_dir / ("seed%d-trace%d.json" % (ns.seed, ns.trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print("calibration_ms " + json.dumps(report["calibration_ms"],
                                         sort_keys=True))
    print("setup_s runs (raw, scaled) " + " ".join(
        "(%.4f, %.4f)" % s for s in setups))
    print("end_to_end_raw " + json.dumps(
        {k: v["value"] for k, v in e2e_raw.items()}, sort_keys=True))
    for kind, st in kinds.items():
        print("kind %-34s " % kind + " ".join(
            "%s=%.6g" % (k, v) for k, v in st.items()))
    for row in phase["failures"] + phase["wrong"]:
        print("problem " + json.dumps(row, sort_keys=True))
    if tracer:
        print("end_to_end_traced " + json.dumps(
            {k: v["value"] for k, v in e2e.items()}, sort_keys=True))
        print("tracing_overhead " + json.dumps(
            report.get("tracing_overhead", "no untraced run with this seed "
                       "in perfbench-out; run --trace 0 first"),
            sort_keys=True))
    print(json.dumps({"correct": not phase["wrong"],
                      "attempted": phase["attempted"],
                      "failed": phase["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
