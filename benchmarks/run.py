"""mpgraphs benchmark.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it runs the workload's operations in a closed loop for S
seconds of operation time and reports the end-to-end metrics listed in
BENCHMARK.json.  With ``--trace 1`` it runs one untraced pass, then one pass
with every public mpgraphs function wrapped (see tracing.py), and reports
the per-layer metrics.  Either way every operation's output is checked
(oracle.py); the last line of stdout is the JSON result.

mpgraphs is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
import workloads
from tracing import CHECKERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
TRACE_SETUP_SAMPLES = 3
# A shared VM can change speed by 1.8x over tens of seconds as other tenants
# come and go (seen on a 2-core Xeon VM).  A fixed pure-Python kernel (the
# benchmark's own Petersen-pattern search on a fixed permutation) is timed
# every GAUGE_EVERY_S of operation time, and every end-to-end time is scaled
# to the speed at which the kernel takes GAUGE_REF_S.  The kernel is
# benchmark code, so a change to mpgraphs does not move it.
GAUGE_SIGMA = (9, 2, 13, 5, 0, 11, 7, 3, 12, 1, 8, 4, 10, 6)
GAUGE_REF_S = 0.006
GAUGE_EVERY_S = 0.25
# What work_per_s counts on each workload, printed alongside it.
WORK_NAMES = {
    "census-sparse": "census.subsets_per_s",
    "census-dense": "census.subsets_per_s",
    "witness": "witness.calls_per_s",
    "scan": "scan.instances_per_s",
    "cli": "cli.calls_per_s",
}


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu,
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


def _setup_sample(workload: str, seed: int, importtime: bool = False) -> dict:
    """Time one fresh interpreter that imports mpgraphs and builds the
    inputs.  With ``importtime`` the child runs under ``-X importtime`` so
    numpy's share of the import can be read off."""
    argv = [sys.executable]
    if importtime:
        argv += ["-X", "importtime"]
    argv += [str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    spawned = time.perf_counter_ns()
    proc = subprocess.run(
        argv, cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True, text=True, check=True
    )
    ended = time.perf_counter_ns()
    probe = json.loads(proc.stdout.splitlines()[-1])
    sample = {
        "setup_s": (ended - spawned) / 1e9,
        "interpreter_ms": (probe["t0"] - spawned) / 1e6,
        "import_ms": probe["import_ms"],
    }
    if importtime:
        sample["numpy_ms"] = _cumulative_import_ms(proc.stderr, "numpy")
    return sample


def _cumulative_import_ms(importtime_log: str, package: str) -> float:
    """Cumulative import time of ``package`` from a ``-X importtime`` log;
    0 when the package was not imported."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == package:
            return int(parts[1]) / 1000
    return 0.0


class Runner:
    """Executes operations, times them and checks their output.

    The first output of each input is verified by the operation's own
    independent check and, when ``golden.json`` has a digest for it, against
    that digest; every later output of the same input must repeat the first
    digest.  An exception, a mismatch or a failed check is one failed op."""

    def __init__(self, golden: dict[str, str]) -> None:
        self.golden = golden
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.emitted_bytes = 0

    def execute(self, op, tracer=None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            raw = op.run(tracer)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            self.failures.append(f"{op.key}: {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        text = op.render(raw)
        if op.emits:
            self.emitted_bytes += len(text.rpartition("exit=")[0].encode("utf-8"))
        self._verify(op, text)
        return elapsed

    def _verify(self, op, text: str) -> None:
        got = oracle.digest(text)
        want = self.reference.get(op.key)
        if want is not None:
            if got != want:
                self.failures.append(f"{op.key}: output changed between runs")
            return
        problem = op.check(text)
        if problem is None and self.golden.get(op.key, got) != got:
            problem = "output differs from the recorded digest"
        if problem is not None:
            self.failures.append(f"{op.key}: {problem}")
        else:
            self.reference[op.key] = got


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _gauge() -> float:
    """Seconds the fixed gauge kernel takes now (median of three)."""
    took = []
    for _ in range(3):
        start = time.perf_counter()
        oracle.witnesses(GAUGE_SIGMA)
        took.append(time.perf_counter() - start)
    return statistics.median(took)


def _summary(samples: list, setup: list, scale) -> dict[str, float]:
    """Timing metrics from (op, seconds, gauge index) samples and (seconds,
    gauge index) set-up samples, each time multiplied by scale(index).

    Each operation's latency is the median over that input's repetitions in
    the run, so a stall that hits one repetition does not move the
    percentiles or the throughput."""
    times: dict[str, list[float]] = {}
    for op, took, i in samples:
        times.setdefault(op.key, []).append(took * scale(i))
    typical = {key: statistics.median(ts) for key, ts in times.items()}
    latencies = [typical[op.key] for op, _, _ in samples]
    return {
        "setup_s": statistics.median(took * scale(i) for took, i in setup),
        "work_per_s": sum(op.work for op, _, _ in samples) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _quantile(latencies, 90) * 1e3,
        "op_p99_ms": _quantile(latencies, 99) * 1e3,
    }


def _measure(wl, runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    """Run shuffled passes until the operations have taken ``seconds``, with
    the set-up samples spread over the run.  Returns the metrics scaled to
    the reference machine speed, and the same metrics unscaled."""
    rng = random.Random(f"order:{wl.name}:{seed}")
    gauge = [_gauge()]
    samples: list = []
    setup: list = []
    spent = since_gauge = 0.0
    while spent < seconds:
        order = list(wl.ops)
        rng.shuffle(order)
        for op in order:
            if since_gauge >= GAUGE_EVERY_S:
                gauge.append(_gauge())
                since_gauge = 0.0
            if len(setup) < SETUP_SAMPLES and spent >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append((_setup_sample(wl.name, seed)["setup_s"], len(gauge) - 1))
                since_gauge += setup[-1][0]
            took = runner.execute(op)
            samples.append((op, took, len(gauge) - 1))
            spent += took
            since_gauge += took
            if spent >= seconds:
                break
    while len(setup) < SETUP_SAMPLES:
        setup.append((_setup_sample(wl.name, seed)["setup_s"], len(gauge) - 1))
    gauge.append(_gauge())

    def to_reference(i: int) -> float:
        return GAUGE_REF_S / ((gauge[i] + gauge[i + 1]) / 2)

    if wl.child_rss_kb:
        rss_kb = max(wl.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = _summary(samples, setup, to_reference)
    raw = _summary(samples, setup, lambda i: 1.0)
    scaled["peak_rss_mb"] = raw["peak_rss_mb"] = rss_kb / 1024
    return scaled, raw


def _pool_speedup(runner: Runner) -> float:
    """G_12 census at jobs=1 over jobs=min(2, cores); 0 on one core."""
    import mpgraphs.family as family

    census = sys.modules["mpgraphs.census"]
    jobs = min(2, len(os.sched_getaffinity(0)))
    if jobs < 2:
        return 0.0
    G = family.generate_gk(12).graph
    timings, results = [], []
    for j in (1, jobs):
        runner.attempted += 1
        start = time.perf_counter()
        results.append(census.enumerate_m_p10(G, jobs=j))
        timings.append(time.perf_counter() - start)
    if results[0] != results[1]:
        runner.failures.append(f"enumerate_m_p10 jobs={jobs} differs from jobs=1")
    return timings[0] / timings[1]


def _traced(name: str, seed: int, runner: Runner) -> dict[str, float]:
    start = time.perf_counter()
    wl = workloads.build(name, seed, ROOT)
    untraced_s = time.perf_counter() - start
    order = list(range(len(wl.ops)))
    random.Random(f"order:{name}:{seed}").shuffle(order)
    untraced_s += sum(runner.execute(wl.ops[i]) for i in order)

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced_wl = workloads.build(name, seed, ROOT)
        traced_s = time.perf_counter() - start
        emitted_before = runner.emitted_bytes
        traced_s += sum(runner.execute(traced_wl.ops[i], tracer) for i in order)
    finally:
        tracer.uninstall()
    tracer.dump(ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json")

    stats = tracer.layer_stats()
    metrics: dict[str, float] = {}
    for layer, s in stats.items():
        metrics[f"{layer}.calls"] = s["calls"]
        metrics[f"{layer}.self_ms"] = s["self_ms"]
    engine_calls = stats.get("witness.find_p10_through", {}).get("calls", 0)
    builds = tracer.nested_count("crossing.build_crossing_graph", "witness.find_p10_through")
    examined = tracer.counters.get("census.subsets_examined", 0)
    found = tracer.counters.get("census.witnesses_found", 0)
    metrics.update(
        {
            "cli.emit_bytes": runner.emitted_bytes - emitted_before,
            "crossing.builds_per_engine_call": builds / engine_calls if engine_calls else 0.0,
            "census.subsets_examined": examined,
            "census.witnesses_found": found,
            "census.hit_ratio": found / examined if examined else 0.0,
            "census.checkers.self_ms": sum(
                stats.get(f"census.{c}", {}).get("self_ms", 0.0) for c in CHECKERS
            ),
            "census.pool_speedup": _pool_speedup(runner) if name == "census-sparse" else 0.0,
            "trace.overhead_frac": traced_s / untraced_s - 1,
            "trace.coverage_frac": sum(s["self_ms"] for s in stats.values()) / 1e3 / traced_s,
        }
    )
    return metrics


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpgraphs" / "__init__.py").is_file():
        print(f"error: no mpgraphs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpgraphs

    if Path(mpgraphs.__file__).resolve().parent != (SRC / "mpgraphs").resolve():
        print(f"error: imported mpgraphs from {mpgraphs.__file__}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    env = _environment()
    runner = Runner(oracle.load_golden())

    if args.trace:
        samples = [_setup_sample(args.workload, args.seed, importtime=True) for _ in range(TRACE_SETUP_SAMPLES)]
        metrics = _traced(args.workload, args.seed, runner)
        metrics["startup.interpreter_ms"] = statistics.median(s["interpreter_ms"] for s in samples)
        numpy_ms = statistics.median(s["numpy_ms"] for s in samples)
        metrics["startup.import_numpy_ms"] = numpy_ms
        metrics["startup.import_mpgraphs_ms"] = statistics.median(s["import_ms"] for s in samples) - numpy_ms
        wanted = spec["per_layer"]
    else:
        # One CPU for the benchmark and its children, so that the gauge runs
        # where the timed work runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        wl = workloads.build(args.workload, args.seed, ROOT)
        metrics, raw = _measure(wl, runner, args.seconds, args.seed)
        wanted = spec["end_to_end"]
    env["loadavg_end"] = _loadavg()

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    result = {}
    for m in wanted:
        # Layers the workload never entered report 0 calls and 0 ms.
        value = metrics.get(m["name"], 0) if args.trace else metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "" if args.trace else f"  (unscaled {raw[m['name']]:.6f})"
        if m["name"] == "work_per_s":
            note += f"  {WORK_NAMES[args.workload]}"
        print(f"{m['name']:<40} {value:>16.6f} {m['unit']}{note}")
    if not args.trace:
        print(f"{'op_p99_ms':<40} {metrics['op_p99_ms']:>16.6f} ms  (unscaled {raw['op_p99_ms']:.6f})")
        print(f"{'error_rate':<40} {failed / runner.attempted:>16.6f} ratio  ({failed} of {runner.attempted} ops)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
