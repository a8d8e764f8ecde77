"""Closed-loop benchmark of diffdim: one caller, one instance at a time.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs instances of one workload for ``--seconds`` seconds in this (fresh)
process and prints one line per metric, a JSON line with the run's record
(environment, failures, checks, raw wall times) and, last, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload both ways, each in a
fresh process, and prints every metric with its unit.

Times are in *reference* seconds: each wall time is scaled by how long a
fixed calibration kernel, which does not touch diffdim, took around that
moment, relative to CALIBRATION_REF_S.  On a shared machine the speed
of the CPU swings by up to 2x over a few seconds; the kernel sees the same
swings, so the scaled times repeat from run to run where raw ones do not.
The raw wall-clock figures are kept in the record.

Exit codes: 0 success, 1 a wrong answer (the run stops at once), 2 the
benchmark cannot run here (for instance no ``src/diffdim`` beside it).
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A stuck instance is abandoned after this many seconds and counted as a
# failure, so the run still ends in time.
INSTANCE_TIMEOUT_S = 20.0
# Instances run before timing starts, drawn from a stream the run never
# measures: they pay numpy's first-call costs and fill the interpreter's
# caches without warming the answers of measured instances.
WARMUP_INSTANCES = 5
# Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 9
# The tail is reported at one fixed percentile: the highest of p90, p95,
# p99 that kept at least ten samples beyond it in every run of every
# workload at the commit that defined the benchmark (an expsets-antichains
# run holds about 420 instances).  A percentile picked per run from the
# sample count would jump from p95 to p99 when a faster machine or a faster
# commit completes more instances, and the metric would stop comparing.
TAIL_PERCENTILE = 95.0
# The calibration kernel runs after the first instance that ends this long
# after its previous run, and a wall time is scaled by the median of the
# kernel times nearest to it.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_NEIGHBOURS = 4
# Kernel time that defines one reference second: roughly its time on an
# unloaded 2-core x86-64 VM under CPython 3.11.
CALIBRATION_REF_S = 0.001

END_TO_END = {
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Set-up is timed from interpreter start until the first instance can run:
# import, then one trivial call into each layer so that any lazy
# initialisation is paid here.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from diffdim import ExponentSet, kolchin_polynomial, parse_system, volume
volume(ExponentSet(1, ((1,),)), 1)
kolchin_polynomial(parse_system("m = 1\\nn = 1\\neq: d[1]x1\\n"))
"""


class InstanceTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise InstanceTimeout(f"instance exceeded {INSTANCE_TIMEOUT_S} s")


def import_workloads():
    """Import diffdim from this checkout's src/, never from elsewhere."""
    if not (SRC / "diffdim" / "__init__.py").is_file():
        print(f"bench: no diffdim sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import diffdim

    if Path(diffdim.__file__).resolve().parent != SRC / "diffdim":
        print(f"bench: imported diffdim from {diffdim.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "git_sha": sha,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def calibration_kernel() -> float:
    """Time a fixed slice of the kind of interpreter work the library does
    (tuple-keyed dicts, exact fractions, integer gcds)."""
    start = time.perf_counter()
    work = {}
    x = Fraction(3, 7)
    for i in range(120):
        key = ((i % 7, i % 5, i % 3), i % 2)
        work[key] = work.get(key, 0) + gcd(i * 7919, 104729 * (i + 1))
        x = (x * 5 + Fraction(1, i + 1)) % 11
    max(work, key=lambda k: (sum(k[0]), k[1]) + k[0])
    return time.perf_counter() - start


def setup_seconds() -> tuple[float, list[float]]:
    """Median set-up time of fresh interpreters, in reference seconds, and
    the raw wall times."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = [calibration_kernel() for _ in range(3)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], check=True, timeout=60)
        wall = time.perf_counter() - start
        after = [calibration_kernel() for _ in range(3)]
        raw.append(wall)
        scaled.append(wall * CALIBRATION_REF_S / statistics.median(before + after))
    return statistics.median(scaled), raw


def tail(latencies: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE latency and the number of samples beyond it."""
    xs = sorted(latencies)
    beyond = int(len(xs) * (100.0 - TAIL_PERCENTILE) / 100.0)
    return xs[len(xs) - beyond - 1], beyond


class Loop:
    """Runs instances of one workload, timing each and checking its answer."""

    def __init__(self, wl, workload: str, seed: int, tracer=None):
        self.wl, self.workload, self.seed = wl, workload, seed
        self.runner = wl.RUNNERS[workload]
        self.reference = wl.load_reference(seed) if workload == "groebner-random" else None
        self.tracer = tracer
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.cal_times: list[float] = []
        self.cal_values: list[float] = []
        self.failures: list[dict] = []
        self.checked: dict[str, int] = {}
        self.deferred: dict[tuple[str, int], dict] = {}
        self.attempted = 0

    def one(self, index: int, stream: str = "run") -> None:
        inst = self.wl.make_instance(self.workload, self.seed, index, stream)
        measured = stream == "run"
        # Stored answers cover the measured stream only; warm-up answers are
        # checked after the run like those of an unstored seed.
        reference = self.reference if measured else None
        traced = self.tracer is not None and measured
        if traced:
            self.tracer.instance = index
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("instance"):
                    route = self.runner(inst, reference)
            else:
                route = self.runner(inst, reference)
        except self.wl.WrongAnswer:
            raise
        except Exception as exc:  # a failed instance is recorded; the run goes on
            if measured:
                self.attempted += 1
                self.failures.append(
                    {"index": index, "type": type(exc).__name__, "message": str(exc)}
                )
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if "answer" in inst:
            self.deferred.setdefault((stream, inst["index"]), inst)
        if not measured:
            return
        self.attempted += 1
        self.latencies.append(elapsed)
        self.starts.append(start)
        self.checked[route] = self.checked.get(route, 0) + 1

    def warm_up(self) -> None:
        for k in range(WARMUP_INSTANCES):
            self.one(k, stream="warmup")

    def run(self, seconds: float, count: int | None = None) -> None:
        """Run instances 0, 1, ... for ``seconds``, or exactly ``count``."""
        self._calibrate()
        start = last_cal = time.perf_counter()
        index = 0
        while (time.perf_counter() - start < seconds) if count is None else (index < count):
            self.one(index)
            index += 1
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                self._calibrate()
                last_cal = time.perf_counter()
        self._calibrate()

    def _calibrate(self) -> None:
        self.cal_times.append(time.perf_counter())
        self.cal_values.append(calibration_kernel())

    def scaled_latencies(self) -> list[float]:
        """Each latency in reference seconds, scaled by the kernel times
        measured nearest to the instance."""
        out = []
        half = CALIBRATION_NEIGHBOURS // 2
        for start, lat in zip(self.starts, self.latencies):
            i = bisect.bisect_left(self.cal_times, start)
            near = self.cal_values[max(0, i - half):i + half]
            out.append(lat * CALIBRATION_REF_S / statistics.median(near))
        return out

    def check_deferred(self) -> None:
        """Outside the timed region: answers without a stored reference are
        checked against the prolongation route."""
        for inst in self.deferred.values():
            self.wl.check_deferred(inst)


def wrong_answer(loop, exc) -> int:
    print(f"bench: WRONG ANSWER: {exc}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(loop.attempted, 1),
                      "failed": len(loop.failures), "metrics": {}}))
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run exactly N measured instances untraced and print their
    # summed scaled latency; the traced run uses it for tracing overhead.
    ap.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = import_workloads()
    if args.workload == "all":
        return run_all(wl, args)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS} or all")
    signal.signal(signal.SIGALRM, _alarm)

    if args.replay is not None:
        loop = Loop(wl, args.workload, args.seed)
        loop.warm_up()
        loop.run(0, count=args.replay)
        print(json.dumps({"replay_s": sum(loop.scaled_latencies())}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    if args.trace == 0:
        setup, record["setup_raw_s"] = setup_seconds()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    loop = Loop(wl, args.workload, args.seed, tracer)
    try:
        loop.warm_up()
        if tracer is not None:
            tracer.install()
        loop.run(args.seconds)
    except wl.WrongAnswer as exc:
        return wrong_answer(loop, exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.finish()
    try:
        loop.check_deferred()
    except wl.WrongAnswer as exc:
        return wrong_answer(loop, exc)

    done = len(loop.latencies)
    if done == 0:
        print(f"bench: no instance completed: {loop.failures[:3]}", file=sys.stderr)
        return 1
    scaled = loop.scaled_latencies()
    record.update({
        "completed": done,
        "fail_rate": len(loop.failures) / loop.attempted,
        "failures": loop.failures,
        "checked": loop.checked,
        "calibration_median_ms": 1000.0 * statistics.median(loop.cal_values),
    })
    if args.trace == 0:
        tail_s, beyond = tail(scaled)
        raw_tail_s, _ = tail(loop.latencies)
        record["tail"] = {"percentile": TAIL_PERCENTILE, "samples": done, "beyond": beyond}
        record["raw"] = {
            "throughput_ops": done / sum(loop.latencies),
            "latency_p50_ms": 1000.0 * statistics.median(loop.latencies),
            "latency_tail_ms": 1000.0 * raw_tail_s,
        }
        values = {
            "throughput_ops": done / sum(scaled),
            "latency_p50_ms": 1000.0 * statistics.median(scaled),
            "latency_tail_ms": 1000.0 * tail_s,
            "ok_rate": done / loop.attempted,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        metrics, record["self_s"] = spans.layer_metrics(tracer.spans)
        traced = sum(scaled)
        untraced = replay(args, done)
        record["trace_overhead"] = {
            "instances": done,
            "traced_s": traced,
            "untraced_s": untraced,
            "overhead_s": traced - untraced,
        }
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.json.gz")

    for name, m in metrics.items():
        print(f"{args.workload:20s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": True, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


def replay(args, count: int) -> float:
    """Summed scaled latency of the same ``count`` instances, untraced, in
    a fresh process with the same warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--replay", str(count)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["replay_s"]


def run_all(wl, args) -> int:
    """Every workload, untraced then traced, each in a fresh process; prints
    the metric lines and returns the first non-zero exit status."""
    status = 0
    for workload in wl.WORKLOADS:
        for trace_flag in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", trace_flag],
                capture_output=True, text=True,
            )
            for line in proc.stdout.splitlines():
                if not line.startswith("{"):
                    print(line)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
