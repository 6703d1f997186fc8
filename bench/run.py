"""Benchmark of the ballwalk command line on four fixed workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_1d --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 0

Load is a closed loop with one client: iterations run one after another,
each in a fresh interpreter (worker.py) that imports ``ballwalk.cli`` from
the checkout's ``src``, loads the workload config and calls
``ballwalk.cli.main``.  Every iteration's outputs are checked against
reference.json; a failed check or a non-zero exit counts as a failure.

With ``--trace 0`` the run first starts SETUP_RUNS // 2 interpreters that
only set up, then repeats the workload while the next iteration and the
closing SETUP_RUNS // 2 set-up runs would still end within ``--seconds``
(at least once).  It reports the end-to-end metrics: the mean of
wall_cal_s over the iterations, medians of setup_s and peak_rss_mb, and
ok_frac.  wall_cal_s and setup_s are in calibrated seconds: every
interpreter also times worker.probe, a fixed loop that does not touch
ballwalk, and its times are scaled by PROBE_NOMINAL_S over its probe
time, which cancels most of the shared host's drift in speed.  The
uncalibrated medians are printed as well.
With ``--trace 1`` it runs the workload once untraced and once traced and
reports the per-layer metrics of spans.py; the traced run
gives no end-to-end number.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Spans,
samples and the run environment are written under ``.bench_run/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check, data_fields, differing_fields
from spans import PER_LAYER, layer_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# workload -> CLI subcommand; BENCHMARK.json and README.md say why each is here
WORKLOADS = {
    "sweep_1d": "sweep",
    "spectrum_2d_walk": "spectrum",
    "spectrum_2d_witten": "spectrum",
    "simulate_1d": "simulate",
}

END_TO_END = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}
SETUP_RUNS = 4
# worker.probe's time on an otherwise idle host of the machine type in
# README.md; it only sets the scale of the calibrated seconds
PROBE_NOMINAL_S = 0.15
DEADLINE_S = 170.0       # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or inputs)."""


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrated(sample, key):
    """A worker's time in calibrated seconds: scaled by its probes' speed."""
    return sample[key] * PROBE_NOMINAL_S / statistics.fmean(sample["probe_s"])


def make_input(name, seed, run_dir):
    """The workload's config for this seed; only simulate_1d depends on it."""
    path = os.path.join(BENCH, "workloads", f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "walk" in doc:
        doc["walk"]["seed"] = seed % 2 ** 32
    out = os.path.join(run_dir, "input.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return out


class Runner:
    """Starts worker interpreters one at a time and checks their outputs."""

    def __init__(self, name, cfg_path, run_dir, reference, deadline):
        self.name = name
        self.subcommand = WORKLOADS[name]
        self.cfg_path = cfg_path
        self.run_dir = run_dir
        self.reference = reference
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **{v: "1" for v in BLAS_VARS})
        self.spawned = 0

    def _spawn(self, extra):
        self.spawned += 1
        result_path = os.path.join(self.run_dir, f"worker{self.spawned}.json")
        spawn = time.monotonic()
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), result_path,
               repr(spawn), self.cfg_path] + extra
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=sys.stderr, stdin=subprocess.DEVNULL)
        timed_out = False
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    timed_out = True
                    break
                time.sleep(0.01)
        finally:
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"exit": proc.returncode, "timed_out": timed_out,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode == 0:
            with open(result_path, encoding="utf-8") as fh:
                res.update(json.load(fh))
            if os.path.realpath(res["ballwalk"]) != os.path.realpath(
                    os.path.join(ROOT, "src", "ballwalk")):
                raise BenchError(f"ballwalk was imported from {res['ballwalk']}")
        return res

    def setup_only(self):
        res = self._spawn([])
        if res["exit"] != 0:
            raise BenchError(f"set-up failed with exit code {res['exit']}")
        return res

    def iterate(self, tag, trace=False):
        outdir = os.path.join(self.run_dir, tag)
        shutil.rmtree(outdir, ignore_errors=True)
        extra = []
        if trace:
            extra = ["--trace", os.path.join(self.run_dir, "spans.json")]
        res = self._spawn(extra + ["--run", self.subcommand, outdir])
        res["outdir"] = outdir
        problems = []
        if res["timed_out"]:
            problems.append("killed at the run deadline")
        elif res["exit"] != 0 or res.get("rc") != 0:
            problems.append(f"exit {res['exit']}, cli returned {res.get('rc')}")
        else:
            problems = check(self.subcommand, outdir, self.reference)
        res["problems"] = problems
        for p in problems:
            print(f"{self.name} {tag}: FAILED: {p}", file=sys.stderr)
        return res


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload; returns (result, record)."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "ballwalk", "cli.py")):
        raise BenchError(f"no ballwalk source under {ROOT}/src")
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    run_dir = os.path.join(ROOT, ".bench_run", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = make_input(name, seed, run_dir)
    runner = Runner(name, cfg_path, run_dir, reference, started + DEADLINE_S)

    if trace:
        iters = [runner.iterate("untraced"), runner.iterate("traced", trace=True)]
        setups = []
    else:
        t0 = time.monotonic()
        setups = [runner.setup_only() for _ in range(SETUP_RUNS // 2)]
        # the closing set-up runs take about as long as the opening ones
        reserve = time.monotonic() - t0
        iters = []
        t1 = time.monotonic()
        while True:
            iters.append(runner.iterate(f"iter{len(iters)}"))
            now = time.monotonic()
            next_end = now + (now - t1) / len(iters) + reserve
            if iters[-1]["timed_out"] or next_end - t0 > seconds:
                break
        setups += [runner.setup_only() for _ in range(SETUP_RUNS // 2)]

    failed = sum(1 for it in iters if it["problems"])
    done = [it for it in iters if "wall_s" in it]
    if not done:
        raise BenchError("no iteration ran to completion")
    raw = {}
    if trace:
        with open(os.path.join(run_dir, "spans.json"), encoding="utf-8") as fh:
            spans = json.load(fh)
        diffs = differing_fields(data_fields(iters[0]["outdir"]),
                                 data_fields(iters[1]["outdir"]))
        values = layer_metrics(spans, iters[0]["wall_s"], diffs)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
        counts = {}
    else:
        setup = [r for r in setups + iters if "setup_s" in r]
        rss = [it["peak_rss_mb"] for it in iters]
        values = {"wall_cal_s": statistics.fmean(calibrated(it, "wall_s")
                                                 for it in done),
                  "setup_s": statistics.median(calibrated(r, "setup_s")
                                               for r in setup),
                  "peak_rss_mb": statistics.median(rss),
                  "ok_frac": (len(iters) - failed) / len(iters)}
        counts = {"wall_cal_s": f"mean of {len(done)}",
                  "setup_s": f"median of {len(setup)}",
                  "peak_rss_mb": f"median of {len(rss)}"}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
                   for k in END_TO_END}
        raw = {"wall_s": statistics.median(it["wall_s"] for it in done),
               "setup_s": statistics.median(r["setup_s"] for r in setup),
               "probe_s": statistics.median(p for r in setup
                                            for p in r["probe_s"])}
    first = iters[0]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "cpu_model": _cpu_model(), "python": platform.python_version(),
                "numpy": first.get("numpy"), "scipy": first.get("scipy"),
                "blas_pin": first.get("blas_pin")},
        "samples": {"setup": setups, "iterations": iters},
        "sample_counts": counts,
        "uncalibrated_medians_s": raw,
        "fail_frac": failed / len(iters),
    }
    result = {"correct": failed == 0, "attempted": len(iters),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    return result, record


def describe(result, record):
    """Human-readable lines: environment, then each metric with unit and n."""
    name = record["workload"]
    lines = [f"env {json.dumps(dict(record['env'], seed=record['seed']))}"]
    for key, m in result["metrics"].items():
        n = record["sample_counts"].get(key)
        n = f"  ({n})" if n else ""
        lines.append(f"{name:<19} {key:<28} {m['value']:>14.6g} {m['unit']}{n}")
    for key, value in record["uncalibrated_medians_s"].items():
        lines.append(f"{name:<19} {'uncalibrated ' + key:<28} {value:>14.6g} s")
    lines.append(f"{name:<19} {'fail_frac':<28} {record['fail_frac']:>14.6g} "
                 f"ratio  ({result['failed']} of {result['attempted']} "
                 f"attempted)")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
            for line in describe(result, record):
                print(line)
            results[name] = result
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
