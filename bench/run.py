"""closeeval benchmark: whole error studies, timed end to end and per layer.

Usage (from the root of a closeeval checkout):

    python3 bench/run.py --workload kite-sweep --seed 1 --seconds 20 --trace 0

Each timed study is a fresh interpreter running one ``closeeval.cli.main``
call, as a CLI user pays for it, with a single BLAS thread.
The run repeats the study until --seconds have passed, checks every
study's outputs (bench/check.py) and prints the median of each metric
with its sample count, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics that BENCHMARK.json lists, in
its units.  --trace 1 alternates untraced and traced studies and reports
BENCHMARK.json's per-layer metrics from the traced ones (bench/tracer.py),
with the tracing overhead as traced minus untraced study_s.  The run exits
1 if any study failed or its check did not pass, and 2 if the checkout
holds no closeeval sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from check import CheckError, check_outputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STUDY_TIMEOUT_S = 150
# Extra launches per timed study that stop just before the study call, so
# that setup_s, which is short and noisy, has several samples per run.
SETUP_LAUNCHES = 5


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """The git commit of the checkout, or a digest of its sources when the
    checkout is not a git repository."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "closeeval")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


class Runner:
    """Launches studies of one workload in fresh interpreters."""

    def __init__(self, root: str, workload, work: str):
        self.root = root
        self.workload = workload
        self.work = work
        # One BLAS thread: a second OpenBLAS thread spins on the other core
        # without shortening these studies, and makes their wall time
        # follow whatever else runs on the machine.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.count = 0

    def _config(self, cache: str, extra: dict) -> str:
        config = dict(self.workload.config, **extra)
        if "eps" in extra:
            del config["eps_range"]
        if cache:
            config["cache"] = cache
        path = os.path.join(self.work, f"config-{self.count}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def study(self, trace: bool = False, extra: dict = None,
              setup_only: bool = False) -> dict:
        """Run one study in a fresh process; returns its result record."""
        self.count += 1
        tag = f"{self.count:03d}"
        cache = {"warm": os.path.join(self.work, "cache"),
                 "empty": os.path.join(self.work, f"cache-{tag}")}.get(
                     self.workload.cache)
        job = {"command": self.workload.command,
               "config": self._config(cache, extra or {}),
               "out": os.path.join(self.work, f"out-{tag}"),
               "log": os.path.join(self.work, f"study-{tag}.log"),
               "result": os.path.join(self.work, f"result-{tag}.json"),
               "spans": os.path.join(self.work, f"spans-{tag}.csv"),
               "trace": trace, "setup_only": setup_only}
        job_path = os.path.join(self.work, f"job-{tag}.json")
        job["launched"] = _monotonic()
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        # The launch time is written before the interpreter starts, so
        # setup_s includes the write; it is microseconds against ~0.5 s.
        with open(os.path.join(self.work, f"stderr-{tag}.txt"), "w") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "study.py"),
                 job_path], cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=STUDY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise CheckError(f"study {tag} timed out") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(err.name) as fh:
                tail = fh.read()[-2000:]
            raise CheckError(f"study {tag} exited {code}: {tail}")
        with open(job["result"]) as fh:
            result = json.load(fh)
        if result["exit"] != 0:
            raise CheckError(f"closeeval exited {result['exit']}")
        result["out"] = job["out"]
        result["spans"] = job["spans"] if trace else None
        return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(name, values, unit) -> str:
    med = statistics.median(values)
    lo, hi = _quartiles(values)
    return (f"  {name:<34} {med:>14.6g} {unit:<6} median of {len(values)}, "
            f"quartiles {lo:.6g} .. {hi:.6g}; "
            + " ".join(f"{v:.6g}" for v in values))


def measure(runner, seconds: float, trace: bool, keep_traces: str):
    """Repeat the study until seconds have passed; returns the checked
    untraced and traced records, the failure messages and the setup_s of
    the setup-only launches."""
    records, failures, digests, setups = [], [], set(), []
    deadline = _monotonic() + seconds
    while True:
        traced = trace and len(records) % 2 == 1
        try:
            for _ in range(SETUP_LAUNCHES):
                setups.append(runner.study(setup_only=True)["setup_s"])
            record = runner.study(trace=traced)
            record["check"] = check_outputs(runner.workload, record["out"])
            digests.add(record["check"]["results_sha256"])
            if len(digests) > 1:
                raise CheckError("results.csv differs between runs")
            record["traced"] = traced
            records.append(record)
            if traced:
                os.makedirs(keep_traces, exist_ok=True)
                shutil.move(record["spans"], os.path.join(
                    keep_traces, f"{runner.workload.name}.spans.csv"))
        except CheckError as exc:
            failures.append(str(exc))
            records.append({"failed": True, "traced": traced})
        shutil.rmtree(os.path.join(runner.work, f"out-{runner.count:03d}"),
                      ignore_errors=True)
        done = len(records) >= (2 if trace else 1)
        if done and (_monotonic() >= deadline or failures):
            return records, failures, setups


def end_to_end(records, setups) -> dict:
    ok = [r for r in records if not r.get("failed") and not r["traced"]]
    out = {"study_s": [r["study_s"] for r in ok],
           "evals_per_s": [r["check"]["rows"]/r["study_s"] for r in ok],
           "setup_s": [r["setup_s"] for r in ok] + setups,
           "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
           "accepted_frac": [1.0 - r["check"]["rejected_requests"]
                             / r["check"]["requests"] for r in ok]}
    out["passed_frac"] = [len(ok)/len([r for r in records
                                       if not r["traced"]])]
    return out


def per_layer(records) -> dict:
    traced = [r for r in records if not r.get("failed") and r["traced"]]
    plain = [r for r in records if not r.get("failed") and not r["traced"]]
    out = {name: [r["layers"][name] for r in traced]
           for name in traced[0]["layers"]}
    out["trace_overhead_s"] = [statistics.median(r["study_s"] for r in traced)
                               - statistics.median(r["study_s"]
                                                   for r in plain)]
    return out


def _warm_up(workload) -> dict:
    """Overrides that shrink the workload's study to an untimed warm-up.

    It fills the OS file cache and the bytecode cache, and for a "warm"
    workload the density cache: one target and one eps at the workload's
    resolution and source.  An "empty"-cache workload warms up at n=8,
    since every timed study solves from scratch anyway.
    """
    extra = {"eps": [0.1]}
    problem = workload.config["problem"]
    if problem.startswith("2d"):
        extra["targets"] = [0.5]
    elif problem.startswith("3d"):
        extra["targets"] = [[1.0, 0.5]]
        if workload.cache == "empty":
            extra["n"] = 8
    return extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit, so that the running study is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "closeeval", "cli.py")):
        print("no closeeval sources under ./src: run from the root of a "
              "closeeval checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.build(args.workload, args.seed)
    work = os.path.join(root, ".bench_work",
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, workload, work)
    try:
        prepare = runner.study(extra=_warm_up(workload))
        if not prepare["closeeval"].startswith(os.path.join(root, "src")):
            raise CheckError(f"closeeval imported from {prepare['closeeval']}")
        records, failures, setups = measure(
            runner, args.seconds, bool(args.trace),
            os.path.join(root, ".bench_work", "traces"))
    except CheckError as exc:
        print(f"warm-up study failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = dict(prepare["env"], cpu=_cpu_model(),
               nproc=len(os.sched_getaffinity(0)), seed=args.seed,
               workload=args.workload, commit=_commit(root),
               closeeval=os.path.relpath(prepare["closeeval"], root))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    attempted, failed = len(records), len(failures)
    metrics = {}
    if any(not r.get("failed") and r["traced"] == bool(args.trace)
           for r in records):
        samples = (per_layer(records) if args.trace
                   else end_to_end(records, setups))
        for name, unit in units.items():
            print(_summary(name, samples[name], unit))
            metrics[name] = {"value": statistics.median(samples[name]),
                             "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
