"""diagrel benchmark: one workload, timed end to end in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diagrel checkout (it imports `src/diagrel`).  The
inputs are generated from --seed into perfbench/.work/ and removed at exit.
Each timed run is a fresh interpreter (perfbench/child.py) that imports
diagrel and issues the workload's commands one after another (a closed loop,
one client, no threads); runs follow one another until --seconds have been
spent.  Every run's verdicts are checked against perfbench/oracle.py.

--trace 0 reports the end-to-end metrics, each the minimum (best) over the
runs, with the medians in the human-readable lines; --trace 1
adds one traced run and a kernel-grid run and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object.
Exit status: 0 with a result, 2 without one (no diagrel sources, bad
arguments, a run that did not complete).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms",
              "peak_rss_mb": "MB"}
P90_MIN_ITEMS = 100  # item_p90_ms needs at least 10 samples beyond it (pooled over runs)


class BenchError(Exception):
    pass


def source_root():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diagrel", "cli.py")):
        raise BenchError(f"no diagrel sources under {root}/src; run from a checkout root")
    return root


def machine_info(root, seed):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "diagrel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            commit = open(path, encoding="utf-8").read().strip() if os.path.isfile(path) else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _spin():
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    return time.perf_counter() - t0


class Runner:
    """Starts child interpreters one at a time and collects their results."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def pin_to_quietest_cpu(self):
        """Pin this process (and the child it starts next) to the allowed CPU
        that ran a short probe loop fastest just now.  On a shared machine
        each virtual CPU goes through slow phases of its own, when another
        tenant loads its sibling; the probe steers the next run away from
        one."""
        if len(self.cpus) < 2:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_spin(), _spin())
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    def release(self):
        """Give this process back every CPU it was allowed at the start."""
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)

    def run(self, commands, **spec):
        self.pin_to_quietest_cpu()
        self.count += 1
        out = os.path.join(self.workdir, f"result-{self.count}.json")
        spec_path = os.path.join(self.workdir, f"spec-{self.count}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, commands=commands, out=out), fh)
        argv = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv + [repr(spawned)], cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        if proc.returncode != 0 or not os.path.isfile(out):
            raise BenchError(f"child run failed (exit {proc.returncode}): "
                             + proc.stderr.strip()[-2000:])
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(out)
        os.remove(spec_path)
        return result


def best(values):
    """The statistic every end-to-end metric reports over an invocation's
    samples: the minimum.  On a shared machine other tenants slow runs down
    by up to 80%, in phases of seconds to minutes that can cover most of an
    invocation; only slowing is possible, so the fastest sample is the one
    least disturbed, and the median would follow the share of slow runs."""
    return min(values)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(name, seed, seconds, trace):
    root = source_root()
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(root, workdir)
    try:
        return _measure(runner, name, seed, seconds, trace)
    finally:
        runner.release()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(runner, name, seed, seconds, trace):
    plan = workloads.generate(name, seed, runner.workdir)
    runner.run([])  # compiles the bytecode caches; not a sample

    attempted = failed = 0
    problems = []

    def checked(result):
        nonlocal attempted, failed
        a, f, first = plan.check(result.pop("outputs"))
        attempted += a
        failed += f
        if first:
            problems.append(first)
        return result

    runs = []
    start = time.perf_counter()
    while True:
        runs.append(checked(runner.run(plan.commands)))
        spent = time.perf_counter() - start
        if spent + runs[-1]["wall_s"] + runs[-1]["setup_s"] > seconds:
            break
    per_run = {
        "setup_s": [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "item_p50_ms": [statistics.median(r["item_s"]) * 1e3 for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    per_run_items = len(runs[0]["item_s"])
    report = {
        "workload": name,
        "runs": len(runs),
        "items_per_run": per_run_items,
        "medians": {},
        "per_run": per_run,
    }
    for key, values in per_run.items():
        report[key] = best(values)
        report["medians"][key] = statistics.median(values)
    items = [t for r in runs for t in r["item_s"]]
    if len(items) >= P90_MIN_ITEMS:
        report["item_p90_ms"] = percentile(items, 90) * 1e3
    wall = report["wall_s"]
    if trace:
        traced = checked(runner.run(plan.commands, trace=True))
        layer = dict(traced["layers"])
        layer["trace_overhead_frac"] = traced["wall_s"] / wall - 1
        layer.update(runner.run([], grid=True, seed=seed)["grid"])
        report["layers"] = layer
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_frac"] = failed / attempted if attempted else 1.0
    report["problems"] = problems[:5]
    return report


def per_layer_names():
    return layers.metric_names() + ["trace_overhead_frac"] + layers.grid_metric_names()


def print_report(report, info, trace):
    print(f"# diagrel benchmark: workload {report['workload']}, seed {info['seed']}")
    print("# machine: " + json.dumps(info, sort_keys=True))
    print(f"# {report['runs']} timed runs, {report['items_per_run']} items per run, "
          "closed loop, one process at a time")
    print("# wall_s of each run: " + " ".join(f"{w:.4f}" for w in report["per_run"]["wall_s"]))
    print(f"# {'metric':>14} {'best':>14} {'median':>14}")
    for key, median in report["medians"].items():
        print(f"{key:>16} {report[key]:14.6f} {median:14.6f} {END_TO_END[key]}")
    if "item_p90_ms" in report:
        print(f"{'item_p90_ms':>16} {report['item_p90_ms']:14.6f} {'':>14} ms "
              f"(over all {report['runs'] * report['items_per_run']} items)")
    print(f"{'failed_frac':>16} {report['failed_frac']:14.6f} ratio "
          f"({report['failed']} of {report['attempted']} verdicts)")
    for problem in report["problems"]:
        print(f"# wrong verdict: {problem}")
    if trace:
        for key in per_layer_names():
            print(f"{key:>48} {report['layers'][key]:.6g}")


def result_line(report, trace):
    if trace:
        metrics = {}
        for key in per_layer_names():
            value = report["layers"][key]
            metrics[key] = {"value": value, "unit": _layer_unit(key)}
    else:
        metrics = {key: {"value": report[key], "unit": unit}
                   for key, unit in END_TO_END.items()}
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def _layer_unit(key):
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_us"):
        return "us"
    if key.endswith("peak_bits"):
        return "bits"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = source_root()
        info = machine_info(root, args.seed)
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print_report(report, info, args.trace)
    print(result_line(report, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
