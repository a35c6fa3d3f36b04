"""Measure a baseline of every workload and write it as JSON.

    python3 perfbench/baseline.py --seed N --out FILE

Run from the root of a diagrel checkout.  Each workload is measured for the
`run_seconds` of BENCHMARK.json.  For each workload it records the
untraced and the traced result in run.py's format (the JSON line and the
human-readable extras), then re-times the hand-taken numbers of the
roadmap's re-anchor (order theory at k = 3 and 4, verify-axioms at k = 2 and
3), one fresh interpreter each, next to the roadmap's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

NOTE = ("One invocation per workload on a shared host whose speed drifts by up to "
        "80% for minutes at a time.  A record of the verdicts, the metric format and "
        "the rough scale, not a reference for before/after claims: compare a change "
        "with its parent by runs of both, made alternately on the same host.")

# (what, commands, roadmap seconds); the order theory is theory.ORDER_THEORY_TEXT
ORDER_THEORY = "".join(
    ["sig R : 1 -> 1\n"]
    + [f"axiom {p} : {workloads.AXIOMS[p].format(g='R')}\n"
       for p in workloads.THEORIES["linear-order"]])
REANCHOR = (
    ("find-models order theory --size 3", ["find-models", "{theory}", "--size", "3"], 0.22),
    ("find-models order theory --size 4", ["find-models", "{theory}", "--size", "4"], 44.4),
    ("verify-axioms --size 2 --trials 200",
     ["verify-axioms", "--size", "2", "--trials", "200", "--seed", "0"], 1.0),
    ("verify-axioms --size 3 --trials 200",
     ["verify-axioms", "--size", "3", "--trials", "200", "--seed", "0"], 2.3),
)


def reanchor(root):
    workdir = os.path.join(HERE, ".work", f"reanchor-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        theory = os.path.join(workdir, "order.thy")
        with open(theory, "w", encoding="utf-8") as fh:
            fh.write(ORDER_THEORY)
        runner = run.Runner(root, workdir)
        rows = []
        for what, argv, roadmap in REANCHOR:
            result = runner.run([{"kind": "cli",
                                  "argv": [a.format(theory=theory) for a in argv]}])
            runner.release()
            code = result["outputs"][0]["code"]
            rows.append({"command": what, "measured_s": round(result["wall_s"], 3),
                         "roadmap_s": roadmap, "exit": code})
        return rows
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = run.source_root()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {"note": NOTE, "machine": run.machine_info(root, args.seed), "seconds": seconds,
           "workloads": {}}
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (False, True):
            report = run.measure(name, args.seed, seconds, trace)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = json.loads(run.result_line(report, trace))
            if not trace:
                entry["extras"] = {k: report[k] for k in (
                    "runs", "items_per_run", "failed_frac",
                    "item_p90_ms", "medians", "per_run") if k in report}
        out["workloads"][name] = entry
        print(f"{name}: done", file=sys.stderr)
    out["reanchor"] = reanchor(root)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
