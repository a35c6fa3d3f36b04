"""Harness self-test: the verdict checks pass on the program's real outputs
and fail once a wrong expected answer is planted.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a diagrel checkout.  For each workload it makes one run,
checks it against the oracle's answer (failed_frac must be 0), then checks
the same outputs against `workloads.plant`'s answer with one planted error
(a dropped model, a flipped bit, a mutant marked as valid, ...), for which
failed_frac must be above 0.  Exit status 0 when every workload behaves so.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = run.source_root()
    ok = True
    for name in workloads.WORKLOADS:
        workdir = os.path.join(HERE, ".work", f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            plan = workloads.generate(name, args.seed, workdir)
            runner = run.Runner(root, workdir)
            outputs = runner.run(plan.commands)["outputs"]
            runner.release()
            attempted, failed, _ = plan.check(outputs)
            print(f"{name:>15}: failed_frac {failed / attempted:.4f} with the oracle's answers "
                  f"[{'ok' if failed == 0 else 'FAIL'}]")
            ok &= failed == 0
            for planted in workloads.plant(name, plan.expected):
                p_attempted, p_failed, problem = plan.check(outputs, planted)
                ok &= p_failed > 0
                print(f"{'':>15}  failed_frac {p_failed / p_attempted:.4f} with a planted error "
                      f"[{'ok' if p_failed else 'FAIL'}] {problem[:100]}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
