"""One timed run in a fresh interpreter: import diagrel, issue the commands of
a spec file one after another, and write timings and outputs to a JSON file.

    python3 perfbench/child.py SPEC.json SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading taken just before it
started this interpreter, so set-up time covers Python start-up and the
import.  Run with `src` on PYTHONPATH.
"""

import time

import diagrel.cli  # noqa: F401  (what a CLI invocation imports)
import diagrel.doctrine  # noqa: F401

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from diagrel import cli, doctrine as D  # noqa: E402


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


# ---------------------------------------------------------------------------
# doctrine sweeps through the public API; each yields one record per
# morphism, pair of morphisms or predicate block, over every size up to n


def _laws(n):
    """Adjunction, Frobenius reciprocity and forall = neg exists neg for
    every f : X -> Y, every a over X and every b over Y."""
    for x, y in itertools.product(range(n + 1), repeat=2):
        X, Y = D.FinSetObj(x), D.FinSetObj(y)
        for f in D.all_morphisms(X, Y):
            images = []
            adj = frob = dual = 0
            for a in D.all_predicates(X):
                e = D.exists_along(f, a)
                u = D.forall_along(f, a)
                images.append([a.bits, e.bits, u.bits])
                dual += u == D.neg(D.exists_along(f, D.neg(a)))
                for b in D.all_predicates(Y):
                    adj += D.leq(e, b) == D.leq(a, D.subst(f, b))
                    frob += D.exists_along(f, D.meet(a, D.subst(f, b))) == D.meet(e, b)
            yield {"f": list(f.table), "images": images, "adj": adj, "frob": frob,
                   "dual": dual}


def _beck_chevalley(n):
    for x, y, z in itertools.product(range(n + 1), range(n + 1), range(1, n + 1)):
        X, Y, Z = D.FinSetObj(x), D.FinSetObj(y), D.FinSetObj(z)
        for f in D.all_morphisms(X, Z):
            for g in D.all_morphisms(Y, Z):
                pairs = [(i, j) for i in range(x) for j in range(y) if f(i) == g(j)]
                Pb = D.FinSetObj(len(pairs))
                p1 = D.FinSetMor(Pb, X, tuple(i for i, _ in pairs))
                p2 = D.FinSetMor(Pb, Y, tuple(j for _, j in pairs))
                lhs = []
                holds = 0
                for a in D.all_predicates(X):
                    left = D.subst(g, D.exists_along(f, a))
                    holds += left == D.exists_along(p2, D.subst(p1, a))
                    lhs.append([a.bits, left.bits])
                yield {"f": list(f.table), "g": list(g.table), "lhs": lhs, "holds": holds}


def _unique_choice(n):
    for x, y in itertools.product(range(n + 1), repeat=2):
        X, Y = D.FinSetObj(x), D.FinSetObj(y)
        rows = []
        for phi in D.all_predicates(D.prod(X, Y)):
            w = D.ruc_witness(phi, X, Y)
            rows.append([phi.bits, None if w is None else list(w.table),
                         D.is_functional(phi, X, Y)])
        yield {"x": x, "y": y, "rows": rows}


def _composition(sizes):
    """relp_compose of every functional entire phi with every psi and its
    negation, over X = Y = Z of each size."""
    for s in sizes:
        X = D.FinSetObj(s)
        for phi in D.all_predicates(D.prod(X, X)):
            if not (D.is_functional(phi, X, X) and D.is_entire(phi, X, X)):
                continue
            rows = []
            for psi in D.all_predicates(D.prod(X, X)):
                c = D.relp_compose(phi, psi, X, X, X)
                cn = D.relp_compose(phi, D.neg(psi), X, X, X)
                rows.append([psi.bits, c.bits, cn.bits])
            yield {"phi": phi.bits, "rows": rows}


def _comprehension(n):
    for x in range(n + 1):
        Xa, incl, report = D.comprehension(D.equality_pred(D.FinSetObj(x)))
        yield {"size": Xa.size, "incl": list(incl.table), "report": dict(report)}


DOCTRINE = {
    "laws": _laws,
    "beck-chevalley": _beck_chevalley,
    "unique-choice": _unique_choice,
    "composition": _composition,
    "comprehension": _comprehension,
}


# ---------------------------------------------------------------------------


def run_commands(commands, clock=time.perf_counter):
    """Issue each command in turn; returns (per-command seconds, per-command
    output).  A doctrine part's output is the list of its records."""
    times, outputs = [], []
    for cmd in commands:
        t0 = clock()
        try:
            if cmd["kind"] == "cli":
                out = _run_cli(cmd["argv"])
            else:
                out = list(DOCTRINE[cmd["part"]](*cmd["args"]))
        except Exception:  # a command that crashes is a failed item, not a crashed run
            out = {"error": traceback.format_exc(limit=3)}
        times.append(clock() - t0)
        outputs.append(out)
    return times, outputs


def main():
    spec_path, spawned = sys.argv[1], float(sys.argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup_s": READY - spawned}
    if spec.get("grid"):
        import layers
        result["grid"] = layers.kernel_grid(spec["seed"])
    tracer = None
    if spec.get("trace"):
        import layers
        tracer = layers.Tracer()
        tracer.install()
    cpu0, t0 = _cpu(), time.perf_counter()
    times, outputs = run_commands(spec.get("commands", []))
    t1, cpu1 = time.perf_counter(), _cpu()
    result.update({
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "item_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    })
    if tracer is not None:
        result["layers"] = tracer.metrics()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
