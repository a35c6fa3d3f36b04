"""Per-layer measurement from outside the program.

`Tracer.install` replaces each public function named in TARGETS, in every
diagrel namespace that holds it, by a wrapper that records a span: call
count and self time (span duration minus the time covered by child spans).
Bookkeeping done after a span (counting term nodes, relation sizes) is
charged to no layer.  `kernel_grid` times the relation kernels alone at
fixed result sizes.
"""

from __future__ import annotations

import inspect
import random
import sys
import time

TARGETS = {
    "terms": ("parse_term", "typecheck", "desugar", "replace_at"),
    "finrel": ("evaluate", "compose_white", "compose_black", "tensor_white",
               "tensor_black", "converse", "complement", "union",
               "intersection", "included"),
    "theory": ("parse_theory", "check_model", "enumerate_models"),
    "rewrite": ("axiom_db", "axiom_by_name", "match_pattern", "instantiate",
                "apply_step", "parse_proof", "check_proof", "verify_axiom",
                "semantic_spotcheck"),
    "doctrine": ("subst", "exists_along", "forall_along", "all_morphisms",
                 "all_predicates", "is_functional", "is_entire", "relp_compose",
                 "ruc_witness", "comprehension"),
    "cli": ("run",),
}

# kernels whose result size feeds finrel.peak_bits
_RELATION_RESULTS = ("evaluate", "compose_white", "compose_black", "tensor_white",
                     "tensor_black", "converse", "complement", "union",
                     "intersection")

DERIVED = ("terms.desugar.node_growth", "finrel.peak_bits",
           "finrel.const_cache.hit_ratio", "theory.evals_per_candidate",
           "rewrite.match_pattern.hit_ratio")


def metric_names():
    """Every per-layer metric a traced run reports, in order."""
    names = []
    for mod, fns in TARGETS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    return names + list(DERIVED)


class Tracer:
    def __init__(self):
        self.stack = []  # time covered by child spans, one entry per open span
        self.calls = {}
        self.self_s = {}
        self.nodes_in = self.nodes_out = 0
        self.desugar_depth = 0
        self.peak_bits = 0
        self.candidates = 0
        self.evals_in_search = 0
        self.match_hits = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, key, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _generator_span(self, key, fn):
        """Spans around each resumption of a generator function."""
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls[key] += 1
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[key] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                yield value

        return wrapper

    def _after(self, inner, hook, before=None):
        """Run `hook(args, result, state)` after each call, where state is what
        `before(args)` returned; the hook's time is taken out of the caller's
        span so that no layer is charged for it."""
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            out = None
            try:
                out = inner(*args, **kwargs)
                return out
            finally:  # out stays None when the call raised
                t0 = clock()
                hook(args, out, state)
                if stack:
                    stack[-1] += clock() - t0

        return wrapper

    # -- derived counters ----------------------------------------------------

    def _relation_size(self, args, out, state):
        if out is None:
            return
        size = out.carrier ** (out.dom_arity + out.cod_arity)
        if size > self.peak_bits:
            self.peak_bits = size

    def _desugar_enter(self, args):
        self.desugar_depth += 1
        return self.desugar_depth == 1

    def _desugar_exit(self, args, out, outermost):
        self.desugar_depth -= 1
        if outermost and out is not None:
            self.nodes_in += self._tree_size(args[0], {})
            self.nodes_out += self._tree_size(out, {})

    def _tree_size(self, t, memo):
        got = memo.get(id(t))
        if got is None:
            got = 1 + sum(self._tree_size(c, memo) for c in self._children(t))
            memo[id(t)] = got
        return got

    def _search_enter(self, args):
        return self.calls["finrel.evaluate"]

    def _search_exit(self, args, out, evals_before):
        theory, k = args[0], args[1]
        space = 1
        for n, m in theory.signature.generators.values():
            space *= 2 ** (k ** n * k ** m)
        self.candidates += space
        self.evals_in_search += self.calls["finrel.evaluate"] - evals_before

    def _match_result(self, args, out, state):
        self.match_hits += out is not None

    # -- installation and results --------------------------------------------

    def install(self):
        """Wrap every target in every loaded diagrel module that holds it."""
        from diagrel import terms

        self._children = terms.children
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "diagrel" or name.startswith("diagrel.")}
        for modname, fns in TARGETS.items():
            home = self.modules["diagrel." + modname]
            for fname in fns:
                key = f"{modname}.{fname}"
                orig = getattr(home, fname)
                self.calls[key] = 0
                self.self_s[key] = 0.0
                if inspect.isgeneratorfunction(orig):
                    wrapped = self._generator_span(key, orig)
                else:
                    wrapped = self._span(key, orig)
                if modname == "finrel" and fname in _RELATION_RESULTS:
                    wrapped = self._after(wrapped, self._relation_size)
                elif key == "terms.desugar":
                    wrapped = self._after(wrapped, self._desugar_exit, self._desugar_enter)
                elif key == "theory.enumerate_models":
                    wrapped = self._after(wrapped, self._search_exit, self._search_enter)
                elif key == "rewrite.match_pattern":
                    wrapped = self._after(wrapped, self._match_result)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)

    def metrics(self):
        out = {}
        for key in self.calls:
            out[key + ".calls"] = self.calls[key]
            out[key + ".self_s"] = self.self_s[key]
        out["terms.desugar.node_growth"] = (
            self.nodes_out / self.nodes_in if self.nodes_in else 0.0)
        out["finrel.peak_bits"] = self.peak_bits
        hits = misses = 0
        for value in vars(self.modules["diagrel.finrel"]).values():
            info = getattr(value, "cache_info", None)
            if info is not None:
                ci = info()
                hits += ci.hits
                misses += ci.misses
        out["finrel.const_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["theory.evals_per_candidate"] = (
            self.evals_in_search / self.candidates if self.candidates else 0.0)
        calls = self.calls["rewrite.match_pattern"]
        out["rewrite.match_pattern.hit_ratio"] = self.match_hits / calls if calls else 0.0
        return out


# ---------------------------------------------------------------------------
# kernel grid

GRID_BITS = (16, 6561, 65536)
# result size in bits -> (carrier, arity on each side of a square relation)
_SHAPES = {16: (2, 2), 6561: (3, 4), 65536: (4, 4)}
GRID_KERNELS = ("compose_white", "compose_black", "tensor_white", "tensor_black",
                "converse", "complement", "union", "intersection")


def grid_metric_names():
    return [f"finrel.grid.{kern}.{bits}_us" for kern in GRID_KERNELS for bits in GRID_BITS]


def _time_call(fn, args, batches=7, target=0.004):
    """Median microseconds per call over `batches` batches of at least
    `target` seconds each."""
    clock = time.perf_counter
    t0 = clock()
    fn(*args)
    once = max(clock() - t0, 1e-7)
    number = max(1, int(target / once))
    per_call = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(number):
            fn(*args)
        per_call.append((clock() - t0) / number)
    per_call.sort()
    return per_call[len(per_call) // 2] * 1e6


def kernel_grid(seed):
    """finrel.grid.<kernel>.<bits>_us: each kernel on seeded random relations
    whose result has exactly <bits> bits."""
    from diagrel import finrel as F

    rng = random.Random(seed)
    out = {}
    for bits in GRID_BITS:
        k, n = _SHAPES[bits]

        def rel(dom, cod):
            return F.FinRelation(k, dom, cod, rng.getrandbits(k ** (dom + cod)))

        a, b = rel(n, n), rel(n, n)
        half_a, half_b = rel(n // 2, n // 2), rel(n // 2, n // 2)
        cases = {
            "compose_white": (a, b),
            "compose_black": (a, b),
            "tensor_white": (half_a, half_b),
            "tensor_black": (half_a, half_b),
            "converse": (a,),
            "complement": (a,),
            "union": (a, b),
            "intersection": (a, b),
        }
        for kern in GRID_KERNELS:
            out[f"finrel.grid.{kern}.{bits}_us"] = _time_call(getattr(F, kern), cases[kern])
    return out
