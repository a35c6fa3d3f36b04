"""The workloads: inputs generated from a seed, the commands that a run
issues, and the check of every verdict against an answer from `oracle`.

`generate(name, seed, workdir)` writes the input files and returns a Plan.
`Plan.check(outputs)` compares the outputs of one run, item by item, with
`Plan.expected` and returns (verdicts attempted, verdicts failed, first
problem).  `plant(name, expected)` returns copies of an expected answer, each
with one planted error, which the self-test uses to show that the checks bite.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
import shutil
from dataclasses import dataclass

import oracle

WORKLOADS = ("order-search", "sugar-eval", "proof-doctrine")


@dataclass
class Plan:
    commands: list
    expected: object
    checker: object

    def check(self, outputs, expected=None):
        return self.checker(outputs, self.expected if expected is None else expected)


def _cli(*argv):
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _tally(results):
    """results: iterable of problem strings ('' when the verdict is right)."""
    attempted = failed = 0
    first = ""
    for problem in results:
        attempted += 1
        if problem:
            failed += 1
            first = first or problem
    return attempted, failed, first


def _error(out):
    if "error" in out:
        return out["error"].strip().splitlines()[-1]
    return ""


# ---------------------------------------------------------------------------
# order-search: find-models on order-like theories over one binary relation,
# then verify-axioms on small relations

SEARCH_SIZE = 3
VERIFY_SIZE = 2
VERIFY_TRIALS = 50
AXIOM_COUNT = 106  # the axiom database of the seed commit; every axiom holds
AXIOMS = {
    "reflexive": "(idw 1) <= (gen {g})",
    "transitive": "(seqw (gen {g}) (gen {g})) <= (gen {g})",
    "antisymmetric": "(meet (gen {g}) (dag (gen {g}))) <= (idw 1)",
    "total": "(top 1 1) <= (join (gen {g}) (dag (gen {g})))",
    "symmetric": "(dag (gen {g})) <= (gen {g})",
    "irreflexive": "(meet (gen {g}) (idw 1)) <= (bot 1 1)",
}
THEORIES = {
    # the first is theory.ORDER_THEORY_TEXT, written out here
    "linear-order": ("reflexive", "transitive", "antisymmetric", "total"),
    "partial-order": ("reflexive", "transitive", "antisymmetric"),
    "preorder": ("reflexive", "transitive"),
    "equivalence": ("reflexive", "symmetric", "transitive"),
    "strict-order": ("irreflexive", "transitive"),
}


def _order_search(seed, workdir):
    rng = random.Random(seed)
    gen = rng.choice("RSTUV") + str(rng.randrange(100))
    names = list(THEORIES)
    rng.shuffle(names)
    commands, expected = [], []
    for name in names:
        lines = [f"# {name}", f"sig {gen} : 1 -> 1"]
        for prop in THEORIES[name]:
            lines.append(f"axiom {prop}-{rng.randrange(1000)} : "
                         + AXIOMS[prop].format(g=gen))
        path = _write(workdir, f"{name}.thy", "\n".join(lines) + "\n")
        commands.append(_cli("find-models", path, "--size", SEARCH_SIZE, "--machine"))
        expected.append({"theory": name, "gen": gen,
                         "models": oracle.binary_models(SEARCH_SIZE, THEORIES[name])})
    commands.append(_cli("verify-axioms", "--size", VERIFY_SIZE, "--trials", VERIFY_TRIALS,
                         "--seed", seed, "--machine"))
    expected.append({"axioms": AXIOM_COUNT, "trials": VERIFY_TRIALS})
    return Plan(commands, expected, _check_order_search)


def _check_verify_axioms(out, want):
    where = f"verify-axioms --size {VERIFY_SIZE}"
    if _error(out) or out["code"] != 0:
        return f"{where}: exit {out.get('code')} {_error(out) or out.get('err')}"
    lines = out["out"].splitlines()
    names = set()
    for line in lines[:-1]:
        fields = dict(kv.split("=", 1) for kv in line.split())
        if fields["trials"] != str(want["trials"]) or fields["failures"] != "0":
            return f"{where}: {line!r}"
        names.add(fields["axiom"])
    if len(names) != want["axioms"] or len(lines) != want["axioms"] + 1:
        return f"{where}: {len(names)} axioms reported, {want['axioms']} expected"
    if lines[-1] != f"axioms: {want['axioms']}  failing: 0":
        return f"{where}: summary {lines[-1]!r}"
    return ""


def _check_order_search(outputs, expected):
    def one(out, want):
        if "axioms" in want:
            return _check_verify_axioms(out, want)
        if _error(out) or out["code"] != 0:
            return f"{want['theory']}: exit {out.get('code')} {_error(out) or out.get('err')}"
        lines = out["out"].splitlines()
        found = set()
        for line in lines[1:]:
            fields = dict(kv.split("=", 1) for kv in line.split())
            if fields["rel"] != want["gen"]:
                return f"{want['theory']}: unexpected relation {fields['rel']}"
            pairs = oracle.bits_to_pairs(SEARCH_SIZE, 1, 1, int(fields["bits"]))
            found.add(frozenset((x[0], y[0]) for x, y in pairs))
        count = len(lines) - 1
        if lines[0] != f"models: {count}" or count != len(found):
            return f"{want['theory']}: model count line {lines[0]!r} vs {count} listed"
        if found != want["models"]:
            return (f"{want['theory']}: {len(found)} models found, "
                    f"{len(want['models'])} expected, sets differ")
        return ""

    return _tally(one(o, w) for o, w in _zip(outputs, expected))


def _zip(outputs, expected):
    """Pair outputs with expectations; a missing output is a failed item."""
    for i, want in enumerate(expected):
        yield (outputs[i] if i < len(outputs) else {"error": "no output"}), want


# ---------------------------------------------------------------------------
# sugar-eval: eval of sugar-heavy terms on large relations

SUGAR_SIG = "sig Q : 2 -> 2\nsig P : 1 -> 2\n"
SUGAR_TERMS = (
    "(dag (gen Q))",
    "(neg (gen Q))",
    "(join (gen Q) (neg (dag (gen Q))))",
    "(seqw (gen Q) (dag (gen Q)))",
    "(meet (gen Q) (dag (gen Q)))",
    "(dag (gen P))",
    "(seqw (gen P) (dag (gen P)))",
    "(meet (gen P) (seqw (gen P) (gen Q)))",
)
# (carrier, terms): every term at k = 4; at k = 5 only the headline case,
# desugared dag building 5^12-bit intermediates for a 625-bit answer.  Nine
# items put the median item inside the cluster of k = 4 terms over Q.
SUGAR_CASES = ((4, SUGAR_TERMS), (5, ("(dag (gen Q))",)))


def _random_pairs(rng, k, n, m):
    return {(x, y) for x in oracle.tuples(k, n) for y in oracle.tuples(k, m)
            if rng.random() < 0.5}


def _interp_text(k, rels):
    out = [f"carrier {k}"]
    for name, (n, m, pairs) in rels.items():
        out.append(f"rel {name} {n} {m} {{")
        for xs, ys in sorted(pairs):
            out.append(f"  ({' '.join(map(str, xs))} ; {' '.join(map(str, ys))})")
        out.append("}")
    return "\n".join(out) + "\n"


def _sugar_eval(seed, workdir):
    rng = random.Random(seed)
    sig = _write(workdir, "sugar.sig", SUGAR_SIG)
    commands, expected = [], []
    for k, terms in SUGAR_CASES:
        rels = {"Q": (2, 2, _random_pairs(rng, k, 2, 2)),
                "P": (1, 2, _random_pairs(rng, k, 1, 2))}
        interp = _write(workdir, f"sugar-{k}.interp", _interp_text(k, rels))
        gens = {name: oracle.PairRel(k, n, m, pairs) for name, (n, m, pairs) in rels.items()}
        for term in terms:
            want = oracle.eval_sexpr(oracle.read_sexpr(term), k, gens)
            commands.append(_cli("eval", "--sig", sig, "--interp", interp, term))
            expected.append({"term": term, "k": k, "n": want.n, "m": want.m,
                             "pairs": set(want.pairs)})
    return Plan(commands, expected, _check_sugar_eval)


def _check_sugar_eval(outputs, expected):
    def one(out, want):
        where = f"{want['term']} at k={want['k']}"
        if _error(out) or out["code"] != 0:
            return f"{where}: exit {out.get('code')} {_error(out) or out.get('err')}"
        n, m, pairs = oracle.parse_relation_output(out["out"])
        if (n, m) != (want["n"], want["m"]):
            return f"{where}: type {n}->{m}, expected {want['n']}->{want['m']}"
        if pairs != want["pairs"]:
            return f"{where}: {len(pairs ^ want['pairs'])} pairs differ"
        return ""

    return _tally(one(o, w) for o, w in _zip(outputs, expected))


# ---------------------------------------------------------------------------
# proof-doctrine, first part: generated rewrite chains over primitive terms,
# their one-step-short mutants, and the shipped proofs with a spotcheck

PROOF_SIG = {"R": (1, 1), "S": (2, 1)}
PROOF_SCRIPTS = 20
PROOF_STEPS = (50, 800)
PROOF_NODE_CAP = 40
SHIPPED = ("copy_unit.prf", "discard_adjunction.prf", "meet_top.prf")
SPOTCHECK_TRIALS = 50

_CONST_TYPES = {"copy": (1, 2), "coc": (2, 1), "dsc": (1, 0), "cod": (0, 1)}


def _ptype(t):
    head = t[0]
    if head in ("idw", "idb"):
        return (t[1], t[1])
    if head in ("symw", "symb"):
        return (t[1] + t[2], t[2] + t[1])
    if head == "gen":
        return PROOF_SIG[t[1]]
    if head == "genop":
        return PROOF_SIG[t[1]][::-1]
    if head == "const":
        return _CONST_TYPES[t[1][:-1]]
    a, b = _ptype(t[1]), _ptype(t[2])
    if head in ("seqw", "seqb"):
        return (a[0], b[1])
    return (a[0] + b[0], a[1] + b[1])


def _pprint(t):
    head = t[0]
    if head == "const":
        return t[1]
    if head in ("gen", "genop", "idw", "idb"):
        return f"({head} {t[1]})"
    if head in ("symw", "symb"):
        return f"({head} {t[1]} {t[2]})"
    return f"({head} {_pprint(t[1])} {_pprint(t[2])})"


def _random_prim(rng, n, m, depth):
    """A random primitive term of type n -> m, for n, m <= 2."""
    c = rng.choice("wb")
    atoms = [("const", kind + c) for kind, ty in _CONST_TYPES.items() if ty == (n, m)]
    atoms += [(h, name) for name, ty in PROOF_SIG.items()
              for h, want in (("gen", ty), ("genop", ty[::-1])) if want == (n, m)]
    if n == m:
        atoms.append(("id" + c, n))
    if (n, m) == (2, 2):
        atoms.append(("sym" + c, 1, 1))
    if depth <= 0 and atoms:
        return rng.choice(atoms)
    if depth <= 0 or (rng.random() < 0.5 and n + m >= 2 and n >= 1 and m >= 1):
        if depth <= 0 and n + m == 2:  # (0, 2) or (2, 0): two one-wire halves
            half = (n // 2, m // 2)
            return ("tens" + c, _random_prim(rng, *half, 0), _random_prim(rng, *half, 0))
        n1 = rng.randint(0, n)
        m1 = rng.randint(0, m)
        return ("tens" + c, _random_prim(rng, n1, m1, depth - 1),
                _random_prim(rng, n - n1, m - m1, depth - 1))
    j = rng.randint(0, 2)
    return ("seq" + c, _random_prim(rng, n, j, depth - 1), _random_prim(rng, j, m, depth - 1))


def _size(t):
    if t[0] in ("seqw", "seqb", "tensw", "tensb"):
        return 1 + _size(t[1]) + _size(t[2])
    return 1


def _rewrites(t, grow):
    """(axiom, direction, result) for every unit or associativity step that
    applies at the root of t."""
    out = []
    for c, sfx in (("w", ""), ("b", "-b")):
        seq, tens, ident = "seq" + c, "tens" + c, "id" + c
        for op, name in ((seq, "seq"), (tens, "tens")):
            if t[0] == op and t[1][0] == op:
                out.append((f"{name}-assoc{sfx}", "l2r", (op, t[1][1], (op, t[1][2], t[2]))))
            if t[0] == op and t[2][0] == op:
                out.append((f"{name}-assoc{sfx}", "r2l", (op, (op, t[1], t[2][1]), t[2][2])))
        if t[0] == seq and t[1][0] == ident:
            out.append((f"seq-unit-l{sfx}", "l2r", t[2]))
        if t[0] == seq and t[2][0] == ident:
            out.append((f"seq-unit-r{sfx}", "l2r", t[1]))
        if t[0] == tens and t[1] == (ident, 0):
            out.append((f"tens-unit-l{sfx}", "l2r", t[2]))
        if t[0] == tens and t[2] == (ident, 0):
            out.append((f"tens-unit-r{sfx}", "l2r", t[1]))
        if grow:
            n, m = _ptype(t)
            out.append((f"seq-unit-l{sfx}", "r2l", (seq, (ident, n), t)))
            out.append((f"seq-unit-r{sfx}", "r2l", (seq, t, (ident, m))))
            out.append((f"tens-unit-l{sfx}", "r2l", (tens, (ident, 0), t)))
            out.append((f"tens-unit-r{sfx}", "r2l", (tens, t, (ident, 0))))
    return out


def _positions(t, path=()):
    yield path
    if t[0] in ("seqw", "seqb", "tensw", "tensb"):
        yield from _positions(t[1], path + (0,))
        yield from _positions(t[2], path + (1,))


def _at(t, path):
    for i in path:
        t = t[1 + i]
    return t


def _replace(t, path, u):
    if not path:
        return u
    kids = list(t[1:])
    kids[path[0]] = _replace(kids[path[0]], path[1:], u)
    return (t[0], *kids)


def _random_chain(rng, steps):
    """A start term and `steps` valid rewrite steps; returns the start term,
    the term after the last step and the step lines."""
    start = term = _random_prim(rng, 1, 1, 3)
    lines = []
    while len(lines) < steps:
        grow = _size(term) < PROOF_NODE_CAP
        path = rng.choice(list(_positions(term)))
        options = _rewrites(_at(term, path), grow)
        if not options:
            continue
        axiom, direction, new = rng.choice(options)
        term = _replace(term, path, new)
        pos = ".".join(map(str, path)) or "e"
        lines.append(f"step {axiom} at {pos} dir {direction}")
    return start, term, lines


def _script(start, goal, lines):
    return "\n".join([f"prove {_pprint(start)} <= {_pprint(goal)}", *lines, "qed"]) + "\n"


def _proof_replay(seed, workdir):
    rng = random.Random(seed)
    sig = _write(workdir, "proof.sig",
                 "".join(f"sig {g} : {n} -> {m}\n" for g, (n, m) in PROOF_SIG.items()))
    lo, hi = PROOF_STEPS
    lengths = [lo + (hi - lo) * i // (PROOF_SCRIPTS - 1) for i in range(PROOF_SCRIPTS)]
    rng.shuffle(lengths)
    commands, expected = [], []
    for i, steps in enumerate(lengths):
        start, goal, lines = _random_chain(rng, steps)
        good = _write(workdir, f"chain-{i}.prf", _script(start, goal, lines))
        short = _write(workdir, f"chain-{i}-short.prf", _script(start, goal, lines[:-1]))
        commands.append(_cli("check-proof", "--sig", sig, good))
        expected.append({"script": f"chain-{i}", "accept": True})
        commands.append(_cli("check-proof", "--sig", sig, short))
        expected.append({"script": f"chain-{i}-short", "accept": False})
    here = os.path.dirname(os.path.abspath(__file__))
    shipped_dir = os.path.join(os.path.dirname(here), "src", "diagrel", "proofs")
    shipped_sig = _write(workdir, "shipped.sig", "sig R : 1 -> 1\n")
    for name in SHIPPED:
        path = os.path.join(workdir, name)
        shutil.copyfile(os.path.join(shipped_dir, name), path)
        commands.append(_cli("check-proof", "--sig", shipped_sig, path, "--spotcheck",
                             "--trials", SPOTCHECK_TRIALS, "--seed", seed))
        expected.append({"script": name, "accept": True, "spotcheck": True})
    return Plan(commands, expected, _check_proof_replay)


def _check_proof_replay(outputs, expected):
    def one(out, want):
        where = want["script"]
        if _error(out):
            return f"{where}: {_error(out)}"
        first = out["out"].splitlines()[0] if out["out"] else ""
        if want["accept"]:
            if out["code"] != 0 or first != "accepted":
                return f"{where}: exit {out['code']}, {first!r} {out['err'].strip()}"
            if want.get("spotcheck") and "spotcheck passed" not in out["out"]:
                return f"{where}: no spotcheck pass in {out['out']!r}"
        elif out["code"] != 1 or not first.startswith("rejected"):
            return f"{where}: exit {out['code']}, {first!r}, expected a rejection"
        return ""

    return _tally(one(o, w) for o, w in _zip(outputs, expected))


# ---------------------------------------------------------------------------
# proof-doctrine, second part: doctrine laws by exhaustive enumeration
# through the API, not the CLI

LAW_SIZE = 3
BC_SIZE = 2
CHOICE_SIZE = 3
COMPOSITION_SIZES = (1, 2)
COMPREHENSION_SIZE = 3


def _doctrine_sweep(seed, workdir):
    """One command per part, each over every size up to its bound; the seed
    orders the parts."""
    parts = [("laws", LAW_SIZE), ("beck-chevalley", BC_SIZE),
             ("unique-choice", CHOICE_SIZE), ("composition", COMPOSITION_SIZES),
             ("comprehension", COMPREHENSION_SIZE)]
    random.Random(seed).shuffle(parts)
    commands = [{"kind": "doctrine", "part": part, "args": [bound]} for part, bound in parts]
    expected = [_doctrine_expected(part, bound) for part, bound in parts]
    return Plan(commands, expected, _check_doctrine)


def _functions(x, y):
    return [list(t) for t in itertools.product(range(y), repeat=x)]


def _doctrine_expected(part, bound):
    """One entry per record the part returns, in the API's enumeration order
    (sizes, tables and predicates in lexicographic / increasing-bit order)."""
    sizes = range(bound + 1) if isinstance(bound, int) else bound
    out = []
    if part == "laws":
        for x, y in itertools.product(sizes, repeat=2):
            out += [{"part": part, "f": f, "triples": 2 ** x * 2 ** y,
                     "images": [[a, oracle.direct_image(f, a), oracle.universal_image(f, y, a)]
                                for a in range(2 ** x)]}
                    for f in _functions(x, y)]
    elif part == "beck-chevalley":
        for x, y, z in itertools.product(sizes, sizes, sizes[1:]):
            out += [{"part": part, "f": f, "g": g,
                     "lhs": [[a, oracle.preimage(g, oracle.direct_image(f, a))]
                             for a in range(2 ** x)]}
                    for f in _functions(x, z) for g in _functions(y, z)]
    elif part == "unique-choice":
        for x, y in itertools.product(sizes, repeat=2):
            out.append({"part": part, "x": x, "y": y, "rows": [
                [phi, *oracle.choice_and_functional(phi, x, y)] for phi in range(2 ** (x * y))]})
    elif part == "composition":
        for s in sizes:
            full = 2 ** (s * s) - 1
            for phi in range(2 ** (s * s)):
                table, functional = oracle.choice_and_functional(phi, s, s)
                if table is None or not functional:
                    continue
                out.append({"part": part, "phi": phi, "full": full, "rows": [
                    [psi, oracle.pred_compose(phi, psi, s, s, s),
                     oracle.pred_compose(phi, full & ~psi, s, s, s)]
                    for psi in range(2 ** (s * s))]})
    else:
        out = [{"part": part, "size": x, "incl": [i * x + i for i in range(x)]} for x in sizes]
    return out


def _check_doctrine(outputs, expected):
    """One output per part, a list of records; one verdict per record."""
    def verdicts():
        for out, group in _zip(outputs, expected):
            if isinstance(out, dict):  # the part raised, or never ran
                for want in group:
                    yield f"{want['part']}: {_error(out)}"
                continue
            if len(out) != len(group):
                yield f"{group[0]['part']}: {len(out)} records, {len(group)} expected"
            yield from map(one, out, group)

    def one(out, want):
        part = want["part"]
        if _error(out):
            return f"{part}: {_error(out)}"
        if part == "laws":
            where = f"laws f={want['f']}"
            if out["f"] != want["f"] or out["images"] != want["images"]:
                return f"{where}: images differ from the pointwise ones"
            if out["adj"] != want["triples"] or out["frob"] != want["triples"]:
                return f"{where}: adjunction {out['adj']}, Frobenius {out['frob']} of {want['triples']}"
            if out["dual"] != len(want["images"]):
                return f"{where}: forall = neg exists neg on {out['dual']}/{len(want['images'])}"
            return ""
        if part == "beck-chevalley":
            where = f"beck-chevalley f={want['f']} g={want['g']}"
            if [out["f"], out["g"], out["lhs"]] != [want["f"], want["g"], want["lhs"]]:
                return f"{where}: images differ from the pointwise ones"
            if out["holds"] != len(want["lhs"]):
                return f"{where}: holds on {out['holds']}/{len(want['lhs'])}"
            return ""
        if part == "unique-choice":
            if out["rows"] != want["rows"]:
                return f"unique-choice {want['x']}x{want['y']}: witnesses differ"
            return ""
        if part == "composition":
            if out["phi"] != want["phi"] or out["rows"] != want["rows"]:
                return f"composition phi={want['phi']}: composites differ"
            if any(r[1] & r[2] or r[1] | r[2] != want["full"] for r in out["rows"]):
                return f"composition phi={want['phi']}: negation not preserved"
            return ""
        if out["size"] != want["size"] or out["incl"] != want["incl"] \
                or not all(out["report"].values()):
            return f"comprehension of equality on {want['size']}: {out}"
        return ""

    return _tally(verdicts())


# ---------------------------------------------------------------------------
# proof-doctrine: both parts, one after the other.  Neither does relation
# kernel work, so the workload is the control for kernel changes.


def _proof_doctrine(seed, workdir):
    proof = _proof_replay(seed, workdir)
    doctrine = _doctrine_sweep(seed, workdir)
    return Plan(proof.commands + doctrine.commands,
                {"proof": proof.expected, "doctrine": doctrine.expected},
                _check_proof_doctrine)


def _check_proof_doctrine(outputs, expected):
    """A CLI command yields one output, so the proof part's outputs come
    first, one per expected verdict."""
    n = len(expected["proof"])
    a1, f1, p1 = _check_proof_replay(outputs[:n], expected["proof"])
    a2, f2, p2 = _check_doctrine(outputs[n:], expected["doctrine"])
    return a1 + a2, f1 + f2, p1 or p2


_GENERATORS = {
    "order-search": _order_search,
    "sugar-eval": _sugar_eval,
    "proof-doctrine": _proof_doctrine,
}


def generate(name, seed, workdir):
    return _GENERATORS[name](seed, workdir)


def plant(name, expected):
    """Copies of `expected`, each with one wrong answer planted in it."""
    bad = copy.deepcopy(expected)
    if name == "order-search":
        bad[0]["models"] = set(list(bad[0]["models"])[1:])  # a dropped model
        extra = copy.deepcopy(expected)
        extra[-1]["axioms"] += 1  # an axiom the database lacks
        return [bad, extra]
    if name == "sugar-eval":
        pair = next(iter(bad[0]["pairs"]))
        bad[0]["pairs"].discard(pair)  # one flipped bit
        return [bad]
    bad["proof"][1]["accept"] = True  # a mutant that should be accepted
    other = copy.deepcopy(expected)
    first = other["doctrine"][0][0]
    if "images" in first:
        first["images"][-1][1] ^= 1  # one flipped bit of a direct image
    elif "lhs" in first:
        first["lhs"][-1][1] ^= 1
    elif "rows" in first:
        first["rows"][-1][1] = None if first["rows"][-1][1] else [0]  # a wrong witness
    else:
        first["size"] += 1
    return [bad, other]
