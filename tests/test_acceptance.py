"""Acceptance gate: ten criteria, one pass/fail line each (run with -s to see
the lines on success; any failure raises with details)."""

import itertools
import random
import time

from diagrel import terms as T
from diagrel import finrel as F
from diagrel import rewrite as R
from diagrel import doctrine as D
from diagrel import theory as TH

import helpers
from test_rewrite import PROOF_DIR, SHIPPED, _mutations

SIG = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 2)})


def _report(n, slug, ok, detail=""):
    line = f"criterion {n} ({slug}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_axiom_soundness():
    t0 = time.time()
    failures = []
    for k in (1, 2, 3):
        for rep in R.verify_axioms(k=k, trials=200, seed=2024, family=None):
            if not rep.ok:
                failures.append((k, rep.name, rep.counterexample))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _report(1, "axiom soundness", ok,
            f"106 axioms x 3 carriers x 200 trials in {elapsed:.1f}s"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_2_negation_is_complement():
    rng = random.Random(2)
    bad = 0
    for _ in range(100):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        t = helpers.random_term(rng, SIG, n, m, 4)
        interp = F.Interpretation(SIG, 2, {
            name: helpers.random_relation(rng, 2, dn, dm)
            for name, (dn, dm) in SIG.generators.items()})
        if not F.equal(F.evaluate(T.Neg(t), interp),
                       F.complement(F.evaluate(t, interp))):
            bad += 1
    _report(2, "negation = complement", bad == 0, f"{bad}/100 failures")


def test_criterion_3_maps_and_comap_laws():
    k = 2
    funcs = [helpers.from_pairs(k, 1, 1, [((x,), (f[x],)) for x in range(k)])
             for f in itertools.product(range(k), repeat=k)]
    rels = [F.FinRelation(k, 1, 1, b) for b in range(1 << k * k)]
    bad = 0
    for f in funcs:
        for c in rels:
            if not F.equal(F.compose_white(f, F.complement(c)),
                           F.complement(F.compose_white(f, c))):
                bad += 1
            fop = F.converse(f)
            if not F.equal(F.compose_white(F.complement(c), fop),
                           F.complement(F.compose_white(c, fop))):
                bad += 1
    _report(3, "maps and comap laws", bad == 0,
            f"{bad} failures over 4 functions x 16 relations, both laws")


def test_criterion_4_spider_theorem():
    rng = random.Random(4)
    k = 3
    interp = F.Interpretation(SIG, k, {
        name: helpers.random_relation(rng, k, n, m)
        for name, (n, m) in SIG.generators.items()})
    bad_eval = 0
    for _ in range(500):
        t, _, _ = helpers.random_connected_white(rng, max_consts=6)
        form = R.spider_normalize(t, SIG)
        if not F.equal(F.evaluate(t, interp), helpers.spider_relation(form, k)):
            bad_eval += 1
    bad_eq = 0
    for _ in range(200):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        a = helpers.random_white_fragment(rng, n, m, 3)
        b = helpers.random_white_fragment(rng, n, m, 3)
        same_form = R.spider_normalize(a, SIG) == R.spider_normalize(b, SIG)
        same_sem = F.equal(F.evaluate(a, interp), F.evaluate(b, interp))
        if same_form != same_sem:
            bad_eq += 1
    _report(4, "spider theorem", bad_eval == 0 and bad_eq == 0,
            f"{bad_eval}/500 eval mismatches, {bad_eq}/200 equality mismatches")


def test_criterion_5_doctrine_laws():
    t0 = time.time()
    bad = []

    def objs(hi, lo=0):
        return [D.FinSetObj(s) for s in range(lo, hi + 1)]

    # adjunction, Frobenius reciprocity and forall = neg-exists-neg at sizes <= 3
    for X in objs(3):
        for Y in objs(3):
            for f in D.all_morphisms(X, Y):
                for a in D.all_predicates(X):
                    if D.forall_along(f, a) != D.neg(D.exists_along(f, D.neg(a))):
                        bad.append(("forall", f))
                    for b in D.all_predicates(Y):
                        if D.leq(D.exists_along(f, a), b) != D.leq(a, D.subst(f, b)):
                            bad.append(("adjunction", f))
                        if D.exists_along(f, D.meet(a, D.subst(f, b))) \
                                != D.meet(D.exists_along(f, a), b):
                            bad.append(("frobenius", f))
    # Beck–Chevalley over all pullback squares at sizes <= 2
    for X in objs(2):
        for Y in objs(2):
            for Z in objs(2, lo=1):
                for f in D.all_morphisms(X, Z):
                    for g in D.all_morphisms(Y, Z):
                        pairs = [(x, y) for x in range(X.size)
                                 for y in range(Y.size) if f(x) == g(y)]
                        Pb = D.FinSetObj(len(pairs))
                        p1 = D.FinSetMor(Pb, X, tuple(x for x, _ in pairs))
                        p2 = D.FinSetMor(Pb, Y, tuple(y for _, y in pairs))
                        for a in D.all_predicates(X):
                            if D.subst(g, D.exists_along(f, a)) \
                                    != D.exists_along(p2, D.subst(p1, a)):
                                bad.append(("beck-chevalley", f, g))
    # composition lemma for functional entire predicates at sizes <= 2
    for s in (1, 2):
        X = Y = Z = D.FinSetObj(s)
        for phi in D.all_predicates(D.prod(X, Y)):
            if not (D.is_functional(phi, X, Y) and D.is_entire(phi, X, Y)):
                continue
            for psi in D.all_predicates(D.prod(Y, Z)):
                if D.relp_compose(phi, D.neg(psi), X, Y, Z) \
                        != D.neg(D.relp_compose(phi, psi, X, Y, Z)):
                    bad.append(("composition-lemma", phi, psi))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 120
    _report(5, "doctrine laws", ok,
            f"exhaustive in {elapsed:.1f}s" + (f"; first: {bad[:1]}" if bad else ""))


def test_criterion_6_equivalence_instances():
    bad = []
    # Rel(P) composition/identity/tensor coincide with finrel at sizes <= 2
    for k in (1, 2):
        X = D.FinSetObj(k)
        rels = [F.FinRelation(k, 1, 1, b) for b in range(1 << k * k)]
        if F.FinRelation(k, 1, 1, D.relp_identity(X).bits) != F.constant("idw", k, 1):
            bad.append(("identity", k))
        for r in rels:
            for s in rels:
                comp = D.relp_compose(D.relation_to_predicate(r)[0],
                                      D.relation_to_predicate(s)[0], X, X, X)
                if F.FinRelation(k, 1, 1, comp.bits) != F.compose_white(r, s):
                    bad.append(("compose", r, s))
                tens = D.relp_tensor(D.relation_to_predicate(r)[0],
                                     D.relation_to_predicate(s)[0], X, X, X, X)
                if F.FinRelation(k, 2, 2, tens.bits) != F.tensor_white(r, s):
                    bad.append(("tensor", r, s))
    # maps of Rel(P) = functional + entire at sizes <= 3
    for k in (1, 2, 3):
        X = D.FinSetObj(k)
        for b in range(1 << k * k):
            r = F.FinRelation(k, 1, 1, b)
            phi = D.relation_to_predicate(r)[0]
            if (D.is_functional(phi, X, X) and D.is_entire(phi, X, X)) \
                    != helpers.is_map(r):
                bad.append(("maps", r))
    # comprehensive diagonals and RUC on all predicates at sizes <= 3
    for sx in range(4):
        X = D.FinSetObj(sx)
        Xa, incl, rep = D.comprehension(D.equality_pred(X))
        if Xa.size != sx or not all(rep.values()):
            bad.append(("diagonal", sx))
        for sy in range(4):
            Y = D.FinSetObj(sy)
            for phi in D.all_predicates(D.prod(X, Y)):
                w = D.ruc_witness(phi, X, Y)
                entire = D.is_entire(phi, X, Y)
                functional = D.is_functional(phi, X, Y)
                if entire != (w is not None):
                    bad.append(("ruc-entire", phi))
                elif w is not None and functional and D.graph_of(w) != phi:
                    bad.append(("ruc-graph", phi))
    _report(6, "doctrine/relation equivalences", not bad,
            f"first: {bad[:1]}" if bad else "all instance checks agree")


def test_criterion_7_tabulation_equals_comprehension():
    bad = []
    for k in range(5):
        for bits in range(1 << k):
            r = F.FinRelation(k, 1, 0, bits)
            Xr, ir, rep = D.tabulation(r)
            Xa, ia, _ = D.comprehension(D.relation_to_predicate(r)[0])
            same = (Xr.size == Xa.size
                    and [ir(i) for i in range(Xr.size)]
                    == [ia(i) for i in range(Xa.size)])
            if not (same and all(rep.values())):
                bad.append((k, bits))
    _report(7, "tabulation = comprehension", not bad,
            "all r : X -> I with |X| <= 4" + (f"; first: {bad[:1]}" if bad else ""))


def test_criterion_8_order_theory_counts():
    th = TH.order_theory()
    counts = [len(TH.enumerate_models(th, k)) for k in (1, 2, 3)]
    import test_theory
    oracle = [test_theory._naive_order_count(k) for k in (1, 2, 3)]
    ok = counts == [1, 2, 6] == oracle
    _report(8, "order-theory model counts", ok, f"got {counts}, oracle {oracle}")


def test_criterion_9_proof_kernel():
    sig = T.Signature({"R": (1, 1), "S": (2, 1)})
    problems = []
    for name in SHIPPED:
        with open(f"{PROOF_DIR}/{name}") as fh:
            script = R.parse_proof(fh.read(), sig)
        if not R.check_proof(script, sig).accepted:
            problems.append(("accept", name))
        ok, counter = R.semantic_spotcheck(script, sig, trials=50, k=2, seed=9)
        if not ok:
            problems.append(("spotcheck", name, counter))
        for i, mutant in enumerate(_mutations(script)):
            if R.check_proof(mutant, sig).accepted:
                problems.append(("mutant-accepted", name, i))
    _report(9, "proof kernel", not problems,
            f"{len(SHIPPED)} scripts, all mutations rejected"
            + (f"; {problems[:2]}" if problems else ""))


def test_criterion_10_dagger_algebra():
    rng = random.Random(10)
    bad = 0
    for _ in range(200):
        n, m, p = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a = helpers.random_term(rng, SIG, n, m, 2)
        b = helpers.random_term(rng, SIG, m, p, 2)
        c = helpers.random_term(rng, SIG, n, m, 2)
        interp = F.Interpretation(SIG, 2, {
            name: helpers.random_relation(rng, 2, dn, dm)
            for name, (dn, dm) in SIG.generators.items()})

        def ev(t):
            return F.evaluate(t, interp)

        checks = [F.equal(ev(T.Dag(T.Dag(a))), ev(a))]
        for seq, tens in ((T.SeqW, T.TensW), (T.SeqB, T.TensB)):
            checks.append(F.equal(ev(T.Dag(seq(a, b))), ev(seq(T.Dag(b), T.Dag(a)))))
            checks.append(F.equal(ev(T.Dag(tens(a, c))), ev(tens(T.Dag(a), T.Dag(c)))))
        checks.append(F.equal(ev(T.Dag(T.Meet(a, c))), ev(T.Meet(T.Dag(a), T.Dag(c)))))
        checks.append(F.equal(ev(T.Dag(T.Top(n, m))), ev(T.Top(m, n))))
        checks.append(F.equal(ev(T.Dag(T.IdW(n))), ev(T.IdW(n))))
        checks.append(F.equal(ev(T.Dag(T.Const("copyw"))), ev(T.Const("cocw"))))
        checks.append(F.equal(ev(T.Dag(T.Const("dscw"))), ev(T.Const("codw"))))
        checks.append(F.equal(ev(T.Dag(T.SymW(1, 1))), ev(T.SymW(1, 1))))
        # monotonicity via a <= a v c
        checks.append(F.included(ev(T.Dag(a)), ev(T.Dag(T.Join(a, c)))))
        if not all(checks):
            bad += 1
    _report(10, "dagger algebra", bad == 0, f"{bad}/200 failing pairs")
