import itertools
import random

import pytest

from diagrel import finrel as F
from diagrel import doctrine as D
from diagrel.terms import DiagrelError

import helpers


def objs(lo, hi):
    return [D.FinSetObj(s) for s in range(lo, hi + 1)]


def test_finset_category_laws():
    for X in objs(0, 3):
        for Y in objs(0, 3):
            for f in D.all_morphisms(X, Y):
                assert D.compose(D.identity(X), f) == f
                assert D.compose(f, D.identity(Y)) == f
    X, Y, Z = D.FinSetObj(2), D.FinSetObj(3), D.FinSetObj(2)
    for f in D.all_morphisms(X, Y):
        for g in D.all_morphisms(Y, Z):
            h = D.compose(f, g)
            assert all(h(x) == g(f(x)) for x in range(X.size))


def test_product_structure():
    X, Y = D.FinSetObj(2), D.FinSetObj(3)
    P = D.prod(X, Y)
    assert P.size == 6
    p1, p2 = D.proj1(X, Y), D.proj2(X, Y)
    for x in range(X.size):
        for y in range(Y.size):
            i = D.pair_index(X, Y, x, y)
            assert p1(i) == x and p2(i) == y
    f = D.FinSetMor(X, X, (1, 0))
    g = D.FinSetMor(X, Y, (2, 0))
    pr = D.pairing(f, g)
    assert all(D.compose(pr, p1)(x) == f(x) for x in range(X.size))
    assert all(D.compose(pr, p2)(x) == g(x) for x in range(X.size))
    d = D.diagonal(X)
    assert all(D.proj1(X, X)(d(x)) == x and D.proj2(X, X)(d(x)) == x
               for x in range(X.size))


def test_predicate_lattice_boolean():
    for X in objs(0, 3):
        preds = list(D.all_predicates(X))
        assert len(preds) == 2 ** X.size
        for a in preds:
            assert D.leq(D.bottom(X), a) and D.leq(a, D.top(X))
            assert D.meet(a, D.neg(a)) == D.bottom(X)
            assert D.join(a, D.neg(a)) == D.top(X)
            assert D.neg(D.neg(a)) == a
            for b in preds:
                assert D.leq(D.meet(a, b), a)
                assert D.leq(a, D.join(a, b))


def test_subst_functorial_and_boolean():
    X, Y, Z = D.FinSetObj(2), D.FinSetObj(2), D.FinSetObj(2)
    for f in D.all_morphisms(X, Y):
        for g in D.all_morphisms(Y, Z):
            for c in D.all_predicates(Z):
                assert D.subst(f, D.subst(g, c)) == D.subst(D.compose(f, g), c)
            for a in D.all_predicates(Y):
                assert D.subst(f, D.neg(a)) == D.neg(D.subst(f, a))
                for b in D.all_predicates(Y):
                    assert D.subst(f, D.meet(a, b)) == D.meet(D.subst(f, a),
                                                              D.subst(f, b))


def test_exists_matches_formula_oracle():
    for X in objs(0, 2):
        for Y in objs(0, 2):
            for f in D.all_morphisms(X, Y):
                for a in D.all_predicates(X):
                    assert D.exists_along(f, a) == helpers.exists_along_formula(f, a)


def test_forall_matches_fiber_oracle():
    for X in objs(0, 2):
        for Y in objs(0, 2):
            for f in D.all_morphisms(X, Y):
                for a in D.all_predicates(X):
                    assert D.forall_along(f, a) == helpers.forall_along_fiber(f, a)


def test_adjunctions_exhaustive():
    # exists_f ⊣ subst_f ⊣ forall_f
    for X in objs(0, 2):
        for Y in objs(0, 2):
            for f in D.all_morphisms(X, Y):
                for a in D.all_predicates(X):
                    for b in D.all_predicates(Y):
                        assert D.leq(D.exists_along(f, a), b) \
                            == D.leq(a, D.subst(f, b))
                        assert D.leq(D.subst(f, b), a) \
                            == D.leq(b, D.forall_along(f, a))


def test_frobenius_reciprocity_exhaustive():
    for X in objs(0, 2):
        for Y in objs(0, 2):
            for f in D.all_morphisms(X, Y):
                for a in D.all_predicates(X):
                    for b in D.all_predicates(Y):
                        assert D.exists_along(f, D.meet(a, D.subst(f, b))) \
                            == D.meet(D.exists_along(f, a), b)


def _pullback(f, g):
    """The pullback of f : X -> Z, g : Y -> Z with its two projections."""
    pairs = [(x, y) for x in range(f.dom.size) for y in range(g.dom.size)
             if f(x) == g(y)]
    P = D.FinSetObj(len(pairs))
    p1 = D.FinSetMor(P, f.dom, tuple(x for x, _ in pairs))
    p2 = D.FinSetMor(P, g.dom, tuple(y for _, y in pairs))
    return P, p1, p2


def test_beck_chevalley_exhaustive():
    for X in objs(0, 2):
        for Y in objs(0, 2):
            for Z in objs(1, 2):
                for f in D.all_morphisms(X, Z):
                    for g in D.all_morphisms(Y, Z):
                        _, p1, p2 = _pullback(f, g)
                        for a in D.all_predicates(X):
                            assert D.subst(g, D.exists_along(f, a)) \
                                == D.exists_along(p2, D.subst(p1, a))


def test_equality_predicate():
    X = D.FinSetObj(3)
    e = D.equality_pred(X)
    XX = D.prod(X, X)
    for i in range(XX.size):
        x, y = D.proj1(X, X)(i), D.proj2(X, X)(i)
        assert ((x == y) == (i in e.members()))
    # delta = exists along the diagonal of top
    assert e == D.exists_along(D.diagonal(X), D.top(X))


def test_functional_entire_on_graphs():
    X, Y = D.FinSetObj(2), D.FinSetObj(3)
    for f in D.all_morphisms(X, Y):
        g = D.graph_of(f)
        assert D.is_functional(g, X, Y)
        assert D.is_entire(g, X, Y)
    # the full predicate on X×Y is entire but not functional when |Y| > 1
    full = D.top(D.prod(X, Y))
    assert D.is_entire(full, X, Y) and not D.is_functional(full, X, Y)
    empty = D.bottom(D.prod(X, Y))
    assert D.is_functional(empty, X, Y) and not D.is_entire(empty, X, Y)


def test_is_functional_is_pointwise_single_valuedness():
    """Every predicate over X×Y, |X|, |Y| <= 3.  The sizes are visited
    twice, in a shuffled order, so that each (X, Y) follows other sizes and
    a structural map cached for one size would be caught serving another."""
    sizes = list(itertools.product(range(4), repeat=2))
    random.Random(8).shuffle(sizes)
    for sx, sy in sizes + sizes[::-1]:
        X, Y = D.FinSetObj(sx), D.FinSetObj(sy)
        for phi in D.all_predicates(D.prod(X, Y)):
            single_valued = all(
                sum(phi.bits >> (x * sy + y) & 1 for y in range(sy)) <= 1
                for x in range(sx))
            assert D.is_functional(phi, X, Y) == single_valued, (sx, sy, phi.bits)


def test_relp_category_laws():
    X, Y, Z = D.FinSetObj(2), D.FinSetObj(2), D.FinSetObj(2)
    for phi in D.all_predicates(D.prod(X, Y)):
        assert D.relp_compose(D.relp_identity(X), phi, X, X, Y) == phi
        assert D.relp_compose(phi, D.relp_identity(Y), X, Y, Y) == phi


def test_relp_agrees_with_finrel():
    for k in (1, 2):
        X = D.FinSetObj(k)
        rels = [F.FinRelation(k, 1, 1, b) for b in range(1 << k * k)]
        for r in rels:
            for s in rels:
                lhs = D.relp_compose(D.relation_to_predicate(r)[0],
                                     D.relation_to_predicate(s)[0], X, X, X)
                assert F.equal(F.FinRelation(k, 1, 1, lhs.bits),
                               F.compose_white(r, s))
        assert F.equal(F.FinRelation(k, 1, 1, D.relp_identity(X).bits),
                       F.constant("idw", k, 1))


def test_relp_tensor_agrees_with_finrel():
    k = 2
    X = D.FinSetObj(k)
    for rb in range(16):
        for sb in range(16):
            r, s = F.FinRelation(k, 1, 1, rb), F.FinRelation(k, 1, 1, sb)
            t = D.relp_tensor(D.relation_to_predicate(r)[0],
                              D.relation_to_predicate(s)[0], X, X, X, X)
            # reread the tensor predicate as a 2 -> 2 relation
            tr = D.predicate_to_relation(t, k, 2, 2)
            want = F.tensor_white(r, s)
            assert F.equal(F.FinRelation(k, 2, 2, tr.bits), want)


def test_relp_tensor_matches_pointwise_oracle():
    """Every (phi, psi) over objects of sizes 0..2."""
    sizes = list(itertools.product(objs(0, 2), repeat=2))
    for X1, Y1 in sizes:
        for X2, Y2 in sizes:
            for phi in D.all_predicates(D.prod(X1, Y1)):
                for psi in D.all_predicates(D.prod(X2, Y2)):
                    assert D.relp_tensor(phi, psi, X1, Y1, X2, Y2) \
                        == helpers.naive_relp_tensor(phi, psi, X1, Y1, X2, Y2)


def test_relp_tensor_agrees_with_finrel_at_small_carriers():
    rng = random.Random(4)
    for k in range(4):
        for n1, m1, n2, m2 in itertools.product(range(2), repeat=4):
            for _ in range(3):
                r = helpers.random_relation(rng, k, n1, m1)
                s = helpers.random_relation(rng, k, n2, m2)
                (phi, X1, Y1), (psi, X2, Y2) = \
                    D.relation_to_predicate(r), D.relation_to_predicate(s)
                t = D.relp_tensor(phi, psi, X1, Y1, X2, Y2)
                assert F.equal(D.predicate_to_relation(t, k, n1 + n2, m1 + m2),
                               F.tensor_white(r, s)), (k, n1, m1, n2, m2)


def test_predicate_to_relation_round_trip():
    rng = random.Random(9)
    for k in range(4):
        for n, m in itertools.product(range(3), repeat=2):
            r = helpers.random_relation(rng, k, n, m)
            assert D.predicate_to_relation(D.relation_to_predicate(r)[0], k, n, m) == r


def test_predicate_to_relation_at_carriers_zero_and_one():
    """At k <= 1 every power of the carrier has the same size, so the
    arities are given, not read off the objects."""
    one, empty = D.top(D.FinSetObj(1)), D.bottom(D.FinSetObj(0))
    assert D.predicate_to_relation(one, 1, 3, 2) == F.FinRelation(1, 3, 2, 1)
    assert D.predicate_to_relation(one, 0, 0, 0) == F.FinRelation(0, 0, 0, 1)
    assert D.predicate_to_relation(empty, 0, 1, 2) == F.FinRelation(0, 1, 2, 0)


@pytest.mark.parametrize("size, k, n, m", [
    (2, 1, 1, 1),  # at k = 1 every space has one element
    (1, 0, 1, 0),  # at k = 0 a space of positive arity is empty
    (0, 0, 0, 0),
    (8, 2, 1, 1),
    (4, 2, 10 ** 9, 1),  # the size guard refuses before a power is built
])
def test_predicate_to_relation_refuses_a_size_mismatch(size, k, n, m):
    with pytest.raises(DiagrelError):
        D.predicate_to_relation(D.bottom(D.FinSetObj(size)), k, n, m)


def test_maps_are_functional_entire():
    for k in (1, 2, 3):
        X = D.FinSetObj(k)
        for b in range(1 << k * k):
            r = F.FinRelation(k, 1, 1, b)
            phi, _, _ = D.relation_to_predicate(r)
            assert (D.is_functional(phi, X, X) and D.is_entire(phi, X, X)) \
                == helpers.is_map(r)


def test_composition_lemma_functional_entire():
    # for functional entire phi: phi ; ¬psi = ¬(phi ; psi)
    X = Y = Z = D.FinSetObj(2)
    XY, YZ = D.prod(X, Y), D.prod(Y, Z)
    for phi in D.all_predicates(XY):
        if not (D.is_functional(phi, X, Y) and D.is_entire(phi, X, Y)):
            continue
        for psi in D.all_predicates(YZ):
            assert D.relp_compose(phi, D.neg(psi), X, Y, Z) \
                == D.neg(D.relp_compose(phi, psi, X, Y, Z))


def test_ruc_witness_on_all_predicates():
    for sx in range(4):
        for sy in range(4):
            X, Y = D.FinSetObj(sx), D.FinSetObj(sy)
            for phi in D.all_predicates(D.prod(X, Y)):
                functional = D.is_functional(phi, X, Y)
                entire = D.is_entire(phi, X, Y)
                w = D.ruc_witness(phi, X, Y)
                if not entire:
                    assert w is None
                    continue
                assert w is not None
                if functional:
                    # unique choice: the graph recovers phi exactly
                    assert D.graph_of(w) == phi
                else:
                    assert D.leq(D.graph_of(w), phi)


def test_comprehension_universal():
    for size in range(4):
        X = D.FinSetObj(size)
        for alpha in D.all_predicates(X):
            Xa, incl, report = D.comprehension(alpha)
            assert Xa.size == len(alpha.members())
            assert report["subst_top"] and report["universal"] and report["fullness"]
            assert D.subst(incl, alpha) == D.top(Xa)
            for max_test_size in range(4):
                Xa, incl, report = D.comprehension(alpha, max_test_size)
                Xn, incl_n, report_n = helpers.naive_comprehension(alpha, max_test_size)
                assert (Xa.size, incl.table, report) == (Xn.size, incl_n.table, report_n)


def test_comprehensive_diagonals():
    # comprehension of the equality predicate is the diagonal
    for size in range(1, 4):
        X = D.FinSetObj(size)
        Xa, incl, report = D.comprehension(D.equality_pred(X))
        assert Xa.size == size
        assert report["universal"]
        diag = {D.pair_index(X, X, x, x) for x in range(size)}
        assert {incl(i) for i in range(Xa.size)} == diag


def test_tabulation_checks():
    r = helpers.from_pairs(3, 1, 0, [((0,), ()), ((2,), ())])
    Xr, incl, report = D.tabulation(r)
    assert Xr.size == 2
    assert report["ii_dagger_id"] and report["idagger_bang_r"]
    assert [incl(i) for i in range(Xr.size)] == [0, 2]


def test_tabulation_equals_comprehension():
    for k in range(5):
        for bits in range(1 << k):
            r = F.FinRelation(k, 1, 0, bits)
            Xr, ir, _ = D.tabulation(r)
            Xa, ia, _ = D.comprehension(D.relation_to_predicate(r)[0])
            assert Xr.size == Xa.size
            assert [ir(i) for i in range(Xr.size)] == [ia(i) for i in range(Xa.size)]
