import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diagrel import terms as T
from diagrel import finrel as F

import helpers


@given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=4))
def test_encode_decode_roundtrip(k, xs):
    xs = tuple(x % k for x in xs)
    assert F.decode(k, len(xs), F.encode(k, xs)) == xs


def test_space_guard():
    with pytest.raises(F.SizeLimit):
        F.FinRelation.empty(2, 20, 20)


def test_space_bits_decides_at_the_exact_bound(monkeypatch):
    # the exponent only short-cuts: each size is refused exactly when it
    # exceeds MAX_BITS
    for limit in (-1, 0, 1, 1000, 2 ** 30):
        monkeypatch.setattr(F, "MAX_BITS", limit)
        for k in range(40):
            for n, m in itertools.product(range(7), repeat=2):
                if k ** (n + m) <= limit:
                    assert F.space_bits(k, n, m) == k ** (n + m)
                else:
                    with pytest.raises(F.SizeLimit):
                        F.space_bits(k, n, m)


def test_from_pairs_and_has():
    r = F.FinRelation.from_pairs(3, 1, 2, [((0,), (1, 2)), ((2,), (0, 0))])
    assert r.has((0,), (1, 2)) and r.has((2,), (0, 0))
    assert not r.has((0,), (0, 0))
    assert sorted(r.pairs()) == [((0,), (1, 2)), ((2,), (0, 0))]


def _rand(rng):
    k = rng.choice([1, 2, 3])
    n, m = rng.randint(0, 2), rng.randint(0, 2)
    return helpers.random_relation(rng, k, n, m)


def test_operations_match_naive_oracles():
    rng = random.Random(42)
    for _ in range(300):
        a = _rand(rng)
        b = helpers.random_relation(rng, a.carrier, rng.randint(0, 2), rng.randint(0, 2))
        c = helpers.random_relation(rng, a.carrier, a.cod_arity, rng.randint(0, 2))
        assert F.equal(F.compose_white(a, c), helpers.naive_compose_white(a, c))
        assert F.equal(F.compose_black(a, c), helpers.naive_compose_black(a, c))
        assert F.equal(F.tensor_white(a, b), helpers.naive_tensor_white(a, b))
        assert F.equal(F.tensor_black(a, b), helpers.naive_tensor_black(a, b))
        assert F.equal(F.converse(a), helpers.naive_converse(a))


def test_de_morgan_duality():
    rng = random.Random(7)
    for _ in range(200):
        a = _rand(rng)
        c = helpers.random_relation(rng, a.carrier, a.cod_arity, rng.randint(0, 2))
        b = helpers.random_relation(rng, a.carrier, rng.randint(0, 2), rng.randint(0, 2))
        assert F.equal(F.compose_black(a, c),
                       F.complement(F.compose_white(F.complement(a), F.complement(c))))
        assert F.equal(F.tensor_black(a, b),
                       F.complement(F.tensor_white(F.complement(a), F.complement(b))))


def test_identity_and_symmetry():
    for k in (1, 2, 3):
        idw = F.identity_white(k, 1)
        assert sorted(idw.pairs()) == [((x,), (x,)) for x in range(k)]
        idb = F.identity_black(k, 1)
        assert F.equal(idb, F.complement(idw))
        sym = F.symmetry_white(k, 1, 1)
        assert all(sym.has((x, y), (y, x)) for x in range(k) for y in range(k))
        assert sym.bits.bit_count() == k * k


def test_constants_pointwise():
    k = 3
    cw = F.copy_white(k, 1)
    assert sorted(cw.pairs()) == [((x,), (x, x)) for x in range(k)]
    dw = F.discard_white(k, 1)
    assert sorted(dw.pairs()) == [((x,), ()) for x in range(k)]
    assert F.equal(F.cocopy_white(k, 1), F.converse(cw))
    assert F.equal(F.codiscard_white(k, 1), F.converse(dw))
    # black (co)monoids are the complements of the white ones
    assert F.equal(F.copy_black(k, 1), F.complement(cw))
    assert F.equal(F.discard_black(k, 1), F.FinRelation.empty(k, 1, 0))
    assert F.equal(F.codiscard_black(k, 1), F.FinRelation.empty(k, 0, 1))


def test_black_macros_denote_complements_of_white():
    pairs = [(T.copy_w, T.copy_b, F.copy_black), (T.cocopy_w, T.cocopy_b, F.cocopy_black),
             (T.discard_w, T.discard_b, F.discard_black),
             (T.codiscard_w, T.codiscard_b, F.codiscard_black)]
    for k in range(4):
        interp = F.Interpretation(T.EMPTY_SIGNATURE, k, {})
        for white, black, constant in pairs:
            for n in range(4):
                got = F.evaluate(black(n), interp)
                assert F.equal(got, F.complement(F.evaluate(white(n), interp))), (n, k)
                assert F.equal(got, constant(k, n)), (n, k)


def test_constants_arity_n_are_tensor_shuffles():
    # copy at arity n relates a tuple to its doubling
    k, n = 2, 2
    cw = F.copy_white(k, n)
    for xs in itertools.product(range(k), repeat=n):
        assert cw.has(xs, xs + xs)
    assert cw.bits.bit_count() == k ** n


def test_inclusion_and_witness():
    a = F.FinRelation.from_pairs(2, 1, 1, [((0,), (0,))])
    b = F.FinRelation.from_pairs(2, 1, 1, [((0,), (0,)), ((1,), (1,))])
    assert F.included(a, b) and not F.included(b, a)
    assert F.inclusion_witness(a, b) is None
    w = F.inclusion_witness(b, a)
    assert w == (((1,), (1,)))


def test_linear_adjoint_laws():
    # id_white <= a ;_black adj(a)  and  adj(a) ;_white a <= id_black
    rng = random.Random(9)
    for _ in range(100):
        k = rng.choice([1, 2, 3])
        a = helpers.random_relation(rng, k, 1, rng.randint(0, 2))
        adj = F.linear_adjoint(a)
        assert F.included(F.identity_white(k, 1), F.compose_black(a, adj))
        assert F.included(F.compose_white(adj, a), F.identity_black(k, a.cod_arity))


def test_is_map_iff_function_exhaustive_k2():
    k = 2
    for bits in range(1 << (k * k)):
        r = F.FinRelation(k, 1, 1, bits)
        assert F.is_map(r) == helpers.is_function(r)
    assert sum(F.is_map(F.FinRelation(k, 1, 1, b)) for b in range(16)) == 4


def test_interpretation_validation():
    sig = T.Signature({"R": (1, 1)})
    good = F.Interpretation(sig, 2, {"R": F.identity_white(2, 1)})
    assert good.carrier == 2
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {})
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {"R": F.identity_white(3, 1)})
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {"R": F.FinRelation.empty(2, 2, 1)})


def test_evaluate_generators_and_op():
    sig = T.Signature({"R": (1, 1)})
    r = F.FinRelation.from_pairs(2, 1, 1, [((0,), (1,))])
    interp = F.Interpretation(sig, 2, {"R": r})
    assert F.equal(F.evaluate(T.Gen("R"), interp), r)
    # the opposite generator denotes the linear adjoint: complement of converse
    assert F.equal(F.evaluate(T.GenOp("R"), interp), F.linear_adjoint(r))


def test_evaluate_compositional():
    sig = T.Signature({"R": (1, 1), "S": (1, 2)})
    rng = random.Random(13)
    interp = F.Interpretation(sig, 2, {
        "R": helpers.random_relation(rng, 2, 1, 1),
        "S": helpers.random_relation(rng, 2, 1, 2)})
    t = T.SeqW(T.Gen("R"), T.Gen("S"))
    assert F.equal(F.evaluate(t, interp),
                   F.compose_white(interp.assignment["R"], interp.assignment["S"]))
    t2 = T.TensB(T.Gen("R"), T.Gen("R"))
    assert F.equal(F.evaluate(t2, interp),
                   F.tensor_black(interp.assignment["R"], interp.assignment["R"]))


def test_meet_join_top_bot_semantics():
    sig = T.Signature({"R": (1, 1), "S": (1, 1)})
    rng = random.Random(17)
    for _ in range(50):
        r = helpers.random_relation(rng, 2, 1, 1)
        s = helpers.random_relation(rng, 2, 1, 1)
        interp = F.Interpretation(sig, 2, {"R": r, "S": s})
        assert F.equal(F.evaluate(T.Meet(T.Gen("R"), T.Gen("S")), interp),
                       F.intersection(r, s))
        assert F.equal(F.evaluate(T.Join(T.Gen("R"), T.Gen("S")), interp),
                       F.union(r, s))
    interp = F.Interpretation(sig, 2, {"R": F.identity_white(2, 1),
                                       "S": F.identity_white(2, 1)})
    assert F.equal(F.evaluate(T.Top(1, 2), interp), F.FinRelation.full(2, 1, 2))
    assert F.equal(F.evaluate(T.Bot(2, 1), interp), F.FinRelation.empty(2, 2, 1))


def test_table1_dagger_laws_random():
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 2)})
    rng = random.Random(99)
    for _ in range(100):
        n, m, p = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a = helpers.random_term(rng, sig, n, m, 2)
        b = helpers.random_term(rng, sig, m, p, 2)
        c = helpers.random_term(rng, sig, n, m, 2)
        interp = F.Interpretation(sig, 2, {
            name: helpers.random_relation(rng, 2, dn, dm)
            for name, (dn, dm) in sig.generators.items()})

        def ev(t):
            return F.evaluate(t, interp)

        for seq, tens in ((T.SeqW, T.TensW), (T.SeqB, T.TensB)):
            assert F.equal(ev(T.Dag(seq(a, b))), ev(seq(T.Dag(b), T.Dag(a))))
            assert F.equal(ev(T.Dag(tens(a, c))), ev(tens(T.Dag(a), T.Dag(c))))
        assert F.equal(ev(T.Dag(T.Meet(a, c))), ev(T.Meet(T.Dag(a), T.Dag(c))))
        # monotone: a ≤ a∨c implies a† ≤ (a∨c)†
        assert F.included(ev(T.Dag(a)), ev(T.Dag(T.Join(a, c))))
    interp = F.Interpretation(sig, 2, {"R": F.identity_white(2, 1),
                                       "S": F.FinRelation.empty(2, 2, 1),
                                       "P": F.FinRelation.empty(2, 0, 2)})
    assert F.equal(F.evaluate(T.Dag(T.Top(1, 2)), interp), F.FinRelation.full(2, 2, 1))
    assert F.equal(F.evaluate(T.Dag(T.IdW(2)), interp), F.identity_white(2, 2))
    assert F.equal(F.evaluate(T.Dag(T.Const("copyw")), interp), F.cocopy_white(2, 1))
    assert F.equal(F.evaluate(T.Dag(T.Const("dscw")), interp), F.codiscard_white(2, 1))
    assert F.equal(F.evaluate(T.Dag(T.SymW(1, 1)), interp), F.symmetry_white(2, 1, 1))


def test_extensional_equality_of_maps():
    # for maps t1, t2 : X -> Y: t1 ; t2† = top implies t1 = t2
    k = 2
    funcs = [F.FinRelation.from_pairs(k, 1, 1, [((x,), (f[x],)) for x in range(k)])
             for f in itertools.product(range(k), repeat=k)]
    for t1 in funcs:
        for t2 in funcs:
            if F.equal(F.compose_white(t1, F.converse(t2)), F.FinRelation.full(k, 1, 1)):
                assert F.equal(t1, t2)


def test_interpretation_parse_print_roundtrip():
    sig = T.Signature({"R": (1, 2)})
    interp = F.Interpretation(sig, 2, {
        "R": F.FinRelation.from_pairs(2, 1, 2, [((0,), (1, 1)), ((1,), (0, 1))])})
    text = F.print_interpretation(interp)
    back = F.parse_interpretation(text, sig)
    assert back.carrier == 2 and F.equal(back.assignment["R"], interp.assignment["R"])


def test_direct_evaluation_matches_desugared():
    # P : 0 -> 0 and U : 1 -> 0 are generators of arity 0
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "U": (1, 0), "P": (0, 0)})
    rng = random.Random(31)
    seen = set()
    for k in (0, 1, 2, 3):
        for _ in range(240):
            interp = F.Interpretation(sig, k, {
                name: helpers.random_relation(rng, k, dn, dm)
                for name, (dn, dm) in sig.generators.items()})
            t = helpers.random_term(rng, sig, rng.randint(0, 2), rng.randint(0, 2), 3)
            for pos in T.positions(t):
                node = T.subterm_at(t, pos)
                seen.add((type(node), getattr(node, "name", None)))
            assert F.equal(F.evaluate(t, interp),
                           helpers.desugared_evaluate(t, interp)), T.print_term(t)
    kinds = {cls for cls, _ in seen}
    assert kinds >= {T.SeqW, T.SeqB, T.TensW, T.TensB, T.Meet, T.Join,
                     T.Dag, T.Neg, T.Top, T.Bot, T.IdW, T.IdB, T.Gen, T.GenOp}
    assert {(T.Gen, "P"), (T.GenOp, "P"), (T.Gen, "U"), (T.GenOp, "U")} <= seen


def test_dag_evaluates_without_desugared_intermediates():
    # the desugared dagger of Q : 2 -> 2 passes through 6^12-bit relations
    sig = T.Signature({"Q": (2, 2)})
    q = helpers.random_relation(random.Random(8), 6, 2, 2)
    interp = F.Interpretation(sig, 6, {"Q": q})
    out = F.evaluate(T.Dag(T.Gen("Q")), interp)
    assert (out.dom_arity, out.cod_arity) == (2, 2) and out.rows * out.cols == 1296
    assert F.equal(out, helpers.naive_converse(q))


def test_evaluate_cache_is_structural():
    sig = T.Signature({"R": (1, 1)})
    interp = F.Interpretation(sig, 2, {"R": F.identity_white(2, 1)})
    cache = {}
    a = F.evaluate(T.Dag(T.Gen("R")), interp, _cache=cache)
    b = F.evaluate(T.Dag(T.Gen("R")), interp, _cache=cache)  # a distinct object
    assert a is b and len(cache) == 2


FUZZ_SIG = T.Signature({"R": (1, 1), "S": (2, 1)})


@settings(max_examples=300, deadline=None)
@given(helpers.token_text(helpers.INTERP_PIECES, helpers.interpretation_texts(FUZZ_SIG)))
def test_parse_interpretation_fuzz(text):
    """Any text parses to an interpretation, which prints back to itself,
    or raises a DiagrelError."""
    sig = FUZZ_SIG
    try:
        interp = F.parse_interpretation(text, sig)
    except T.DiagrelError:
        return
    assert F.parse_interpretation(F.print_interpretation(interp), sig) == interp
