import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from diagrel import terms as T
from diagrel import finrel as F
from diagrel import theory as TH

import helpers


@given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=4))
def test_encode_decode_roundtrip(k, xs):
    xs = tuple(x % k for x in xs)
    assert F.decode(k, len(xs), F.encode(k, xs)) == xs


def test_space_guard():
    with pytest.raises(F.SizeLimit):
        F.FinRelation.empty(2, 20, 20)


# each constant head, white and black, at arities past 64 bits at carrier 2
_WHITE_HEADS = {"idw": (6,), "symw": (3, 3), "copyw": (4,), "cocw": (4,), "dscw": (7,),
                "codw": (7,)}
CONSTANT_HEADS = {**_WHITE_HEADS, **{T.mirror_head(h): a for h, a in _WHITE_HEADS.items()}}


@pytest.mark.parametrize("head, arities", sorted(CONSTANT_HEADS.items()))
def test_constants_check_the_size_guard_before_enumerating(monkeypatch, head, arities):
    """A constant over 64 bits is refused before any of its tuples is encoded."""
    monkeypatch.setattr(F, "MAX_BITS", 64)
    encoded = helpers.count_calls(monkeypatch, F, "encode")
    with pytest.raises(F.SizeLimit):
        F.constant.__wrapped__(head, 2, *arities)  # past the cache
    assert encoded == [0]


def test_from_pairs_checks_the_size_guard_before_reading_pairs(monkeypatch):
    def untouched():
        raise AssertionError("a pair was read")
        yield

    monkeypatch.setattr(F, "MAX_BITS", 64)
    with pytest.raises(F.SizeLimit):
        helpers.from_pairs(2, 1, 7, untouched())


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


def test_space_bits_bounds_the_total_arity():
    """At carriers 0 and 1 the bit count is at most 1 at any arity, so the
    total arity n + m is bounded too; at carrier 2 the bits refuse first."""
    bound = F.MAX_ARITY
    assert 64 <= bound <= 2 ** 20
    for k in (0, 1):
        assert F.space_bits(k, bound, 0) == F.space_bits(k, 30, bound - 30) == k
        for n, m in ((bound + 1, 0), (bound // 2, bound // 2 + 1), (10 ** 20, 1)):
            with pytest.raises(F.SizeLimit, match=f"^relation arity {n + m} exceeds {bound}$"):
                F.space_bits(k, n, m)
    with pytest.raises(F.SizeLimit, match="^relation space 2\\^65 exceeds"):
        F.space_bits(2, 65, 0)


@pytest.mark.parametrize("call", [
    lambda: F.space_bits(2, -1, -1),
    lambda: F.Program(2, {}).add(T.IdW(-1)),
    lambda: F.constant("copyw", 2, -1),
    lambda: F.Program(2, {}).add(T.SymW(-1, 2)),
], ids=["space_bits", "program", "constant", "symmetry"])
def test_negative_arities_are_refused(call):
    """A negative arity is refused by name, not read as a fractional bit count
    (k ** -1) that a later shift or range chokes on, also in a symmetry whose
    two arities sum to a natural dom and cod."""
    with pytest.raises(T.DiagrelError, match="^negative arity -1$"):
        call()


def test_from_pairs_and_has():
    r = helpers.from_pairs(3, 1, 2, [((0,), (1, 2)), ((2,), (0, 0))])
    assert r.has((0,), (1, 2)) and r.has((2,), (0, 0))
    assert not r.has((0,), (0, 0))
    assert sorted(helpers.pairs(r)) == [((0,), (1, 2)), ((2,), (0, 0))]


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
        idw = F.constant("idw", k, 1)
        assert sorted(helpers.pairs(idw)) == [((x,), (x,)) for x in range(k)]
        idb = F.constant("idb", k, 1)
        assert F.equal(idb, F.complement(idw))
        sym = F.constant("symw", k, 1, 1)
        assert all(sym.has((x, y), (y, x)) for x in range(k) for y in range(k))
        assert sym.bits.bit_count() == k * k


def test_has_refuses_tuples_of_the_wrong_length():
    rel = F.FinRelation(2, 1, 1, 0b1001)  # the identity on {0, 1}
    assert rel.has((1,), (1,)) and not rel.has((0,), (1,))
    for xs, ys in [((), (1, 1)), ((1, 1), ()), ((0,), ()), ((), (0,))]:
        with pytest.raises(F.DiagrelError, match=r"^pair arity mismatch for relation 1->1$"):
            rel.has(xs, ys)


def test_size_guard_holds_for_cached_constants_and_restores_max_bits():
    interp, saved = F.Interpretation(T.EMPTY_SIGNATURE, 4, {}), F.MAX_BITS
    F.constant("idw", 4, 2)  # cached under the default guard
    with F.size_guard(16):
        assert F.MAX_BITS == 16
        with pytest.raises(F.SizeLimit, match=r"^relation space 4\^4 exceeds 16 bits$"):
            F.evaluate(T.parse_term("(idw 2)"), interp)
    assert F.MAX_BITS == saved
    with pytest.raises(ZeroDivisionError), F.size_guard(16):
        1 / 0
    assert F.MAX_BITS == saved
    with F.size_guard(None):
        assert F.MAX_BITS == saved


def test_a_changed_guard_empties_every_finrel_cache():
    """Every cache in the module is emptied, so a cache added later cannot be
    left out; entering the same guard keeps them."""
    caches = {name: v for name, v in vars(F).items() if hasattr(v, "cache_clear")}
    assert caches["constant"] is F.constant
    F.constant.cache_clear()
    for head, arities in CONSTANT_HEADS.items():
        F.constant(head, 2, *[1] * len(arities))
    with F.size_guard(F.MAX_BITS):
        assert F.constant.cache_info().currsize == len(CONSTANT_HEADS) == 12
    with F.size_guard(F.MAX_BITS + 1):
        assert [n for n, cache in caches.items() if cache.cache_info().currsize] == []


def test_a_cached_kernel_still_meets_a_narrower_guard():
    """A kernel cached under the default guard passed its space check there; a
    narrower guard still refuses its node, with the message of its space."""
    sig = T.Signature.parse("sig R : 1 -> 1\n")
    interp = F.Interpretation(sig, 2, {"R": F.FinRelation(2, 1, 1, 0b1011)})
    # the 2 -> 2 tensor is the only node past 8 bits: the result is 2 -> 0
    t = T.parse_term("(seqw (tensw (gen R) (gen R)) (top 2 0))")
    thy = TH.parse_theory("sig R : 1 -> 1\naxiom t : (tensw (gen R) (gen R)) <= "
                          "(tensw (gen R) (gen R))\n")
    assert F.evaluate(t, interp) == helpers.naive_evaluate(t, interp)
    assert len(TH.enumerate_models(thy, 2)) == 16
    assert F._kernel.cache_info().currsize > 0
    with F.size_guard(8):
        for call in (lambda: F.evaluate(t, interp), lambda: TH.enumerate_models(thy, 2)):
            with pytest.raises(F.SizeLimit, match=r"^relation space 2\^4 exceeds 8 bits$"):
                call()


def test_evaluating_a_constant_fills_a_cache_the_bench_reads():
    """perfbench's finrel.const_cache.hit_ratio sums the `cache_info` of the
    module's values; with no such value filled it would read 0."""
    def stats():
        infos = [info() for value in vars(F).values()
                 if (info := getattr(value, "cache_info", None)) is not None]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    interp = F.Interpretation(T.EMPTY_SIGNATURE, 2, {})
    with F.size_guard(F.MAX_BITS + 1):  # a changed guard empties the caches
        assert stats() == (0, 0)
        F.evaluate(T.parse_term("(seqw (seqw copyw cocw) (seqw copyw (idw 2)))"), interp)
        hits, misses = stats()
        assert hits > 0 and misses > 0


_IDENTITY, _COPY, _DISCARD = (lambda t: t), (lambda t: t + t), (lambda t: ())


def test_constants_are_graphs_of_their_tuple_maps():
    """At k = 0..4, up to 2^16 bits: each white constant equals the naive
    enumeration of its tuple map, or the converse of one, and each black
    constant is the complement of its white mirror."""
    def check(white, args, expected):
        if expected is not None:
            assert F.constant(white, *args) == expected, (white, args)
            black = T.mirror_head(white)
            assert F.constant(black, *args) == F.complement(expected), (black, args)

    def graph(k, n, m, f, converse=False):
        if k ** (n + m) > 2 ** 16:
            return None
        g = helpers.naive_graph(k, n, m, f)
        return helpers.naive_converse(g) if converse else g

    for k in range(5):
        for n in range(4):
            check("idw", (k, n), graph(k, n, n, _IDENTITY))
            check("dscw", (k, n), graph(k, n, 0, _DISCARD))
            check("codw", (k, n), graph(k, n, 0, _DISCARD, converse=True))
            check("copyw", (k, n), graph(k, n, 2 * n, _COPY))
            check("cocw", (k, n), graph(k, n, 2 * n, _COPY, converse=True))
        for m, n in itertools.product(range(3), repeat=2):
            check("symw", (k, m, n), graph(k, m + n, n + m, lambda t: t[m:] + t[:m]))


def test_constants_encode_no_tuple(monkeypatch):
    """The constants are built from index maps: no tuple is encoded, and an
    identity of arity 500,000 at carrier 1 walks one row."""
    encoded = helpers.count_calls(monkeypatch, F, "encode")
    sym = F.constant.__wrapped__("symw", 2, 2, 1)
    wide = F.constant.__wrapped__("idw", 1, 500_000)
    assert encoded == [0]
    assert sym == helpers.naive_graph(2, 3, 3, lambda t: t[2:] + t[:2])
    assert wide == F.FinRelation(1, 500_000, 500_000, 1)


def test_constants_pointwise():
    k = 3
    cw = F.constant("copyw", k, 1)
    assert sorted(helpers.pairs(cw)) == [((x,), (x, x)) for x in range(k)]
    dw = F.constant("dscw", k, 1)
    assert sorted(helpers.pairs(dw)) == [((x,), ()) for x in range(k)]
    assert F.equal(F.constant("cocw", k, 1), F.converse(cw))
    assert F.equal(F.constant("codw", k, 1), F.converse(dw))
    # black (co)monoids are the complements of the white ones
    assert F.equal(F.constant("copyb", k, 1), F.complement(cw))
    assert F.equal(F.constant("dscb", k, 1), F.FinRelation.empty(k, 1, 0))
    assert F.equal(F.constant("codb", k, 1), F.FinRelation.empty(k, 0, 1))


def test_black_macros_denote_complements_of_white():
    for k in range(4):
        interp = F.Interpretation(T.EMPTY_SIGNATURE, k, {})
        for white in ("copyw", "cocw", "dscw", "codw"):
            black = T.mirror_head(white)
            for n in range(4):
                got = F.evaluate(T.macro(black, n), interp)
                assert F.equal(got, F.complement(F.evaluate(T.macro(white, n), interp))), (n, k)
                assert F.equal(got, F.constant(black, k, n)), (n, k)


def test_constants_arity_n_are_tensor_shuffles():
    # copy at arity n relates a tuple to its doubling
    k, n = 2, 2
    cw = F.constant("copyw", k, n)
    for xs in itertools.product(range(k), repeat=n):
        assert cw.has(xs, xs + xs)
    assert cw.bits.bit_count() == k ** n


def test_inclusion_and_witness():
    a = helpers.from_pairs(2, 1, 1, [((0,), (0,))])
    b = helpers.from_pairs(2, 1, 1, [((0,), (0,)), ((1,), (1,))])
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
        adj = helpers.linear_adjoint(a)
        assert F.included(F.constant("idw", k, 1), F.compose_black(a, adj))
        assert F.included(F.compose_white(adj, a), F.constant("idb", k, a.cod_arity))


def test_is_map_iff_function_exhaustive_k2():
    """Every relation at k = 0..2 with n, m <= 1, and every 1 -> 1 relation at k = 3."""
    spaces = [(k, n, m) for k in range(3) for n in range(2) for m in range(2)]
    for k, n, m in spaces + [(3, 1, 1)]:
        for bits in range(1 << (k ** n * k ** m)):
            r = F.FinRelation(k, n, m, bits)
            assert helpers.is_map(r) == helpers.is_function(r)
    assert sum(helpers.is_map(F.FinRelation(2, 1, 1, b)) for b in range(16)) == 4
    assert sum(helpers.is_map(F.FinRelation(3, 1, 1, b)) for b in range(512)) == 27


def test_interpretation_validation():
    sig = T.Signature({"R": (1, 1)})
    good = F.Interpretation(sig, 2, {"R": F.constant("idw", 2, 1)})
    assert good.carrier == 2
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {})
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {"R": F.constant("idw", 3, 1)})
    with pytest.raises(T.DiagrelError):
        F.Interpretation(sig, 2, {"R": F.FinRelation.empty(2, 2, 1)})


def test_evaluate_generators_and_op():
    sig = T.Signature({"R": (1, 1)})
    r = helpers.from_pairs(2, 1, 1, [((0,), (1,))])
    interp = F.Interpretation(sig, 2, {"R": r})
    assert F.equal(F.evaluate(T.Gen("R"), interp), r)
    # the opposite generator denotes the linear adjoint: complement of converse
    assert F.equal(F.evaluate(T.GenOp("R"), interp), helpers.linear_adjoint(r))


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
    interp = F.Interpretation(sig, 2, {"R": F.constant("idw", 2, 1),
                                       "S": F.constant("idw", 2, 1)})
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
    interp = F.Interpretation(sig, 2, {"R": F.constant("idw", 2, 1),
                                       "S": F.FinRelation.empty(2, 2, 1),
                                       "P": F.FinRelation.empty(2, 0, 2)})
    assert F.equal(F.evaluate(T.Dag(T.Top(1, 2)), interp), F.FinRelation.full(2, 2, 1))
    assert F.equal(F.evaluate(T.Dag(T.IdW(2)), interp), F.constant("idw", 2, 2))
    assert F.equal(F.evaluate(T.Dag(T.Const("copyw")), interp), F.constant("cocw", 2, 1))
    assert F.equal(F.evaluate(T.Dag(T.Const("dscw")), interp), F.constant("codw", 2, 1))
    assert F.equal(F.evaluate(T.Dag(T.SymW(1, 1)), interp), F.constant("symw", 2, 1, 1))


def test_extensional_equality_of_maps():
    # for maps t1, t2 : X -> Y: t1 ; t2† = top implies t1 = t2
    k = 2
    funcs = [helpers.from_pairs(k, 1, 1, [((x,), (f[x],)) for x in range(k)])
             for f in itertools.product(range(k), repeat=k)]
    for t1 in funcs:
        for t2 in funcs:
            if F.equal(F.compose_white(t1, F.converse(t2)), F.FinRelation.full(k, 1, 1)):
                assert F.equal(t1, t2)


def test_interpretation_parse_print_roundtrip():
    sig = T.Signature({"R": (1, 2)})
    interp = F.Interpretation(sig, 2, {
        "R": helpers.from_pairs(2, 1, 2, [((0,), (1, 1)), ((1,), (0, 1))])})
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
                node = helpers.naive_subterm_at(t, pos)
                seen.add((type(node), getattr(node, "name", None)))
            assert F.equal(F.evaluate(t, interp),
                           helpers.desugared_evaluate(t, interp)), T.print_term(t)
    kinds = {cls for cls, _ in seen}
    assert kinds >= {T.SeqW, T.SeqB, T.TensW, T.TensB, T.Meet, T.Join,
                     T.Dag, T.Neg, T.Top, T.Bot, T.IdW, T.IdB, T.Gen, T.GenOp}
    assert {(T.Gen, "P"), (T.GenOp, "P"), (T.Gen, "U"), (T.GenOp, "U")} <= seen


def test_compiled_evaluation_matches_the_recursive_oracle():
    """`evaluate` compiles a term into a `Program`; on random terms at k = 0..3
    it agrees with the recursive evaluator of helpers.  The terms take every
    form in both colours, the sugar, opposed boxes, the eight constants and
    symmetries, and generators, identities, top and bottom at arity 0."""
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "U": (1, 0), "P": (0, 0)})
    rng = random.Random(41)
    seen = set()
    for k in range(4):
        for _ in range(150):
            interp = F.Interpretation(sig, k, {
                name: helpers.random_relation(rng, k, dn, dm)
                for name, (dn, dm) in sig.generators.items()})
            n, m = rng.randint(0, 2), rng.randint(0, 2)
            t = helpers.random_term(rng, sig, n, m, 3)
            if rng.random() < 0.5:  # random_term draws no constant or symmetry
                t = T.SeqB(helpers.random_primitive(rng, sig, rng.randint(0, 2), n, 2), t)
            for pos in T.positions(t):
                node = helpers.naive_subterm_at(t, pos)
                seen.add((type(node), T.typecheck(node, sig) == (0, 0)))
            assert F.evaluate(t, interp) == helpers.naive_evaluate(t, interp), T.print_term(t)
    assert {cls for cls, _ in seen} == {cls for cls, _ in T.FORMS.values()} | {T.Const}
    assert {(cls, True) for cls in (T.Gen, T.GenOp, T.IdW, T.IdB, T.Top, T.Bot)} <= seen


def test_program_shares_equal_subterms_and_folds_constants():
    """An equal subterm takes the register compiled before, and a subterm
    without generators is computed at compile time: three instructions run."""
    sig = T.Signature({"R": (1, 1)})
    t = T.parse_term("(meet (seqw (gen R) (gen R)) (join (seqw (gen R) (gen R))"
                     " (seqb (idw 1) (neg (top 1 1)))))", sig)
    prog = F.Program(2, sig.generators)
    reg = prog.add(t)
    assert [len(prog.code), prog.add(T.SeqW(T.Gen("R"), T.Gen("R"))) in prog.live] == [3, True]
    r = F.FinRelation(2, 1, 1, 0b0110)
    prog.run([r.bits])
    assert prog.relation(reg) == helpers.naive_evaluate(t, F.Interpretation(sig, 2, {"R": r}))


@pytest.mark.parametrize("cls", [T.Meet, T.Join])
def test_program_refuses_a_meet_or_join_of_different_types(cls):
    """A program types each node it compiles, so it refuses every node
    `typecheck` refuses, with `typecheck`'s wording."""
    with pytest.raises(T.DiagrelError, match=r"^branch types \(1, 1\) ≠ \(2, 2\)$"):
        F.Program(2, {}).add(cls(T.IdW(1), T.IdW(2)))


@pytest.mark.parametrize("term", [T.Gen("R"), T.GenOp("R"), T.Dag(T.GenOp("R")), 42,
                                  (T.IdW(1),), ()], ids=repr)
def test_program_refuses_what_it_cannot_compile(term):
    """An unknown generator or a non-term, a tuple included, is refused in
    `typecheck`'s words."""
    with pytest.raises(T.DiagrelError) as want:
        T.typecheck(term, T.EMPTY_SIGNATURE)
    assert str(want.value) in ("unknown generator 'R'", f"not a term: {term!r}")
    with pytest.raises(T.DiagrelError, match=f"^{re.escape(str(want.value))}$"):
        F.Program(2, {}).add(term)


def test_program_types_every_node_as_typecheck_does():
    """Both typers type each node of random terms (both colours, the sugar,
    constants, symmetries and generators) alike, and both refuse a composition,
    meet or join with one operand of another type, in the same words but for
    `typecheck`'s position."""
    rng = random.Random(23)
    refused = {T.SeqW: 0, T.SeqB: 0, T.Meet: 0, T.Join: 0}
    for k in range(3):
        for _ in range(150):
            sig = helpers.random_signature(rng)
            n, m = rng.randint(0, 2), rng.randint(0, 2)
            t = helpers.random_term(rng, sig, n, m, rng.randint(0, 3))
            if rng.random() < 0.5:  # random_term draws no constant or symmetry
                t = T.SeqB(helpers.random_primitive(rng, sig, rng.randint(0, 2), n, 2), t)
            prog = F.Program(k, sig.generators)
            for pos in T.positions(t):
                node = helpers.naive_subterm_at(t, pos)
                assert prog.shapes[prog.add(node)] == T.typecheck(node, sig), T.print_term(node)
            inner = [pos for pos in T.positions(t)
                     if type(helpers.naive_subterm_at(t, pos)) in refused]
            if not inner:
                continue
            pos = rng.choice(inner)
            node = helpers.naive_subterm_at(t, pos)
            side = rng.randint(0, 1)
            dom, cod = T.typecheck(T.children(node)[side], sig)
            if type(node) in (T.SeqW, T.SeqB):  # the boundary the other operand meets
                other = (dom, cod + 1) if side == 0 else (dom + 1, cod)
            else:
                other = rng.choice([ty for ty in itertools.product(range(3), repeat=2)
                                    if ty != (dom, cod)])
            kids = list(T.children(node))
            kids[side] = helpers.random_term(rng, sig, *other, 2)
            bad = helpers.naive_splice(t, pos, type(node)(*kids))
            with pytest.raises(T.TypeMismatch) as want:
                T.typecheck(bad, sig)
            assert want.value.position == pos
            with pytest.raises(T.DiagrelError) as got:
                F.Program(k, sig.generators).add(bad)
            assert str(got.value) == re.sub(r"^at [^:]*: ", "", str(want.value))
            refused[type(node)] += 1
    assert min(refused.values()) > 20, refused


def test_direct_constants_denote_their_combs():
    """`constant(kind, k, n)` is the relation of the n-ary comb `terms.macro(kind, n)`
    for each (co)copy and (co)discard kind of both colours, carrier 0 included.
    A guard one bit too small refuses the constant, naming its own space, and
    the comb too; the comb names the same space unless it compiles a wider
    shuffle first, as cocopy's of either colour does at n = 3."""
    for kind in sorted(T.CONSTANT_TYPES):
        for k in range(4):
            interp = F.Interpretation(T.EMPTY_SIGNATURE, k, {})
            for n in range(4):
                comb = T.macro(kind, n)
                want = helpers.naive_evaluate(comb, interp)
                prog = F.Program(k, {})
                assert F.constant(kind, k, n) == prog.relation(prog.constant(kind, n)) == want
                if k < 2:  # every space is at most one bit: no guard lies between two
                    continue
                dom, cod = T.typecheck(comb, T.EMPTY_SIGNATURE)
                with F.size_guard(F.space_bits(k, dom, cod) - 1):
                    got = _outcome(F.Program(k, {}).constant, kind, n)
                    by_comb = _outcome(F.Program(k, {}).add, comb)
                assert got == f"relation space {k}^{dom + cod} exceeds {k ** (dom + cod) - 1} bits"
                wider = kind[:3] == "coc" and n == 3
                assert (by_comb != got) == wider and isinstance(by_comb, str), (kind, k, n)


def test_program_draws_the_oracle_bits_in_name_order():
    """`draw` takes the random bits `helpers.random_interpretation` takes, in
    name order, for a signature declared out of it, at every carrier from 0
    (empty spaces) up; `interpretation` reads them back as relations."""
    sig = T.Signature.parse("sig S : 2 -> 1\nsig R : 1 -> 1\nsig P : 0 -> 0\n")
    for k in range(4):
        prog, rng, oracle = F.Program(k, sig.generators), random.Random(k), random.Random(k)
        for _ in range(4):
            prog.run(prog.draw(rng))
            assert prog.interpretation(sig) == helpers.random_interpretation(sig, k, oracle)
        assert rng.random() == oracle.random()


def test_dag_evaluates_without_desugared_intermediates():
    # the desugared dagger of Q : 2 -> 2 passes through 6^12-bit relations
    sig = T.Signature({"Q": (2, 2)})
    q = helpers.random_relation(random.Random(8), 6, 2, 2)
    interp = F.Interpretation(sig, 6, {"Q": q})
    out = F.evaluate(T.Dag(T.Gen("Q")), interp)
    assert (out.dom_arity, out.cod_arity) == (2, 2) and out.rows * out.cols == 1296
    assert F.equal(out, helpers.naive_converse(q))


def test_evaluate_accepts_every_dag_chain_typecheck_accepts():
    sig = T.Signature({"R": (1, 1)})
    interp = F.Interpretation(sig, 2, {"R": F.constant("idw", 2, 1)})
    t = T.Gen("R")
    for _ in range(900):
        t = T.Dag(t)
    assert T.typecheck(t, sig) == (1, 1)
    assert F.evaluate(t, interp) == F.constant("idw", 2, 1)


def test_colour_switch_complements_the_value():
    """evaluate(mirror(t), I) is the complement of evaluate(t, ~I), where ~I
    complements every generator: the black half is the De Morgan dual of the
    white one, constants included."""
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "U": (1, 0), "P": (0, 0)})
    rng = random.Random(11)
    for k in (0, 1, 2, 3):
        for i in range(375):
            interp = F.Interpretation(sig, k, {
                name: helpers.random_relation(rng, k, dn, dm)
                for name, (dn, dm) in sig.generators.items()})
            negated = F.Interpretation(sig, k, {
                name: F.complement(rel) for name, rel in interp.assignment.items()})
            t = helpers.random_term(rng, sig, rng.randint(0, 2), rng.randint(0, 2), 3)
            if i < len(T.CONSTANT_TYPES):
                # random_term draws no constant: wrap each one in a random term
                kind = sorted(T.CONSTANT_TYPES)[i]
                n, m = T.CONSTANT_TYPES[kind]
                t = T.SeqW(T.Const(kind), helpers.random_term(rng, sig, m, n, 2))
            assert F.evaluate(helpers.mirror(t), interp) == \
                F.complement(F.evaluate(t, negated)), T.print_term(t)


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


# tokens `int` or `str.isdecimal` read as numbers that are not natural numbers
# by the one numeral rule, and long ones
ODD_NUMERALS = ("²", "+1", "-0", "--3", "1_0", "٣", "00", "9" * 120, "7" * 4301)


@settings(max_examples=400, deadline=None)
@given(helpers.token_text(helpers.INTERP_PIECES + ODD_NUMERALS,
                          helpers.interpretation_texts(FUZZ_SIG)))
def test_parse_interpretation_matches_naive_reader(text):
    """The same interpretation, or the same error class, message and line."""
    assert helpers.parse_outcome(F.parse_interpretation, text, FUZZ_SIG) == \
        helpers.parse_outcome(helpers.naive_parse_interpretation, text, FUZZ_SIG)


@pytest.mark.parametrize("text, message", [
    # a parse error later in a block wins over an out-of-carrier value before it
    ("carrier 2\nrel R 1 1 { (0 ; 5) (1 ; x) }", "2:1: expected tuple entry, got 'x'"),
    # `str.isdigit` accepts a superscript two, `int` does not
    ("carrier ²", "1:1: expected carrier size, got '²'"),
    ("carrier 2\nrel R 1 1 {\n (² ; 0) }", "3:1: expected tuple entry, got '²'"),
    ("carrier 2\nrel R 1 1 { (0 ; 1 -1) }", "2:1: tuple entry must be non-negative"),
    ("carrier 2\nrel R 1 1 { (0 ; " + "7" * 4301 + ") }",
     "2:1: expected tuple entry, got '" + "7" * 4301 + "'"),
    ("carrier 2\nrel R 1 1 { (0 ; 1 }", "2:1: expected tuple entry, got '}'"),
    ("carrier 2\nrel R 1 1 { (0 ; 1) ; }", "2:1: expected '(', got ';'"),
    ("carrier 2\nrel R 1 1 { (0 ) ; 1) }", "2:1: expected tuple entry, got ')'"),
    ("carrier 2\nrel R 1 1 { (0 1 ; 1) }", "2:1: tuple arity mismatch in relation R"),
    ("carrier 2\nrel R 2 1 {", "2:1: relation R declared 2->1, signature says 1->1"),
])
def test_parse_interpretation_error_messages(text, message):
    for parse in (F.parse_interpretation, helpers.naive_parse_interpretation):
        assert helpers.parse_outcome(parse, text, FUZZ_SIG)[:2] == (T.ParseError, message)


def test_out_of_carrier_value_is_reported_at_the_end_of_its_block():
    for parse in (F.parse_interpretation, helpers.naive_parse_interpretation):
        assert helpers.parse_outcome(parse, "carrier 2\nrel R 1 1 { (0 ; 5) } rel", FUZZ_SIG) \
            == (T.DiagrelError, "value 5 outside carrier 0..1", None)


def test_every_unexpected_end_is_reported_as_before():
    """Every prefix of a valid file, cut between two tokens."""
    toks = "carrier 2 rel R 1 1 { ( 0 ; 1 ) } rel S 2 1 { ( 1 0 ; 1 ) }".split()
    messages = set()
    for cut in range(len(toks)):
        text = " ".join(toks[:cut])
        outcome = helpers.parse_outcome(F.parse_interpretation, text, FUZZ_SIG)
        assert outcome == helpers.parse_outcome(helpers.naive_parse_interpretation,
                                                text, FUZZ_SIG), text
        messages.add(outcome[1])
    assert {m for m in messages if "unexpected end" in m} == {
        "unexpected end of interpretation file",
        "unexpected end of interpretation file, expected 'carrier'",
        "unexpected end of interpretation file, expected '{'",
        "unexpected end of interpretation file, expected '('",
    }


# every line boundary `str.splitlines` knows; the API reader sees raw text (only
# `cli._read` opens files in text mode, which turns "\r" into "\n")
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
def test_a_comment_ends_at_every_line_boundary(brk):
    """A `#` comment ends at the boundary, so the block after it is read, and
    an error after it is reported on the boundary's next line."""
    text = f"carrier 2 # c{brk}rel R 1 1 {{ (0 ; 1) }}{brk}rel S 2 1 {{\t(1 0 ; 1) }}"
    interp = F.parse_interpretation(text, FUZZ_SIG)
    assert interp == helpers.naive_parse_interpretation(text, FUZZ_SIG)
    assert interp.assignment["R"] == helpers.from_pairs(2, 1, 1, [((0,), (1,))])
    for bad in (text.replace("(1 0", "(1 x"), text + f"{brk}# c{brk}rel"):
        outcome = helpers.parse_outcome(F.parse_interpretation, bad, FUZZ_SIG)
        assert outcome == helpers.parse_outcome(helpers.naive_parse_interpretation, bad,
                                                FUZZ_SIG)
        assert outcome[2] in (3, None), outcome


def test_a_valid_block_reads_each_distinct_label_once(monkeypatch):
    """A valid block is read by slices, not token by token: one numeral read
    for the carrier, two for each block's arities, and one for each entry of
    each distinct row or column label: R's 9 pairs have the 3 labels 0, 1, 2,
    and S's 27 pairs the 9 rows 0 0 .. 2 2 and the same 3 columns."""
    interp = F.Interpretation(FUZZ_SIG, 3, {"R": F.FinRelation.full(3, 1, 1),
                                            "S": F.FinRelation.full(3, 2, 1)})
    read = helpers.count_calls(monkeypatch, F, "natural")
    assert F.parse_interpretation(F.print_interpretation(interp), FUZZ_SIG) == interp
    assert read == [1 + (2 + 3) + (2 + 9 * 2 + 3)]


@st.composite
def rejoined_interpretation(draw):
    """A printed interpretation whose tokens are joined again by blanks, tabs,
    line boundaries and comments, so that pairs share a line or one pair spans
    several, with at most one token replaced by a wrong one."""
    words = draw(helpers.interpretation_texts(FUZZ_SIG)).split()
    if draw(st.booleans()):
        words[draw(st.integers(0, len(words) - 1))] = draw(
            st.sampled_from(["x", "5", "-1", "(", ")", ";", "}", "rel"]))
    seps = st.sampled_from([" ", "\t", *LINE_BREAKS, *(f" # c{brk}" for brk in LINE_BREAKS)])
    return "".join(word + draw(seps) for word in words)


@settings(max_examples=300, deadline=None)
@given(rejoined_interpretation())
def test_parse_interpretation_matches_naive_reader_across_line_boundaries(text):
    """The same interpretation, or the same error class, message and line."""
    assert helpers.parse_outcome(F.parse_interpretation, text, FUZZ_SIG) == \
        helpers.parse_outcome(helpers.naive_parse_interpretation, text, FUZZ_SIG)


SHAPES = [(k, n, m) for k in range(4) for n in range(3) for m in range(3)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(0, 2 ** 81 - 1))
def test_format_relation_matches_naive_writer(shape, bits):
    """Byte for byte at carriers 0..3 and arities 0..2, including the one-row
    and one-column spaces at carrier 0 and at arity 0."""
    k, n, m = shape
    rel = F.FinRelation(k, n, m, bits % (1 << F.space_bits(k, n, m)))
    assert F.format_relation("R", rel) == helpers.naive_format_relation("R", rel)


def test_format_relation_of_empty_and_full_relations():
    for k, n, m in SHAPES:
        for rel in (F.FinRelation.empty(k, n, m), F.FinRelation.full(k, n, m)):
            assert F.format_relation("R", rel) == helpers.naive_format_relation("R", rel)
    assert F.format_relation("R", F.FinRelation.full(0, 0, 0)) == "rel R 0 0 {\n  ( ; )\n}\n"
    assert F.format_relation("R", F.FinRelation.full(0, 0, 1)) == "rel R 0 1 {\n}\n"
    assert F.format_relation("R", F.FinRelation.full(2, 0, 1)) == \
        "rel R 0 1 {\n  ( ; 0)\n  ( ; 1)\n}\n"


def test_format_relation_builds_nothing_per_coordinate_at_carrier_zero():
    """At carrier 0 a space of positive arity has no tuple, so writing one
    costs nothing per coordinate, here 10^6 of them."""
    tracemalloc.start()
    try:
        text = F.format_relation("R", F.FinRelation.full(0, 10 ** 6, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "rel R 1000000 3 {\n}\n" and peak < 100_000, peak


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10 ** 6))
def test_print_interpretation_matches_naive_writer(k, seed):
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "U": (1, 0), "P": (0, 0), "V": (0, 2)})
    rng = random.Random(seed)
    interp = F.Interpretation(sig, k, {name: helpers.random_relation(rng, k, n, m)
                                       for name, (n, m) in sig.generators.items()})
    assert F.print_interpretation(interp) == f"carrier {k}\n" + "".join(
        helpers.naive_format_relation(name, interp.assignment[name])
        for name in sorted(sig.generators))


def test_black_kernels_match_naive_at_every_small_shape():
    """Carrier 0 included: there k^n = 0 rows and the full mask is (1 << 0) - 1."""
    rng = random.Random(3)
    shapes = list(itertools.product(range(3), repeat=2))
    for k in range(4):
        for (n, j), (j2, m) in itertools.product(shapes, repeat=2):
            a = helpers.random_relation(rng, k, n, j)
            b = helpers.random_relation(rng, k, j2, m)
            assert F.equal(F.tensor_black(a, b), helpers.naive_tensor_black(a, b)), (k, a, b)
            if j == j2:
                assert F.equal(F.compose_black(a, b), helpers.naive_compose_black(a, b))
            else:
                with pytest.raises(T.DiagrelError, match=f"^cod {j} ≠ dom {j2}$"):
                    F.compose_black(a, b)


def test_kernels_match_naive_on_row_counts_past_the_shift_block():
    """Row counts of 16 to 128 cross SHIFT_ROWS, on either operand and in the
    result, so the halving branch of the row split and join meets the naive
    kernels too."""
    assert 16 <= F.SHIFT_ROWS < 64
    rng = random.Random(8)
    for k, big in ((2, 4), (2, 5), (2, 6), (4, 3)):
        for small in (0, 1):
            for s, t in (((big, small), (small, 1)), ((1, big), (big, small)),
                         ((small, big), (big, 1))):
                a, b = (helpers.random_relation(rng, k, *shape) for shape in (s, t))
                for op in ("compose_white", "compose_black", "tensor_white", "tensor_black"):
                    assert getattr(F, op)(a, b) == getattr(helpers, "naive_" + op)(a, b), \
                        (op, k, s, t)
                assert F.converse(a) == helpers.naive_converse(a), (k, s)


@pytest.mark.parametrize("cols", [0, 1, 3, 17])
def test_row_masks_match_naive_and_join_rows_inverts_them(cols):
    """At every row count from 0 to 70, on both sides of SHIFT_ROWS."""
    assert F.SHIFT_ROWS < 70
    rng = random.Random(cols)
    for nrows in range(71):
        bits = rng.getrandbits(nrows * cols)
        rows = F._row_masks(bits, nrows, cols)
        assert rows == helpers.naive_row_masks(bits, nrows, cols), nrows
        assert F._join_rows(rows, cols) == bits, nrows
        rows = [rng.getrandbits(cols) for _ in range(nrows)]
        assert F._row_masks(F._join_rows(rows, cols), nrows, cols) == rows, nrows


def test_row_masks_and_join_rows_round_trip_at_4096_rows():
    rng = random.Random(4096)
    for cols in (1, 3, 17):
        bits = rng.getrandbits(4096 * cols)
        rows = F._row_masks(bits, 4096, cols)
        assert rows == helpers.naive_row_masks(bits, 4096, cols)
        assert F._join_rows(rows, cols) == bits


def _outcome(fn, *args):
    try:
        return fn(*args)
    except F.SizeLimit as e:
        return str(e)


def test_black_kernels_refuse_sizes_as_their_de_morgan_definition(monkeypatch):
    """With MAX_BITS lowered after the operands are built, SizeLimit is raised
    for the same inputs, with the same message, as by ~(~a op ~b)."""
    rng = random.Random(5)
    cases = []
    for k in range(4):
        for n, j, m in itertools.product(range(3), repeat=3):
            cases.append((helpers.random_relation(rng, k, n, j),
                          helpers.random_relation(rng, k, j, m)))
    c = F.complement
    for limit in (0, 1, 2, 4, 8, 9, 16, 27, 64, 81, 243):
        monkeypatch.setattr(F, "MAX_BITS", limit)
        for a, b in cases:
            assert _outcome(F.compose_black, a, b) == \
                _outcome(lambda: c(F.compose_white(c(a), c(b)))), (limit, a, b)
            assert _outcome(F.tensor_black, a, b) == \
                _outcome(lambda: c(F.tensor_white(c(a), c(b)))), (limit, a, b)


# generators of every arity up to 2, arity-0 objects included
LANE_SIG = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 1), "U": (1, 0), "Z": (0, 0)})


def _lane(lanes, lane):
    """The bitmask that `lane` of a lane register holds: bit p from pair p."""
    return sum((x >> lane & 1) << p for p, x in enumerate(lanes))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2), st.integers(0, 6), st.randoms(use_true_random=False))
def test_lane_run_agrees_with_the_scalar_run_lane_by_lane(k, width, rng):
    """A random term at k <= 2 (both colours, sugar, `genop`, `neg`, arity-0
    objects, constants and symmetries) run over one chunk of 2^width lanes: each
    sampled lane equals the scalar `Program.run` on its candidate, whose
    generator masks, concatenated in name order with the first most significant,
    read chunk * 2^width + lane."""
    names = sorted(LANE_SIG.generators)
    sizes = [F.space_bits(k, *LANE_SIG.generators[name]) for name in names]
    width = min(width, sum(sizes))
    n, m = rng.randint(0, 2), rng.randint(0, 2)
    t = helpers.random_term(rng, LANE_SIG, n, m, 3)
    roll = rng.random()
    if roll < 0.2:  # random_term draws no constant or symmetry: wrap one in a random term
        kind = rng.choice(sorted(T.CONSTANT_TYPES))
        dom, cod = T.CONSTANT_TYPES[kind]
        t = T.SeqW(T.Const(kind), helpers.random_term(rng, LANE_SIG, cod, dom, 2))
    elif roll < 0.3:
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        sym = (T.SymW if rng.random() < 0.5 else T.SymB)(a, b)
        t = T.TensW(sym, helpers.random_term(rng, LANE_SIG, rng.randint(0, 1), 1, 2))
    prog = F.Program(k, LANE_SIG.generators)
    reg = prog.add(t)
    prog.check(reg, reg)
    lanes = F.Lanes(prog, width)
    chunk = rng.randrange(1 << sum(sizes) - width)
    full = lanes.load(chunk)
    assert full == (1 << (1 << width)) - 1
    code = lanes.compile(0)
    assert code is not None and lanes.run(code, full) == full
    for _ in range(4):
        lane = rng.randrange(1 << width)
        cand, masks = chunk << width | lane, []
        for size in reversed(sizes):
            masks.insert(0, cand & (1 << size) - 1)
            cand >>= size
        assert prog.run(masks) is None
        assert _lane(lanes.regs[reg], lane) == prog.regs[reg], T.print_term(t)
