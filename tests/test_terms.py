import random

import pytest
from hypothesis import given, settings, strategies as st

from diagrel import terms as T
from diagrel import finrel as F

import helpers

SIG = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 2)})


def test_signature_parse():
    sig = T.Signature.parse("# comment\nsig R : 1 -> 1\n\nsig S:2->1\n")
    assert sig.generators == {"R": (1, 1), "S": (2, 1)}
    with pytest.raises(T.ParseError):
        T.Signature.parse("sig R : 1 -> 1\nsig R : 2 -> 2")
    with pytest.raises(T.ParseError):
        T.Signature.parse("sig R 1 -> 1")


def test_typecheck_basics():
    assert T.typecheck(T.IdW(3), SIG) == (3, 3)
    assert T.typecheck(T.SymB(2, 1), SIG) == (3, 3)
    assert T.typecheck(T.Gen("S"), SIG) == (2, 1)
    assert T.typecheck(T.GenOp("S"), SIG) == (1, 2)
    assert T.typecheck(T.Const("copyw"), SIG) == (1, 2)
    assert T.typecheck(T.SeqW(T.Gen("S"), T.Gen("R")), SIG) == (2, 1)
    assert T.typecheck(T.TensB(T.Gen("R"), T.Gen("P")), SIG) == (1, 3)
    assert T.typecheck(T.Meet(T.Gen("R"), T.Dag(T.Gen("R"))), SIG) == (1, 1)
    assert T.typecheck(T.Top(0, 2), SIG) == (0, 2)


def test_typecheck_errors_carry_position():
    bad = T.SeqW(T.IdW(1), T.Meet(T.Gen("R"), T.Gen("S")))
    with pytest.raises(T.TypeMismatch) as e:
        T.typecheck(bad, SIG)
    assert e.value.position == (1,)  # the ill-typed meet, not the root
    with pytest.raises(T.DiagrelError):
        T.typecheck(T.Gen("missing"), SIG)
    # composition mismatch is reported at the offending node
    with pytest.raises(T.TypeMismatch) as e:
        T.typecheck(T.SeqW(T.Gen("R"), T.Gen("S")), SIG)
    assert e.value.position == ()


def test_dagger_reverses_type_negation_preserves():
    rng = random.Random(5)
    for _ in range(50):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        t = helpers.random_term(rng, SIG, n, m, 3)
        assert T.typecheck(t, SIG) == (n, m)
        assert T.typecheck(T.Dag(t), SIG) == (m, n)
        assert T.typecheck(T.Neg(t), SIG) == (n, m)


def test_print_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        t = helpers.random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2), 3)
        assert T.parse_term(T.print_term(t), SIG) == t


def test_parse_errors():
    for bad in ["", "(seqw (idw 1)", "(idw 1))", "(idw -1)", "(frob 1)",
                "(gen missing)", "(idw 1) (idw 2)", "(seqw (idw 1))"]:
        with pytest.raises(T.ParseError):
            T.parse_term(bad, SIG)


def test_parse_comments_and_whitespace():
    t = T.parse_term("; a line comment\n(seqw (gen R)\n  (gen R)) ; trailing", SIG)
    assert t == T.SeqW(T.Gen("R"), T.Gen("R"))


def test_positions_and_replace():
    t = T.SeqW(T.Gen("R"), T.Meet(T.Gen("R"), T.Gen("R")))
    ps = T.positions(t)
    assert () in ps and (1, 0) in ps
    assert T.subterm_at(t, (1, 0)) == T.Gen("R")
    r = T.replace_at(t, (1, 0), T.Dag(T.Gen("R")), SIG)
    assert T.subterm_at(r, (1, 0)) == T.Dag(T.Gen("R"))
    with pytest.raises(T.InvalidPosition):
        T.subterm_at(t, (0, 0))
    # replacement producing an ill-typed term is rejected when sig given
    with pytest.raises(T.TypeMismatch):
        T.replace_at(t, (0,), T.Gen("S"), SIG)


def test_format_position():
    assert T.format_position(()) in ("ε", "e")
    assert T.format_position((0, 1)) == "0.1"


def test_macros_have_expected_types():
    for n in range(4):
        assert T.typecheck(T.copy_w(n), SIG) == (n, 2 * n)
        assert T.typecheck(T.cocopy_b(n), SIG) == (2 * n, n)
        assert T.typecheck(T.discard_w(n), SIG) == (n, 0)
        assert T.typecheck(T.codiscard_b(n), SIG) == (0, n)
        assert T.typecheck(T.cup_w(n), SIG) == (0, 2 * n)
        assert T.typecheck(T.cap_w(n), SIG) == (2 * n, 0)


def test_black_macro_syntax():
    # proof-script positions index into these exact trees
    want = {
        (T.copy_b, 0): "(idb 0)",
        (T.copy_b, 1): "copyb",
        (T.copy_b, 2): "(seqb (tensb copyb copyb) (tensb (idb 1) (tensb (symb 1 1) (idb 1))))",
        (T.copy_b, 3): "(seqb (tensb copyb (seqb (tensb copyb copyb) (tensb (idb 1) "
                       "(tensb (symb 1 1) (idb 1))))) (tensb (idb 1) (tensb (symb 1 2) (idb 2))))",
        (T.cocopy_b, 2): "(seqb (tensb (idb 1) (tensb (symb 1 1) (idb 1))) (tensb cocb cocb))",
        (T.cocopy_b, 3): "(seqb (tensb (idb 1) (tensb (symb 2 1) (idb 2))) (tensb cocb "
                         "(seqb (tensb (idb 1) (tensb (symb 1 1) (idb 1))) (tensb cocb cocb))))",
        (T.discard_b, 0): "(idb 0)",
        (T.discard_b, 2): "(tensb dscb dscb)",
        (T.discard_b, 3): "(tensb dscb (tensb dscb dscb))",
        (T.codiscard_b, 1): "codb",
        (T.codiscard_b, 3): "(tensb codb (tensb codb codb))",
    }
    for (macro, n), text in want.items():
        assert T.print_term(macro(n)) == text, text


def test_parse_inequality():
    assert T.parse_inequality("(idw 1) <= (gen R)", SIG) == (T.IdW(1), T.Gen("R"))
    assert T.parse_inequality(" copyw\n<= (seqw copyw (symw 1 1)) ") == (
        T.CopyW, T.SeqW(T.CopyW, T.SymW(1, 1)))
    with pytest.raises(T.ParseError, match="expected '<=' between terms"):
        T.parse_inequality("(idw 1) (gen R)", SIG)
    with pytest.raises(T.ParseError, match="trailing input after second term"):
        T.parse_inequality("(idw 1) <= (gen R) (gen R)", SIG)
    with pytest.raises(T.ParseError, match="unknown generator"):
        T.parse_inequality("(idw 1) <= (gen Q)", SIG)


def test_desugar_removes_sugar():
    rng = random.Random(23)
    sugar = (T.Dag, T.Neg, T.Meet, T.Join, T.Top, T.Bot)
    for _ in range(60):
        t = helpers.random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2), 3)
        d = T.desugar(t, SIG)
        assert T.typecheck(d, SIG) == T.typecheck(t, SIG)
        assert not any(isinstance(T.subterm_at(d, p), sugar) for p in T.positions(d))


def test_desugar_meet_shape():
    t = T.desugar(T.Meet(T.Gen("R"), T.Gen("R")), SIG)
    # copy ; (R ⊗ R) ; cocopy
    assert isinstance(t, T.SeqW)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10 ** 6), st.integers(1, 3))
def test_dagger_involution_semantics(n, m, seed, k):
    rng = random.Random(seed)
    t = helpers.random_term(rng, SIG, n, m, 2)
    interp = F.Interpretation(SIG, k, {
        name: helpers.random_relation(rng, k, dn, dm)
        for name, (dn, dm) in SIG.generators.items()})
    v = F.evaluate(t, interp)
    assert F.equal(F.evaluate(T.Dag(T.Dag(t)), interp), v)
    assert F.equal(F.evaluate(T.Neg(T.Neg(t)), interp), v)
    assert F.equal(F.evaluate(T.Dag(t), interp), F.converse(v))
    assert F.equal(F.evaluate(T.Neg(t), interp), F.complement(v))
