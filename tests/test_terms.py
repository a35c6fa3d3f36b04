import dataclasses
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


# one instance of each of the 16 heads and each of the 8 constants, with the
# text `print_term` gives it
PINNED_SYNTAX = {
    T.IdW(2): "(idw 2)",
    T.IdB(0): "(idb 0)",
    T.SymW(1, 2): "(symw 1 2)",
    T.SymB(2, 0): "(symb 2 0)",
    T.Gen("S"): "(gen S)",
    T.GenOp("P"): "(genop P)",
    T.SeqW(T.Gen("R"), T.IdW(1)): "(seqw (gen R) (idw 1))",
    T.SeqB(T.CopyB, T.CocopyW): "(seqb copyb cocw)",
    T.TensW(T.DiscardW, T.CodiscardB): "(tensw dscw codb)",
    T.TensB(T.Top(1, 0), T.IdB(2)): "(tensb (top 1 0) (idb 2))",
    T.Meet(T.Gen("R"), T.Dag(T.Gen("R"))): "(meet (gen R) (dag (gen R)))",
    T.Join(T.Neg(T.IdW(1)), T.SymB(0, 1)): "(join (neg (idw 1)) (symb 0 1))",
    T.Dag(T.GenOp("S")): "(dag (genop S))",
    T.Neg(T.Bot(0, 2)): "(neg (bot 0 2))",
    T.Top(3, 1): "(top 3 1)",
    T.Bot(0, 0): "(bot 0 0)",
    T.CopyW: "copyw", T.CocopyW: "cocw", T.DiscardW: "dscw", T.CodiscardW: "codw",
    T.CopyB: "copyb", T.CocopyB: "cocb", T.DiscardB: "dscb", T.CodiscardB: "codb",
}


def test_print_term_pinned():
    heads = {text.split()[0][1:] for text in PINNED_SYNTAX.values() if text[0] == "("}
    assert len(heads) == 16
    assert {t.kind for t in PINNED_SYNTAX if isinstance(t, T.Const)} == set(T.CONSTANT_TYPES)
    for t, text in PINNED_SYNTAX.items():
        assert T.print_term(t) == text


def test_every_term_class_has_one_form():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = set(subclasses(T.Term))
    rows = [cls for cls, _ in T.FORMS.values()]
    assert all(cls is T.Const or rows.count(cls) == 1 for cls in classes)
    assert set(rows) <= classes
    for cls, kinds in T.FORMS.values():
        # one kind for all arguments of a form, and subterms in fields t, u
        assert len(set(kinds)) == 1 and kinds[0] in ("nat", "name", "term")
        if kinds[0] == "term":
            assert [f.name for f in dataclasses.fields(cls)] == ["t", "u"][:len(kinds)]
    # PINNED_SYNTAX holds an instance of every class; each is accepted by
    # typecheck and by the evaluator
    assert {type(t) for t in PINNED_SYNTAX} == classes
    interp = F.Interpretation(SIG, 2, {
        name: F.FinRelation.full(2, n, m) for name, (n, m) in SIG.generators.items()})
    for t in PINNED_SYNTAX:
        rel = F.evaluate(t, interp)
        assert (rel.dom_arity, rel.cod_arity) == T.typecheck(t, SIG)


def test_colour_switch_is_an_involution():
    head = {cls: h for h, (cls, _) in T.FORMS.items()}
    flip = {"w": "b", "b": "w"}
    assert len(T.MIRROR) == 8
    for cls, mirror in T.MIRROR.items():
        assert mirror is not cls and T.MIRROR[mirror] is cls
        assert head[mirror] == head[cls][:-1] + flip[head[cls][-1]]
        assert T.FORMS[head[mirror]][1] == T.FORMS[head[cls]][1]
    for kind in T.CONSTANT_TYPES:
        mirror = T.desugar(T.Neg(T.Const(kind)))
        assert mirror == T.Const(kind[:-1] + flip[kind[-1]])
        assert T.CONSTANT_TYPES[mirror.kind] == T.CONSTANT_TYPES[kind]


def test_print_parse_roundtrip_random():
    rng = random.Random(11)
    terms = list(PINNED_SYNTAX)
    for _ in range(100):
        terms.append(helpers.random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2), 3))
    for t in terms:
        assert T.parse_term(T.print_term(t), SIG) == t


def test_parse_errors():
    for bad in ["", "(seqw (idw 1)", "(idw 1))", "(idw -1)", "(frob 1)",
                "(gen missing)", "(idw 1) (idw 2)", "(seqw (idw 1))"]:
        with pytest.raises(T.ParseError):
            T.parse_term(bad, SIG)


@settings(max_examples=300, deadline=None)
@given(helpers.token_text(helpers.TERM_PIECES, helpers.term_texts(SIG)))
def test_parse_term_fuzz(text):
    """Any text parses to a term, which prints back to itself, or raises a
    DiagrelError."""
    try:
        t = T.parse_term(text, SIG)
    except T.DiagrelError:
        return
    assert T.parse_term(T.print_term(t), SIG) == t


@settings(max_examples=300, deadline=None)
@given(helpers.token_text(helpers.SIG_PIECES, st.sampled_from(
    ["sig R : 1 -> 1\nsig S : 2 -> 1\n", "# gens\nsig P:0->2\n\nsig Q : 3 -> 0 # c\n"])))
def test_signature_parse_fuzz(text):
    try:
        sig = T.Signature.parse(text)
    except T.DiagrelError:
        return
    assert all(n >= 0 and m >= 0 for n, m in sig.generators.values())


@pytest.mark.parametrize("text, message", [
    ("(idw 1 2)", "1:2: idw expects 1 argument(s), got 2"),
    ("(seqw (idw 1))", "1:2: seqw expects 2 argument(s), got 1"),
    ("(symb 1)", "1:2: symb expects 2 argument(s), got 1"),
    ("(dag)", "1:2: dag expects 1 argument(s), got 0"),
    ("(frob 1)", "1:2: unknown form 'frob'"),
    ("(copyw)", "1:2: unknown form 'copyw'"),
    (" frob", "1:2: unknown atom 'frob'"),
    ("(seqw idw copyw)", "1:7: unknown atom 'idw'"),
    ("(gen (R))", "1:2: generator name must be an atom"),
    ("(genop ())", "1:2: generator name must be an atom"),
    ("(gen Q)", "1:6: unknown generator 'Q'"),
    ("((idw 1) (idw 1))", "list in head position"),
    ("(tensw () copyw)", "empty list"),
    ("(idw x)", "1:6: expected number, got 'x'"),
    ("(top 1 -1)", "1:8: number must be non-negative"),
    ("(symw (1) 1)", "expected number, got a list"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(T.ParseError) as e:
        T.parse_term(text, SIG)
    assert str(e.value) == message


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
