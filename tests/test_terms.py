import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from diagrel import terms as T
from diagrel import finrel as F

import helpers

SIG = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 2)})


def test_signature_owns_a_copy_of_its_generator_map():
    """So the type a node holds under a signature cannot go stale."""
    gens = {"R": (1, 2)}
    sig = T.Signature(gens)
    t = T.Dag(T.Gen("R"))
    assert T.typecheck(t, sig) == (2, 1)
    gens["R"] = (2, 2)
    assert sig.generators == {"R": (1, 2)}
    assert T.typecheck(t, sig) == T.typecheck(T.Dag(T.Gen("R")), sig) == (2, 1)


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


@pytest.mark.parametrize("term, position, message", [
    (T.IdW(-1), (), "negative identity arity"),
    (T.SeqW(T.IdW(0), T.IdB(-1)), (1,), "negative identity arity"),
    (T.SymW(-1, 0), (), "negative symmetry arity"),
    (T.SymB(0, -1), (), "negative symmetry arity"),
    (T.Top(-1, 0), (), "negative arity"),
    (T.TensW(T.Bot(0, 1), T.Bot(0, -1)), (1,), "negative arity"),
], ids=repr)
def test_typecheck_refuses_negative_arities(term, position, message):
    """Only an API caller reaches these: the readers refuse a negative numeral
    first.  A node that raised holds no type, so typing it again raises again."""
    for _ in range(2):
        with pytest.raises(T.TypeMismatch) as e:
            T.typecheck(term, SIG)
        assert str(e.value) == f"at {T.format_position(position)}: {message}"
        assert e.value.position == position


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
    T.SeqB(T.Const("copyb"), T.Const("cocw")): "(seqb copyb cocw)",
    T.TensW(T.Const("dscw"), T.Const("codb")): "(tensw dscw codb)",
    T.TensB(T.Top(1, 0), T.IdB(2)): "(tensb (top 1 0) (idb 2))",
    T.Meet(T.Gen("R"), T.Dag(T.Gen("R"))): "(meet (gen R) (dag (gen R)))",
    T.Join(T.Neg(T.IdW(1)), T.SymB(0, 1)): "(join (neg (idw 1)) (symb 0 1))",
    T.Dag(T.GenOp("S")): "(dag (genop S))",
    T.Neg(T.Bot(0, 2)): "(neg (bot 0 2))",
    T.Top(3, 1): "(top 3 1)",
    T.Bot(0, 0): "(bot 0 0)",
    **{T.Const(kind): kind for kind in T.CONSTANT_TYPES},
}


def test_print_term_pinned():
    heads = {text.split()[0][1:] for text in PINNED_SYNTAX.values() if text[0] == "("}
    assert len(heads) == 16
    assert {t.kind for t in PINNED_SYNTAX if isinstance(t, T.Const)} == set(T.CONSTANT_TYPES)
    for t, text in PINNED_SYNTAX.items():
        assert T.print_term(t) == text


def test_print_term_matches_the_recursive_printer():
    """On random terms and on their desugarings."""
    rng = random.Random(11)
    for i in range(600):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        t = helpers.random_term(rng, SIG, n, m, 4)
        assert T.print_term(t) == helpers.naive_print_term(t)
        if i % 12 == 0:
            d = T.desugar(t, SIG)
            assert T.print_term(d) == helpers.naive_print_term(d)


def test_print_term_prints_any_depth():
    t = T.Gen("R")
    for _ in range(20000):
        t = T.Dag(t)
    assert T.print_term(t) == "(dag " * 20000 + "(gen R)" + ")" * 20000


@pytest.mark.parametrize("t, message", [
    ("abc", "not a term: 'abc'"),
    (T.SeqW("(gen R)", T.IdW(1)), "not a term: '(gen R)'"),
    (T.Neg(")"), "not a term: ')'"),
])
def test_print_term_refuses_a_string_as_typecheck_does(t, message):
    """A `str` is no term, wherever it sits, though the printer's own text
    pieces are strings."""
    for refuse in (T.print_term, lambda t: T.typecheck(t, SIG)):
        with pytest.raises(T.DiagrelError, match=f"^{re.escape(message)}$"):
            refuse(t)


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
            assert list(cls._fields) == ["t", "u"][:len(kinds)]
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
    # the axiom database's pattern syntax is not term syntax
    ("(seqw a b)", "1:7: unknown atom 'a'"),
    ("(idw X+Y)", "1:6: expected number, got 'X+Y'"),
    ("(idw ())", "expected number, got a list"),
    ("(copyw X)", "1:2: unknown form 'copyw'"),
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
    assert helpers.naive_subterm_at(t, (1, 0)) == T.Gen("R")
    r = T.replace_at(t, (1, 0), T.Dag(T.Gen("R")), SIG)
    assert helpers.naive_subterm_at(r, (1, 0)) == T.Dag(T.Gen("R"))
    with pytest.raises(T.InvalidPosition):
        helpers.naive_subterm_at(t, (0, 0))
    # replacement producing an ill-typed term is rejected when sig given
    with pytest.raises(T.TypeMismatch):
        T.replace_at(t, (0,), T.Gen("S"), SIG)
    # every position of sugar terms, under unary and binary nodes alike
    rng = random.Random(17)
    for _ in range(50):
        t = helpers.random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2), 3)
        for path in T.positions(t):
            u = T.Top(*T.typecheck(helpers.naive_subterm_at(t, path), SIG))
            assert T.replace_at(t, path, u, SIG) == helpers.naive_splice(t, path, u)


def test_format_position():
    assert T.format_position(()) in ("ε", "e")
    assert T.format_position((0, 1)) == "0.1"


def test_macros_have_expected_types():
    for n in range(4):
        assert T.typecheck(T.macro("copyw", n), SIG) == (n, 2 * n)
        assert T.typecheck(T.macro("cocb", n), SIG) == (2 * n, n)
        assert T.typecheck(T.macro("dscw", n), SIG) == (n, 0)
        assert T.typecheck(T.macro("codb", n), SIG) == (0, n)
        assert T.typecheck(T.cup_w(n), SIG) == (0, 2 * n)
        assert T.typecheck(T.cap_w(n), SIG) == (2 * n, 0)


@pytest.mark.parametrize("kind", sorted(T.CONSTANT_TYPES))
def test_macros_match_the_recursive_oracle(kind):
    """Each macro, built by a loop in its own colour, is the parent's term:
    white by recursion on the arity, black as the colour switch of white."""
    for n in range(61):
        assert T.macro(kind, n) == helpers.naive_macro(kind, n), n


def test_black_macro_syntax():
    # proof-script positions index into these exact trees
    want = {
        ("copyb", 0): "(idb 0)",
        ("copyb", 1): "copyb",
        ("copyb", 2): "(seqb (tensb copyb copyb) (tensb (idb 1) (tensb (symb 1 1) (idb 1))))",
        ("copyb", 3): "(seqb (tensb copyb (seqb (tensb copyb copyb) (tensb (idb 1) "
                       "(tensb (symb 1 1) (idb 1))))) (tensb (idb 1) (tensb (symb 1 2) (idb 2))))",
        ("cocb", 2): "(seqb (tensb (idb 1) (tensb (symb 1 1) (idb 1))) (tensb cocb cocb))",
        ("cocb", 3): "(seqb (tensb (idb 1) (tensb (symb 2 1) (idb 2))) (tensb cocb "
                         "(seqb (tensb (idb 1) (tensb (symb 1 1) (idb 1))) (tensb cocb cocb))))",
        ("dscb", 0): "(idb 0)",
        ("dscb", 2): "(tensb dscb dscb)",
        ("dscb", 3): "(tensb dscb (tensb dscb dscb))",
        ("codb", 1): "codb",
        ("codb", 3): "(tensb codb (tensb codb codb))",
    }
    for (kind, n), text in want.items():
        assert T.print_term(T.macro(kind, n)) == text, text


def test_parse_inequality():
    assert T.parse_inequality("(idw 1) <= (gen R)", SIG) == (T.IdW(1), T.Gen("R"))
    assert T.parse_inequality(" copyw\n<= (seqw copyw (symw 1 1)) ") == (
        T.Const("copyw"), T.SeqW(T.Const("copyw"), T.SymW(1, 1)))
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
        assert not any(isinstance(helpers.naive_subterm_at(d, p), sugar) for p in T.positions(d))


def test_a_node_is_typed_afresh_under_another_signature():
    t = T.SeqW(T.Gen("R"), T.IdW(1))
    assert T.typecheck(t, T.Signature({"R": (1, 1)})) == (1, 1)
    assert T.typecheck(t, T.Signature({"R": (2, 1)})) == (2, 1)
    with pytest.raises(T.DiagrelError, match="unknown generator 'R'"):
        T.typecheck(t, T.EMPTY_SIGNATURE)
    with pytest.raises(T.DiagrelError, match="unknown generator 'R'"):
        T.typecheck(t.t, T.EMPTY_SIGNATURE)


def test_desugar_reads_each_arity_under_its_own_signature():
    """Desugaring under s1 starts at a root typed under s1 whose body holds
    its type under s2: the body's arity is read under s1 all the same."""
    s1, s2 = T.Signature({"R": (1, 2)}), T.Signature({"R": (2, 1)})
    r = T.Gen("R")
    t = T.Dag(r)
    assert T.typecheck(t, s1) == (2, 1)
    assert T.typecheck(r, s2) == (2, 1)
    assert T.desugar(t, s1) == T.desugar(T.Dag(T.Gen("R")), s1)
    assert T.typecheck(T.desugar(t, s1), s1) == (2, 1)


#: the fields of every term class, which a node's type is not one of
TERM_FIELDS = {
    "IdW": ("n",), "IdB": ("n",), "SymW": ("m", "n"), "SymB": ("m", "n"),
    "Gen": ("name",), "GenOp": ("name",), "SeqW": ("t", "u"), "SeqB": ("t", "u"),
    "TensW": ("t", "u"), "TensB": ("t", "u"), "Meet": ("t", "u"), "Join": ("t", "u"),
    "Dag": ("t",), "Neg": ("t",), "Top": ("n", "m"), "Bot": ("n", "m"), "Const": ("kind",),
}


def test_a_typed_node_is_the_record_a_fresh_one_is():
    """The type a node holds is no field: repr, ==, hash, copy and pickle
    ignore it."""
    assert {type(t).__name__: type(t)._fields for t in PINNED_SYNTAX} == TERM_FIELDS
    for text in PINNED_SYNTAX.values():
        typed, fresh = T.parse_term(text, SIG), T.parse_term(text, SIG)
        T.typecheck(typed, SIG)
        assert repr(typed) == repr(fresh) and typed == fresh and hash(typed) == hash(fresh)
        assert pickle.dumps(typed) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(typed)) == copy.copy(typed) == copy.deepcopy(typed) \
            == fresh


def _nested_dags(depth):
    t = T.Gen("R")
    for _ in range(depth):
        t = T.Dag(t)
    return t


def test_desugar_types_each_node_once(monkeypatch):
    """One `typecheck` pass, which visits each of the 61 nodes once, gives
    every dag its arity."""
    t = _nested_dags(60)
    calls = helpers.count_calls(monkeypatch, T, "typecheck")
    T.desugar(t, SIG)
    assert calls == [61]


def test_desugar_of_900_nested_dags():
    """One frame per term level in each of the typing pass and the expansion;
    the result, four levels per dag, is not walked here."""
    d = T.desugar(_nested_dags(900), SIG)
    assert type(d) is T.SeqW and type(d.t) is T.TensW  # (cup ⊗ id) ; ...


def test_desugar_returns_a_sugar_free_term_itself():
    rng = random.Random(29)
    for _ in range(40):
        t = helpers.random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2), 3)
        d = T.desugar(t, SIG)
        assert T.desugar(d, SIG) is d
    r = T.Gen("R")
    t = T.SeqW(r, T.TensW(T.IdW(0), T.Const("copyw")))
    assert T.desugar(t, SIG) is t
    assert T.desugar(T.Meet(t, T.Neg(t)), SIG).u.t.t is t  # copy ; (t ⊗ ¬t) ; cocopy


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
