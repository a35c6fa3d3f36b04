import itertools

import pytest
from hypothesis import given, settings

import helpers

from diagrel import terms as T
from diagrel import finrel as F
from diagrel import theory as TH


def test_parse_theory():
    th = TH.parse_theory(
        "# a theory\nsig R : 1 -> 1\naxiom refl : (idw 1) <= (gen R)\n")
    assert th.signature.generators == {"R": (1, 1)}
    assert len(th.axioms) == 1
    with pytest.raises(T.ParseError):
        TH.parse_theory("axiom bad : (idw 1)\n")
    with pytest.raises(T.DiagrelError):
        TH.parse_theory("sig R : 1 -> 1\naxiom bad : (idw 1) <= (gen R)\n"
                        "axiom worse : (idw 2) <= (gen R)\n")


def test_order_theory_example_model():
    th = TH.order_theory()
    r = helpers.from_pairs(2, 1, 1, [((0,), (0,)), ((1,), (1,)), ((0,), (1,))])
    interp = F.Interpretation(th.signature, 2, {"R": r})
    assert all(ok for _, ok, _ in TH.check_model(th, interp))


def test_order_theory_empty_relation_fails_reflexivity():
    th = TH.order_theory()
    interp = F.Interpretation(th.signature, 2, {"R": F.FinRelation(2, 1, 1, 0)})
    verdicts = TH.check_model(th, interp)
    assert not all(ok for _, ok, _ in verdicts)
    failing = [name for name, ok, _ in verdicts if not ok]
    assert "reflexive" in failing
    witness = next(w for name, ok, w in verdicts if name == "reflexive")
    assert witness is not None


def test_empty_theory_always_models():
    th = TH.Theory(T.Signature({}), ())
    for k in (1, 2, 3):
        interp = F.Interpretation(th.signature, k, {})
        assert all(ok for _, ok, _ in TH.check_model(th, interp))


def _naive_order_count(k):
    """Count relations on {0..k-1} that are total orders (independent oracle)."""
    count = 0
    pairs = [(x, y) for x in range(k) for y in range(k)]
    for bits in range(1 << (k * k)):
        rel = {pairs[i] for i in range(k * k) if bits >> i & 1}
        if not all((x, x) in rel for x in range(k)):
            continue
        if not all((x, z) in rel
                   for x, y in rel for y2, z in rel if y == y2):
            continue
        if not all(x == y for x, y in rel if (y, x) in rel):
            continue
        if not all((x, y) in rel or (y, x) in rel for x, y in pairs):
            continue
        count += 1
    return count


@pytest.mark.parametrize("k,expect", [(1, 1), (2, 2), (3, 6)])
def test_order_theory_model_counts(k, expect):
    th = TH.order_theory()
    models = TH.enumerate_models(th, k)
    assert len(models) == expect
    assert expect == _naive_order_count(k)


def test_enumerate_reads_back_a_signature_out_of_name_order():
    th = TH.parse_theory("sig S : 2 -> 1\nsig R : 1 -> 1\n"
                         "axiom a : (seqw (gen S) (gen R)) <= (gen S)\n"
                         "axiom b : (idw 1) <= (gen R)\n")
    assert list(th.signature.generators) == ["S", "R"]
    for k in range(3):
        models = TH.enumerate_models(th, k)
        assert [(m.assignment["R"].bits, m.assignment["S"].bits) for m in models] \
            == helpers.naive_models(th, k)
        assert all(m.signature == th.signature for m in models)


def test_enumerate_matches_naive_filter():
    th = TH.order_theory()
    k = 2
    found = {m.assignment["R"].bits for m in TH.enumerate_models(th, k)}
    naive = set()
    for bits in range(1 << (k * k)):
        interp = F.Interpretation(th.signature, k, {"R": F.FinRelation(k, 1, 1, bits)})
        if all(ok for _, ok, _ in TH.check_model(th, interp)):
            naive.add(bits)
    assert found == naive


def test_enumerate_models_lexicographic_order():
    th = TH.order_theory()
    bits = [m.assignment["R"].bits for m in TH.enumerate_models(th, 2)]
    assert bits == sorted(bits)


def test_search_space_bound_refusal():
    th = TH.parse_theory("sig R : 2 -> 2\naxiom a : (gen R) <= (gen R)\n")
    with pytest.raises(T.DiagrelError) as e:
        TH.enumerate_models(th, 3, bound=2 ** 10)
    assert "2" in str(e.value)  # the refusal reports the computed size


def test_search_space_bound_is_exact():
    th = TH.parse_theory("sig R : 1 -> 1\naxiom a : (gen R) <= (gen R)\n")
    assert TH.search_space(th, 2) == 4
    assert len(TH.enumerate_models(th, 2, bound=16)) == 16
    for bound in (15, 0, -1):
        with pytest.raises(T.DiagrelError, match=r"size 2\^4 exceeds"):
            TH.enumerate_models(th, 2, bound=bound)
    empty = TH.parse_theory("axiom a : (idw 1) <= (idw 1)\n")
    assert TH.search_space(empty, 2) == 0
    assert len(TH.enumerate_models(empty, 2, bound=1)) == 1
    for bound in (0, -1):
        with pytest.raises(T.DiagrelError, match=r"size 2\^0 exceeds"):
            TH.enumerate_models(empty, 2, bound=bound)


def test_check_model_reports_every_axiom_after_a_failure():
    th = TH.order_theory()
    interp = F.Interpretation(th.signature, 2, {"R": F.FinRelation(2, 1, 1, 0)})
    verdicts = TH.check_model(th, interp)
    assert [name for name, _, _ in verdicts] == [a[0] for a in th.axioms]
    holds = {name: ok for name, ok, _ in verdicts}
    # reflexive, the first axiom, fails; the later ones are still decided
    assert holds == {"reflexive": False, "transitive": True,
                     "antisymmetric": True, "total": False}
    assert all((w is None) == ok for _, ok, w in verdicts)


@settings(max_examples=300, deadline=None)
@given(helpers.token_text(helpers.THEORY_PIECES, helpers.theory_texts(
    T.Signature({"R": (1, 1), "S": (2, 1)}))))
def test_parse_theory_fuzz(text):
    """Any text parses to a theory or raises a DiagrelError."""
    try:
        th = TH.parse_theory(text)
    except T.DiagrelError:
        return
    for _, lhs, rhs in th.axioms:
        assert T.typecheck(lhs, th.signature) == T.typecheck(rhs, th.signature)


# the five order-search theories over one relation, and a theory with
# generator-free and arity-0 subterms on both sides of its axioms
_PROPS = {
    "reflexive": "(idw 1) <= (gen R)",
    "transitive": "(seqw (gen R) (gen R)) <= (gen R)",
    "antisymmetric": "(meet (gen R) (dag (gen R))) <= (idw 1)",
    "total": "(top 1 1) <= (join (gen R) (dag (gen R)))",
    "symmetric": "(dag (gen R)) <= (gen R)",
    "irreflexive": "(meet (gen R) (idw 1)) <= (bot 1 1)",
}
_THEORIES = {
    "linear-order": ("reflexive", "transitive", "antisymmetric", "total"),
    "partial-order": ("reflexive", "transitive", "antisymmetric"),
    "preorder": ("reflexive", "transitive"),
    "equivalence": ("reflexive", "symmetric", "transitive"),
    "strict-order": ("irreflexive", "transitive"),
}
THEORY_TEXTS = {
    name: "sig R : 1 -> 1\n" + "".join(f"axiom {p} : {_PROPS[p]}\n" for p in props)
    for name, props in _THEORIES.items()
}
THEORY_TEXTS["ground"] = """sig R : 1 -> 1
sig P : 0 -> 1
axiom a : (idw 0) <= (top 0 0)
axiom b : (seqb (idb 1) (gen R)) <= (join (gen R) (bot 1 1))
axiom c : (tensw (idw 0) (gen R)) <= (seqw (top 1 0) (seqw (top 0 2) (top 2 1)))
axiom d : (seqw (gen P) (seqb (idb 1) (gen R))) <= (seqw (idw 0) (gen P))
axiom e : (tensb (idw 0) (top 0 0)) <= (seqw (gen P) (dag (gen P)))
"""


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name", sorted(THEORY_TEXTS))
def test_enumerate_matches_naive_models(name, k):
    th = TH.parse_theory(THEORY_TEXTS[name])
    names = sorted(th.signature.generators)
    found = [tuple(m.assignment[n].bits for n in names) for m in TH.enumerate_models(th, k)]
    assert found == helpers.naive_models(th, k)


_POLAR = """sig R : 1 -> 1
sig P : 0 -> 1
axiom n : (neg (gen R)) <= (seqb (genop R) (dag (gen R)))
axiom t : (tensb (gen P) (idb 0)) <= (seqw (gen P) (join (gen R) (neg (idw 1))))
axiom g : (seqw (gen P) (genop R)) <= (neg (seqb (gen P) (bot 1 1)))
"""


@pytest.mark.parametrize("k", range(3))
def test_enumerate_matches_naive_models_with_antitone_and_black_nodes(k):
    """`neg` and `genop` are antitone, `seqb` and `tensb` black: the compiled
    search keeps exactly the models of the recursive oracle (16 of 64 at k = 2)."""
    th = TH.parse_theory(_POLAR)
    found = [(m.assignment["P"].bits, m.assignment["R"].bits) for m in TH.enumerate_models(th, k)]
    assert found == helpers.naive_models(th, k) and len(found) == (1, 3, 16)[k]


def test_enumerate_models_builds_an_interpretation_per_model_only(monkeypatch):
    """Candidates run on raw bitmasks: 6 interpretations for 512 candidates."""
    built = helpers.count_calls(monkeypatch, F, "Interpretation")
    assert len(TH.enumerate_models(TH.order_theory(), 3)) == 6
    assert built == [6]


def test_enumerate_models_typechecks_no_candidate(monkeypatch):
    th = TH.order_theory()
    calls = helpers.count_calls(monkeypatch, T, "typecheck")
    TH.enumerate_models(th, 2)
    at_2 = calls[0]
    TH.enumerate_models(th, 3)
    assert calls[0] - at_2 == at_2  # 16 candidates cost what 512 do


def test_check_model_without_a_theory_generator_is_a_diagrel_error():
    th = TH.order_theory()
    for sig, assignment in ((T.Signature({}), {}),
                            (T.Signature({"R": (2, 1)}), {"R": F.FinRelation(2, 2, 1, 0)})):
        with pytest.raises(T.DiagrelError):
            TH.check_model(th, F.Interpretation(sig, 2, assignment))


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("name", sorted(THEORY_TEXTS) + ["polar"])
def test_enumerate_matches_naive_models_over_several_chunks(monkeypatch, name, k):
    """With two lane bits a chunk holds 4 candidates, so each search spans 4 to
    1,024 chunks; the models and their order are still the oracle's."""
    monkeypatch.setattr(TH, "LANE_BITS", 2)
    th = TH.parse_theory(_POLAR if name == "polar" else THEORY_TEXTS[name])
    names = sorted(th.signature.generators)
    found = [tuple(m.assignment[n].bits for n in names) for m in TH.enumerate_models(th, k)]
    assert found == helpers.naive_models(th, k)


@pytest.mark.parametrize("name,count", [("linear-order", 120), ("partial-order", 4231)])
def test_order_model_counts_at_five(name, count):
    """2^25 candidates: the labelled linear orders and posets on 5 points."""
    th = TH.parse_theory(THEORY_TEXTS[name])
    with pytest.raises(T.DiagrelError, match=r"size 2\^25 exceeds"):
        TH.enumerate_models(th, 5)
    assert len(TH.enumerate_models(th, 5, bound=2 ** 25)) == count


def _count_runs(monkeypatch):
    count, run = [0], F.Program.run

    def counted(self, values):
        count[0] += 1
        return run(self, values)

    monkeypatch.setattr(F.Program, "run", counted)
    return count


def test_enumerate_models_runs_no_candidate_on_the_scalar_program(monkeypatch):
    """The five order theories decide every candidate in lanes."""
    runs = _count_runs(monkeypatch)
    for name in _THEORIES:
        for k in range(5):
            TH.enumerate_models(TH.parse_theory(THEORY_TEXTS[name]), k)
    assert runs == [0]


_WIDE = """sig R : 1 -> 1
axiom reflexive : (idw 1) <= (gen R)
axiom wide : (tensw (gen R) (idw 9)) <= (tensw (dag (gen R)) (idw 9))
axiom transitive : (seqw (gen R) (gen R)) <= (gen R)
"""


def test_a_wide_axiom_is_decided_per_candidate_still_alive(monkeypatch):
    """At k = 2 the wide axiom's tensor has 2^20 pairs, about 10 MB over 16
    lanes, past `finrel.LANE_BYTES`: the scalar program decides it for the 4
    candidates that pass reflexivity, and transitivity runs in lanes again."""
    th = TH.parse_theory(_WIDE)
    runs = _count_runs(monkeypatch)
    found = [m.assignment["R"].bits for m in TH.enumerate_models(th, 2)]
    assert runs == [4]
    assert [(bits,) for bits in found] == helpers.naive_models(th, 2) and found == [9, 15]


def test_an_axiom_over_a_register_only_scalar_code_computes_runs_scalar(monkeypatch):
    """`again` reads the wide tensor, which has no lane register: its lane
    code is refused too, and the scalar program decides it for the candidates
    still alive."""
    th = TH.parse_theory(_WIDE + "axiom again : (tensw (gen R) (idw 9)) <= "
                                 "(tensw (gen R) (idw 9))\n")
    runs, compile, refused = _count_runs(monkeypatch), F.Lanes.compile, []

    def counted(lanes, start):
        code = compile(lanes, start)
        refused.append(code is None)
        return code

    monkeypatch.setattr(F.Lanes, "compile", counted)
    found = [m.assignment["R"].bits for m in TH.enumerate_models(th, 2)]
    assert refused == [False, True, False, True] and runs == [6]
    assert [(bits,) for bits in found] == helpers.naive_models(th, 2) and found == [9, 15]
