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
    r = F.FinRelation.from_pairs(2, 1, 1, [((0,), (0,)), ((1,), (1,)), ((0,), (1,))])
    interp = F.Interpretation(th.signature, 2, {"R": r})
    assert TH.check_model(th, interp).is_model


def test_order_theory_empty_relation_fails_reflexivity():
    th = TH.order_theory()
    interp = F.Interpretation(th.signature, 2, {"R": F.FinRelation.empty(2, 1, 1)})
    report = TH.check_model(th, interp)
    assert not report.is_model
    failing = [name for name, ok, _ in report.verdicts if not ok]
    assert "reflexive" in failing
    witness = next(w for name, ok, w in report.verdicts if name == "reflexive")
    assert witness is not None


def test_empty_theory_always_models():
    th = TH.Theory(T.Signature({}), ())
    for k in (1, 2, 3):
        interp = F.Interpretation(th.signature, k, {})
        assert TH.check_model(th, interp).is_model


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


def test_enumerate_matches_naive_filter():
    th = TH.order_theory()
    k = 2
    found = {m.assignment["R"].bits for m in TH.enumerate_models(th, k)}
    naive = set()
    for bits in range(1 << (k * k)):
        interp = F.Interpretation(th.signature, k, {"R": F.FinRelation(k, 1, 1, bits)})
        if TH.check_model(th, interp).is_model:
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
    interp = F.Interpretation(th.signature, 2, {"R": F.FinRelation.empty(2, 1, 1)})
    report = TH.check_model(th, interp)
    assert [name for name, _, _ in report.verdicts] == [a[0] for a in th.axioms]
    holds = {name: ok for name, ok, _ in report.verdicts}
    # reflexive, the first axiom, fails; the later ones are still decided
    assert holds == {"reflexive": False, "transitive": True,
                     "antisymmetric": True, "total": False}
    assert all((w is None) == ok for _, ok, w in report.verdicts)


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
