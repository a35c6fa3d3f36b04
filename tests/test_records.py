"""The record classes: immutable slotted values with no generated code.

Every class of diagrel's records (term nodes, relations, predicates, proof
and report records) derives from `terms.Record`.  These tests walk the
diagrel modules for them and check the contract they share, the iterative
term equality against its recursive oracle, and that importing diagrel
loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

from diagrel import cli, doctrine as D, finrel as F, rewrite as R, terms as T, theory as TH

import helpers

SIG = T.Signature({"R": (1, 1), "S": (2, 1)})
X2, X3 = D.FinSetObj(2), D.FinSetObj(3)
REL = F.FinRelation(2, 1, 1, 5)
A, B = T.Gen("R"), T.IdW(1)

#: records that hold a dict (a signature's generators, an assignment) are
#: not hashable
UNHASHABLE = {T.Signature, F.Interpretation, TH.Theory}

#: the arguments of one instance of every record class
SAMPLES = {
    T.Signature: ({"R": (1, 1)},),
    T.IdW: (2,), T.IdB: (0,), T.SymW: (1, 2), T.SymB: (2, 0), T.Gen: ("S",),
    T.GenOp: ("S",), T.Const: ("cocb",), T.SeqW: (A, B), T.SeqB: (A, B), T.TensW: (A, B),
    T.TensB: (A, B), T.Dag: (A,), T.Neg: (A,), T.Meet: (A, B), T.Join: (A, B),
    T.Top: (3, 1), T.Bot: (0, 2),
    F.FinRelation: (2, 1, 1, 5),
    F.Interpretation: (T.Signature({"R": (1, 1)}), 2, {"R": REL}),
    D.FinSetObj: (3,),
    D.FinSetMor: (X3, X2, (0, 1, 1)),
    D.Predicate: (X3, 5),
    R.PVar: ("a",), R.PGenVar: ("r", True), R.PConstM: ("idw", (("n",),)),
    R.PBin: ("seqw", R.PVar("a"), R.PVar("b")),
    R.Axiom: ("x", "structural", "eq", R.PVar("a"), R.PVar("a"), (("a", ("n",), ("n",)),)),
    R.Step: ("unit-l", (0, 1), "l2r", (("n", 2),)),
    R.ProofScript: (A, A, ()),
    R.Verdict: (False, 3, "no"),
    R.AxiomReport: ("x", "fo", 10, 1, "witness"),
    R.SpiderForm: (1, 2, "w", frozenset({frozenset({"in0", "out1"})}), 1),
    TH.Theory: (SIG, (("refl", B, A),)),
    TH.ModelReport: ((("refl", True, None),),),
}


def record_classes():
    """Every concrete record class that a diagrel module defines."""
    found = set()
    for mod in (T, F, R, D, TH, cli):
        for value in vars(mod).values():
            if isinstance(value, type) and issubclass(value, T.Record) \
                    and value.__module__.startswith("diagrel") and value not in (T.Record, T.Term):
                found.add(value)
    return found


def test_every_record_class_has_a_sample():
    assert record_classes() == set(SAMPLES) and len(SAMPLES) == 35


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_record_contract(cls):
    """Immutable, slotted, equal and hashed by its fields, rebuilt by copy and pickle."""
    args = SAMPLES[cls]
    r, again = cls(*args), cls(*args)
    assert tuple(getattr(r, name) for name in cls._fields) == args
    assert "__slots__" in vars(cls) and cls.__dictoffset__ == 0 and not hasattr(r, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == again and not r != again and r != object() and r != args
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(again) and {r: 1}[again] == 1
    assert copy.copy(r) == r and copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r


def test_records_of_two_classes_differ():
    assert T.SeqW(A, B) != T.SeqB(A, B)
    assert T.Dag(A) != T.Neg(A) and T.IdW(1) != T.IdB(1) and T.Top(1, 1) != T.Bot(1, 1)
    assert R.PVar("a") != T.Gen("a")


def test_record_defaults():
    assert R.Step("unit-l", (), "l2r").bindings == ()
    assert R.Verdict(True) == R.Verdict(True, -1, "")
    assert R.Verdict(False, reason="why").step_index == -1
    assert R.AxiomReport("x", "fo", 1, 0).counterexample == ""
    assert R.Axiom("x", "fo", "le", A, A).arrows == ()
    assert R.PGenVar("r").op is False and R.PGenVar("r", op=True).op is True


def test_generic_constructor_refuses_wrong_fields():
    for args, kwargs in [((), {}), ((True, 1, "x", 2), {}), ((True,), {"accepted": False}),
                         ((True,), {"other": 1})]:
        with pytest.raises(TypeError):
            R.Verdict(*args, **kwargs)


def test_spider_form_closed_is_not_compared():
    part = frozenset({frozenset({"in0", "out0"})})
    a, b = R.SpiderForm(1, 1, "w", part, 0), R.SpiderForm(1, 1, "w", part, 3)
    assert a == b and hash(a) == hash(b) and (a.closed, b.closed) == (0, 3)
    assert a != R.SpiderForm(1, 1, "b", part, 0)


def test_pinned_reprs():
    """Error messages print terms and records with `!r`."""
    assert repr(T.SeqW(T.IdW(1), T.Const("copyw"))) == "SeqW(t=IdW(n=1), u=Const(kind='copyw'))"
    assert repr(T.Dag(T.Meet(T.Gen("R"), T.Top(2, 0)))) \
        == "Dag(t=Meet(t=Gen(name='R'), u=Top(n=2, m=0)))"
    assert repr(T.SymB(1, 2)) == "SymB(m=1, n=2)"
    assert repr(F.FinRelation(2, 1, 1, 5)) \
        == "FinRelation(carrier=2, dom_arity=1, cod_arity=1, bits=5)"
    assert repr(R.Verdict(True)) == "Verdict(accepted=True, step_index=-1, reason='')"


@pytest.mark.parametrize("build", [
    lambda: F.FinRelation(2, 1, 1, 16),
    lambda: F.FinRelation(2, 1, 1, -1),
    lambda: F.FinRelation(-1, 0, 0, 0),
    lambda: F.Interpretation(SIG, 2, {"R": REL}),
    lambda: T.Const("copy"),
    lambda: T.Signature({"R": (1, -1)}),
    lambda: D.FinSetObj(-1),
    lambda: D.FinSetMor(X3, X2, (0, 1)),
    lambda: D.FinSetMor(X2, X2, (0, 2)),
    lambda: D.Predicate(X2, 4),
    lambda: TH.Theory(SIG, (("bad", A, T.Gen("S")),)),
])
def test_validation_raises_diagrel_error(build):
    with pytest.raises(T.DiagrelError):
        build()


# ---------------------------------------------------------------------------
# term equality

#: another class of the same layout, for a one-node mutation
_OTHER = {**helpers._SWITCH, T.Dag: T.Neg, T.Neg: T.Dag, T.Gen: T.GenOp, T.GenOp: T.Gen}


def mutate(rng, t):
    """t with one node changed: given another class of its layout, or, for
    a leaf with a number, that number increased."""
    path = rng.choice(T.positions(t))
    node = helpers.naive_subterm_at(t, path)
    if type(node) is T.Const:
        new = T.Const(T.mirror_head(node.kind))
    else:
        fields = [getattr(node, name) for name in node._fields]
        if type(fields[0]) is int and rng.random() < 0.5:
            new = type(node)(fields[0] + 1, *fields[1:])
        else:
            new = _OTHER[type(node)](*fields)
    return helpers.naive_splice(t, path, new)


def test_term_equality_matches_the_recursive_oracle():
    """On random pairs, rebuilt copies and one-node mutations."""
    rng = random.Random(16)
    sig = T.Signature({"R": (1, 1), "S": (2, 1), "P": (0, 2)})
    seen = {True: 0, False: 0}
    for _ in range(1500):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        t = helpers.random_term(rng, sig, n, m, rng.randint(0, 5))
        others = [helpers.random_term(rng, sig, n, m, rng.randint(0, 2)),
                  helpers.mirror(helpers.mirror(t)), mutate(rng, t), t]
        for u in others:
            same = helpers.naive_equal(t, u)
            assert (t == u) is same and (t != u) is not same and (u == t) is same
            assert not same or hash(t) == hash(u)
            seen[same] += 1
    assert min(seen.values()) > 1000


def test_term_equality_at_any_depth():
    def chain(depth, leaf):
        t = leaf
        for i in range(depth):
            t = T.Dag(t) if i % 3 else T.SeqW(T.IdW(1), t)
        return t

    deep = 100_000
    assert chain(deep, T.Gen("R")) == chain(deep, T.Gen("R"))
    assert chain(deep, T.Gen("R")) != chain(deep, T.GenOp("R"))
    assert chain(deep, T.Gen("R")) != chain(deep - 1, T.Gen("R"))


def test_term_hash_at_any_depth():
    """A 5,000-level chain, deep in both the t and the u children, hashes, and
    an equal chain built apart hashes alike."""
    def chain():
        t = T.Gen("R")
        for i in range(5000):
            t = T.Dag(t) if i % 2 else T.SeqW(T.IdW(1), t)
        return t

    a, b = chain(), chain()
    assert a is not b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# import


def test_import_loads_no_dataclasses_or_inspect():
    """In a fresh interpreter, as the CLI starts."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, diagrel.cli, diagrel.doctrine\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, check=True, text=True).stdout
    assert out == "[]\n"
