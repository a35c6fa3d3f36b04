import random

import pytest
from hypothesis import given, settings

from diagrel import terms as T
from diagrel import finrel as F
from diagrel import rewrite as R

import helpers

PROOF_DIR = __file__.rsplit("/", 2)[0] + "/src/diagrel/proofs"

SIG = T.Signature({"R": (1, 1), "S": (2, 1)})


def test_axiom_db_well_formed():
    db = R.axiom_db()
    assert len(db) == 106
    names = [a.name for a in db]
    assert len(names) == len(set(names))
    assert all(a.kind in ("eq", "le") for a in db)
    families = {a.family for a in db}
    assert {"structural", "cartesian", "cocartesian", "linear", "fo",
            "generator-adjoint"} <= families


def test_arrow_types_are_single_object_variables():
    # `_infer_arrow_types` binds each arrow's type in one pass
    for ax in R.axiom_db():
        for name, dom, cod in ax.arrows:
            for expr in (dom, cod):
                assert len(expr) == 1 and isinstance(expr[0], str), (ax.name, name, expr)


def test_every_axiom_holds_semantically_small():
    for ax in R.axiom_db():
        rep = R.verify_axiom(ax, k=2, trials=25, seed=3)
        assert rep.ok, f"{ax.name}: {rep.counterexample}"


def test_injected_wrong_axiom_is_caught():
    # deliberately false: the white and black copy constants differ at k = 2
    bogus = R.Axiom(
        "bogus-self-test", "structural", "eq",
        R.PConstM("copyw", (("X",),)),
        R.PConstM("copyb", (("X",),)),
    )
    rep = R.verify_axiom(bogus, k=2, trials=25, seed=3)
    assert not rep.ok and rep.counterexample


def test_match_and_instantiate_roundtrip():
    # structural equalities applied l2r then r2l restore the original term
    rng = random.Random(31)
    eq_axioms = [a for a in R.axiom_db() if a.kind == "eq"
                 and a.family == "structural"]
    checked = 0
    for _ in range(300):
        t = T.desugar(helpers.random_term(rng, SIG, rng.randint(0, 2),
                                          rng.randint(0, 2), 3), SIG)
        for pos in T.positions(t):
            for ax in eq_axioms:
                step = R.Step(ax.name, pos, "l2r")
                try:
                    u = R.apply_step(t, step, SIG)
                except R.RewriteError:
                    continue
                try:
                    back = R.apply_step(u, R.Step(ax.name, pos, "r2l"), SIG)
                except R.RewriteError:
                    # e.g. merging two identities loses the split; the reverse
                    # then needs explicit object bindings
                    continue
                assert back == t, ax.name
                checked += 1
    assert checked > 50


def test_macro_patterns_match_their_instances():
    # each arity-indexed pattern recovers its index from the term it builds
    for kind in ("idw", "idb", "copyw", "cocw", "dscw", "codw",
                 "copyb", "cocb", "dscb", "codb"):
        for n in range(4):
            t = R.instantiate(R.PConstM(kind, ((n,),)), {})
            assert R.match_pattern(R.PConstM(kind, (("X",),)), t) == {"X": n}, (kind, n)
    for kind in ("symw", "symb"):
        t = R.instantiate(R.PConstM(kind, ((1,), (2,))), {})
        assert R.match_pattern(R.PConstM(kind, (("X",), ("Y",))), t) == {"X": 1, "Y": 2}


def test_le_axiom_rejects_r2l():
    ax = next(a for a in R.axiom_db() if a.kind == "le")
    with pytest.raises(R.RewriteError):
        R.apply_step(T.IdW(1), R.Step(ax.name, (), "r2l"), SIG)


def test_apply_step_reports_mismatch():
    with pytest.raises(R.RewriteError):
        R.apply_step(T.IdW(1), R.Step("copy-as", (), "l2r"), SIG)
    with pytest.raises(T.InvalidPosition):
        R.apply_step(T.IdW(1), R.Step("copy-as", (0, 0), "l2r"), SIG)
    with pytest.raises(R.RewriteError):
        R.apply_step(T.IdW(1), R.Step("seq-unit-l", (), "bogus-dir"), SIG)
    with pytest.raises(R.RewriteError):
        R.axiom_by_name("no-such-axiom")


def test_parse_proof_and_positions():
    text = """
    # increase id to top
    prove (idw 1) <= (top 1 1)
    step eta-discard at e dir l2r
    qed
    """
    script = R.parse_proof(text, SIG)
    assert script.lhs == T.IdW(1)
    assert len(script.steps) == 1
    assert script.steps[0].position == ()
    v = R.check_proof(script, SIG)
    assert v.accepted, str(v)


def _load(name):
    with open(f"{PROOF_DIR}/{name}") as fh:
        return fh.read()


SHIPPED = ["copy_unit.prf", "discard_adjunction.prf", "meet_top.prf"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_proofs_accepted(name):
    script = R.parse_proof(_load(name), SIG)
    assert R.check_proof(script, SIG).accepted


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_proofs_spotcheck(name):
    script = R.parse_proof(_load(name), SIG)
    ok, counter = R.semantic_spotcheck(script, SIG, trials=50, k=2, seed=1)
    assert ok, counter


def _mutations(script):
    """Single-step mutations: axiom name, position, direction."""
    db_names = [a.name for a in R.axiom_db()]
    for i, step in enumerate(script.steps):
        wrong_axiom = next(n for n in db_names if n != step.axiom)
        yield R.ProofScript(script.lhs, script.rhs, script.steps[:i]
                            + (R.Step(wrong_axiom, step.position, step.direction,
                                      step.bindings),) + script.steps[i + 1:])
        yield R.ProofScript(script.lhs, script.rhs, script.steps[:i]
                            + (R.Step(step.axiom, step.position + (0,),
                                      step.direction, step.bindings),)
                            + script.steps[i + 1:])
        flipped = "r2l" if step.direction == "l2r" else "l2r"
        yield R.ProofScript(script.lhs, script.rhs, script.steps[:i]
                            + (R.Step(step.axiom, step.position, flipped,
                                      step.bindings),) + script.steps[i + 1:])


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_proof_mutations_rejected(name):
    script = R.parse_proof(_load(name), SIG)
    for mutant in _mutations(script):
        assert not R.check_proof(mutant, SIG).accepted


def test_check_proof_rejects_wrong_goal():
    text = "prove (idw 1) <= (bot 1 1)\nstep eta-discard at e dir l2r\nqed\n"
    script = R.parse_proof(text, SIG)
    v = R.check_proof(script, SIG)
    assert not v.accepted and "goal" in v.reason


def test_spotcheck_flags_false_claim():
    text = "prove (top 1 1) <= (idw 1)\nqed\n"
    script = R.parse_proof(text, SIG)
    ok, counter = R.semantic_spotcheck(script, SIG, trials=20, k=2, seed=0)
    assert not ok and counter is not None


def test_verify_axioms_deterministic():
    reps1 = R.verify_axioms(k=2, trials=5, seed=12)
    reps2 = R.verify_axioms(k=2, trials=5, seed=12)
    assert reps1 == reps2
    fam = R.verify_axioms(k=2, trials=5, seed=12, family="linear")
    assert all(r.family == "linear" for r in fam) and fam


# --- spiders ---------------------------------------------------------------


def test_spider_normalize_identity_and_sym():
    f = R.spider_normalize(T.IdW(2), SIG)
    assert (f.n, f.m, f.colour) == (2, 2, "w")
    assert f.partition == frozenset({frozenset({"in0", "out0"}),
                                     frozenset({"in1", "out1"})})
    g = R.spider_normalize(T.SymW(1, 1), SIG)
    assert g.partition == frozenset({frozenset({"in0", "out1"}),
                                     frozenset({"in1", "out0"})})


def test_spider_normalize_frobenius_shapes():
    # S-shaped and Z-shaped one-dot-each composites normalize identically
    s = T.SeqW(T.TensW(T.IdW(1), T.Const("copyw")),
               T.TensW(T.Const("cocw"), T.IdW(1)))
    z = T.SeqW(T.TensW(T.Const("copyw"), T.IdW(1)),
               T.TensW(T.IdW(1), T.Const("cocw")))
    bowtie = T.SeqW(T.Const("cocw"), T.Const("copyw"))
    assert R.spider_normalize(s, SIG) == R.spider_normalize(z, SIG)
    assert R.spider_normalize(s, SIG) == R.spider_normalize(bowtie, SIG)
    # special law: copy ; cocopy = id
    special = T.SeqW(T.Const("copyw"), T.Const("cocw"))
    assert R.spider_normalize(special, SIG) == R.spider_normalize(T.IdW(1), SIG)


def test_spider_closed_components_tracked_but_ignored_in_equality():
    circle = T.SeqW(T.Const("codw"), T.Const("dscw"))
    f = R.spider_normalize(circle, SIG)
    assert f.closed == 1 and f.n == 0 and f.m == 0
    assert f == R.spider_normalize(T.IdW(0), SIG)


def test_spider_rejects_mixed_and_foreign():
    with pytest.raises(R.SpiderError):
        R.spider_normalize(T.SeqW(T.Const("copyw"), T.Const("cocb")), SIG)
    with pytest.raises(R.SpiderError) as e:
        R.spider_normalize(T.SeqW(T.Gen("R"), T.Gen("R")), SIG)
    assert "gen" in str(e.value)


def test_spider_relation_black_is_complement_of_white():
    wf = R.spider_normalize(T.Const("copyw"), SIG)
    bf = R.spider_normalize(T.Const("copyb"), SIG)
    for k in (1, 2, 3):
        assert F.equal(R.spider_relation(bf, k),
                       F.complement(R.spider_relation(wf, k)))


def test_connected_spiders_eval_to_all_equal_relation():
    rng = random.Random(5)
    interp = F.Interpretation(SIG, 3, {
        name: helpers.random_relation(rng, 3, n, m)
        for name, (n, m) in SIG.generators.items()})
    for _ in range(100):
        t, n, m = helpers.random_connected_white(rng)
        form = R.spider_normalize(t, SIG)
        assert (form.n, form.m) == (n, m)
        assert len(form.partition) == 1 or n + m == 0
        assert F.equal(F.evaluate(t, interp), R.spider_relation(form, 3))


def test_spider_equality_matches_semantics():
    rng = random.Random(6)
    interp = F.Interpretation(SIG, 3, {
        name: helpers.random_relation(rng, 3, n, m)
        for name, (n, m) in SIG.generators.items()})
    agree = 0
    for _ in range(150):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        a = helpers.random_white_fragment(rng, n, m, 3)
        b = helpers.random_white_fragment(rng, n, m, 3)
        same_form = R.spider_normalize(a, SIG) == R.spider_normalize(b, SIG)
        same_sem = F.equal(F.evaluate(a, interp), F.evaluate(b, interp))
        assert same_form == same_sem
        agree += same_form
    assert agree  # at least some coincidences so the test has teeth


def test_spider_relation_at_carrier_zero_counts_closed_components():
    interp = F.Interpretation(SIG, 0, {
        name: F.FinRelation.empty(0, n, m)
        for name, (n, m) in SIG.generators.items()})
    white = T.SeqW(T.Const("codw"), T.Const("dscw"))
    black = T.SeqB(T.Const("codb"), T.Const("dscb"))
    for t, bits in ((white, 0), (black, 1)):
        assert F.evaluate(t, interp).bits == bits
        assert R.spider_relation(R.spider_normalize(t, SIG), 0).bits == bits
    # without closed components the carrier-0 relation is unchanged
    assert R.spider_relation(R.spider_normalize(T.IdW(0), SIG), 0).bits == 1


def test_spider_relation_matches_evaluation_small_carriers():
    rng = random.Random(12)
    for k in (0, 1, 2):
        interp = F.Interpretation(SIG, k, {
            name: helpers.random_relation(rng, k, n, m)
            for name, (n, m) in SIG.generators.items()})
        for _ in range(60):
            n, m = rng.randint(0, 2), rng.randint(0, 2)
            t = helpers.random_white_fragment(rng, n, m, 3)
            form = R.spider_normalize(t, SIG)
            assert F.equal(F.evaluate(t, interp), R.spider_relation(form, k))
            neg = T.desugar(T.Neg(t), SIG)
            assert F.equal(F.evaluate(neg, interp),
                           R.spider_relation(R.spider_normalize(neg, SIG), k))


# --- proof scripts: parser messages, replay oracle, work count --------------


PROVE = "prove (idw 1) <= (idw 1)\n"


@pytest.mark.parametrize("text, message", [
    (PROVE + "step\nqed\n", "2:1: step needs an axiom name"),
    (PROVE + "step seq-unit-l\nqed\n", "2:1: step needs an axiom name"),
    (PROVE + "step seq-unit-l e dir l2r\nqed\n", "2:1: expected `at POSITION`"),
    (PROVE + "step seq-unit-l at e\nqed\n", "2:1: expected `dir l2r|r2l`"),
    (PROVE + "step seq-unit-l at dir l2r\nqed\n", "2:1: expected `dir l2r|r2l`"),
    (PROVE + "step seq-unit-l at e\tdir l2r\nqed\n", "2:1: expected `dir l2r|r2l`"),
    (PROVE + "step seq-unit-l at e dir up\nqed\n", "2:1: bad direction 'up'"),
    (PROVE + "step seq-unit-l at e dir l2r withX=1\nqed\n",
     "2:1: bad direction 'l2r withX=1'"),
    (PROVE + "step seq-unit-l at e dir with X=1\nqed\n", "2:1: bad direction 'with X=1'"),
    (PROVE + "step seq-unit-l at e dir  with X=1\nqed\n", "2:1: bad direction 'with X=1'"),
    (PROVE + "step seq-unit-l at 0.x dir l2r\nqed\n", "bad position '0.x'"),
    ("step seq-unit-l at e dir l2r\n" + PROVE + "qed\n", "1:1: step before prove"),
    (PROVE + "qed\nstep seq-unit-l at e dir l2r\n", "3:1: content after qed"),
    (PROVE + "frobnicate\nqed\n", "2:1: unrecognized line 'frobnicate'"),
])
def test_parse_proof_error_messages(text, message):
    with pytest.raises(T.ParseError) as e:
        R.parse_proof(text, SIG)
    assert str(e.value) == message


@pytest.mark.parametrize("line, step", [
    ("step seq-unit-l at e dir l2r", R.Step("seq-unit-l", (), "l2r")),
    ("step seq-unit-l at ε dir r2l", R.Step("seq-unit-l", (), "r2l")),
    ("step  tens-assoc-b   at  0.1.0  dir  r2l", R.Step("tens-assoc-b", (0, 1, 0), "r2l")),
    ("step seq-unit-l at 1 dir r2l with", R.Step("seq-unit-l", (1,), "r2l")),
    ("step seq-unit-l at 1 dir r2l with X=1 a=(gen R)",
     R.Step("seq-unit-l", (1,), "r2l", (("X", 1), ("a", T.Gen("R"))))),
    ("step seq-unit-l at 1 dir r2l  with  r=R a=copyw # note",
     R.Step("seq-unit-l", (1,), "r2l", (("r", "R"), ("a", T.Const("copyw"))))),
])
def test_parse_proof_step_lines(line, step):
    assert R.parse_proof(PROVE + line + "\nqed\n", SIG).steps == (step,)


@pytest.mark.parametrize("binding", ["X=(gen R)", "X=R", "X=²"])
def test_object_binding_must_be_a_number(binding):
    script = R.parse_proof(
        PROVE + f"step seq-unit-l at e dir r2l with {binding}\nqed\n", SIG)
    verdict = R.check_proof(script, SIG)
    assert verdict == helpers.naive_check_proof(script, SIG)
    assert (verdict.step_index, verdict.reason) == (
        0, "object metavariable 'X' must be bound to a number")


def _chain_mutants(rng, start, goal, steps):
    """The chain itself, then one mutant of each kind: the last step dropped,
    a step at a wrong position, an inequality applied right to left, and an
    identity grown and removed again at the end with a `with` binding of the
    right and of a wrong object size."""
    yield R.ProofScript(start, goal, steps)
    yield R.ProofScript(start, goal, steps[:-1])
    i = rng.randrange(len(steps))
    moved = R.Step(steps[i].axiom, rng.choice([(0,), (1,), (0, 1), (1, 0, 0), (2,)]),
                   steps[i].direction)
    yield R.ProofScript(start, goal, steps[:i] + (moved,) + steps[i + 1:])
    downward = R.Step(rng.choice(["eta-copy", "delta-l", "gen-tau"]), (), "r2l")
    yield R.ProofScript(start, goal, steps[:i] + (downward,) + steps[i:])
    n, _ = T.typecheck(goal, SIG)
    for size in (n, n + 1):  # the right size is accepted, the wrong one not
        grow = R.Step("seq-unit-l", (), "r2l", (("X", size),))
        yield R.ProofScript(start, goal, steps + (grow, R.Step("seq-unit-l", (), "l2r")))


def test_check_proof_matches_naive_replay():
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        start, goal, steps = helpers.random_chain(rng, SIG, rng.randint(2, 60))
        for script in _chain_mutants(rng, start, goal, steps):
            verdict = R.check_proof(script, SIG)
            assert verdict == helpers.naive_check_proof(script, SIG), (seed, script)
            outcomes.add(verdict.reason.split(" ")[0] if verdict.reason else "ok")
    # every kind of outcome occurs, so the comparison has teeth
    assert {"ok", "final", "axiom", "arrow"} <= outcomes, outcomes


def test_check_proof_types_each_node_about_once(monkeypatch):
    rng = random.Random(2024)
    start, goal, steps = helpers.random_chain(rng, SIG, 400)
    calls = 0
    typecheck = T.typecheck

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return typecheck(*args, **kwargs)

    # terms.typecheck recurses through its module-level name, so every node
    # visit is counted
    monkeypatch.setattr(T, "typecheck", counting)
    monkeypatch.setattr(R, "typecheck", counting)
    assert R.check_proof(R.ProofScript(start, goal, steps), SIG).accepted
    assert calls <= 10 * (helpers.term_size(start) + len(steps)), calls


@settings(max_examples=400, deadline=None)
@given(helpers.proof_text())
def test_parse_and_check_proof_fuzz(text):
    """Any text parses to a script or raises a DiagrelError; any parsed
    script gets a verdict."""
    try:
        script = R.parse_proof(text, SIG)
    except T.DiagrelError:
        return
    assert isinstance(script, R.ProofScript)
    assert isinstance(R.check_proof(script, SIG), R.Verdict)
