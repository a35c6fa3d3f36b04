import hashlib
import random
import re

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


def test_axiom_db_is_pinned():
    """Every axiom, field by field and in order; the digest does not depend
    on the hash seed."""
    digest = hashlib.sha256(repr(R.axiom_db()).encode()).hexdigest()
    assert digest == "27b794611694455055d489b3dca85071539998904dddb79559ac3db20605179b"


def _switch(p):
    """A pattern's colour switch: the last letter of every head flipped."""
    if isinstance(p, R.PBin):
        return R.PBin(p.op[:-1] + {"w": "b", "b": "w"}[p.op[-1]], _switch(p.l), _switch(p.r))
    if isinstance(p, R.PConstM):
        return R.PConstM(p.kind[:-1] + {"w": "b", "b": "w"}[p.kind[-1]], p.objs)
    return p


def test_colour_switch_maps_the_database_onto_itself():
    """Each axiom's colour switch, with the sides of an inequality swapped,
    is another axiom, in the mirror family."""
    db = R.axiom_db()
    by_statement = {(ax.kind, ax.lhs, ax.rhs, ax.arrows): ax for ax in db}
    assert len(by_statement) == len(db)
    mirror_family = {"cartesian": "cocartesian", "cocartesian": "cartesian"}
    images = set()
    for ax in db:
        lhs, rhs = _switch(ax.lhs), _switch(ax.rhs)
        if ax.kind == "le":
            lhs, rhs = rhs, lhs
        mirror = by_statement.get((ax.kind, lhs, rhs, ax.arrows))
        assert mirror is not None, ax.name
        assert mirror.family == mirror_family.get(ax.family, ax.family), ax.name
        images.add(mirror.name)
    assert len(images) == len(db)


def test_arrow_types_are_single_object_variables():
    # `apply_step` binds each arrow's type in one pass
    for ax in R.axiom_db():
        for name, dom, cod in ax.arrows:
            for expr in (dom, cod):
                assert len(expr) == 1 and isinstance(expr[0], str), (ax.name, name, expr)


def test_every_axiom_holds_semantically_small():
    for ax in R.axiom_db():
        rep = R.verify_axiom(ax, k=2, trials=25, seed=3)
        assert rep.ok, f"{ax.name}: {rep.counterexample}"


# deliberately false: the white and black copy constants differ at k = 2
BOGUS = R.Axiom(
    "bogus-self-test", "structural", "eq",
    R.PConstM("copyw", (("X",),)),
    R.PConstM("copyb", (("X",),)),
    (),
)
# false too, and fails on some interpretations of its arrow only
BOGUS_ARROW = R.Axiom(
    "bogus-arrow", "structural", "le",
    R.PBin("seqw", R.PVar("a"), R.PConstM("copyw", (("Y",),))),
    R.PBin("seqw", R.PVar("a"), R.PConstM("copyb", (("Y",),))),
    (("a", ("X",), ("Y",)),),
)


def test_injected_wrong_axiom_is_caught():
    rep = R.verify_axiom(BOGUS, k=2, trials=25, seed=3)
    assert not rep.ok and rep.counterexample


@pytest.mark.parametrize("k,seeds", [(0, (0, 7, 11)), (1, (0, 7, 11)), (2, (0, 7, 11)),
                                     (3, (1,))])
@pytest.mark.parametrize("trials", [0, 1, 37])
def test_verify_axioms_match_naive_oracle(k, seeds, trials):
    """Memoized instances give the reports of a fresh instance per trial,
    counterexample strings included."""
    axioms = R.axiom_db() + [BOGUS, BOGUS_ARROW]
    for seed in seeds:
        got = [R.verify_axiom(ax, k=k, trials=trials, seed=seed) for ax in axioms]
        want = [helpers.naive_verify_axiom(ax, k=k, trials=trials, seed=seed)
                for ax in axioms]
        assert got == want
        if k >= 2 and trials == 37:
            assert not got[-1].ok and not got[-2].ok


def test_verify_axioms_compile_each_distinct_draw_vector_once(monkeypatch):
    """Each axiom constructs one `finrel.Program` per distinct vector of drawn
    object and generator arities, not one per trial, and compiles it from the
    axiom's patterns without typechecking an instance."""
    k, trials, seed = 2, 60, 5
    distinct = 0
    for ax in R.axiom_db():
        rng = random.Random((ax.name, k, seed).__repr__())
        objs = sorted(ax.variables()[0])
        seen = set()
        for _ in range(trials):
            sig, _, _, binding = helpers.naive_instance(ax, rng)
            helpers.random_interpretation(sig, k, rng)
            seen.add((tuple(binding[v] for v in objs), tuple(sorted(sig.generators.items()))))
        distinct += len(seen)
    init, built = F.Program.__init__, []
    monkeypatch.setattr(F.Program, "__init__",
                        lambda prog, *args: built.append(prog) or init(prog, *args))
    typed = helpers.count_calls(monkeypatch, T, "typecheck")
    R.verify_axioms(k=k, trials=trials, seed=seed)
    assert len(built) == distinct < trials * len(R.axiom_db()) // 2
    assert typed == [0]


def test_verify_axioms_build_one_signature_per_distinct_draw_vector(monkeypatch):
    """`_instance` builds one `Signature` per program; an arrow type that names
    a generator metavariable's arity is evaluated against the arity drawn."""
    sig_init, prog_init, sigs, progs = T.Signature.__init__, F.Program.__init__, [], []
    monkeypatch.setattr(T.Signature, "__init__",
                        lambda sig, *args: sigs.append(sig) or sig_init(sig, *args))
    monkeypatch.setattr(F.Program, "__init__",
                        lambda prog, *args: progs.append(prog) or prog_init(prog, *args))
    R.verify_axioms(k=2, trials=60, seed=5)
    assert len(sigs) == len(progs) > 0
    monkeypatch.undo()
    lhs, rhs = (R._pattern(T.read_sexpr(list(T.tokenize(text)), 0)[0])
                for text in ("(seqw (idw (dom r)) a)", "a"))
    axiom = R.Axiom("unit-at-dom", "test", "eq", lhs, rhs, (("a", (("dom", "r"),), ("X",)),))
    assert axiom.variables() == ({"X"}, {"a"}, {"r"})
    sig, binding = R._instance(axiom, ["X"], ["r"], (1, 2, 0))
    assert sig.generators == {"~r": (2, 0), "~a": (2, 1)}
    assert binding == {"X": 1, "r": "~r", "a": T.Gen("~a")}
    assert R.verify_axiom(axiom, k=2, trials=20).ok


def test_verification_evaluates_through_the_typed_entry_only(monkeypatch):
    """Instances are compiled from the axiom's patterns into programs, so no
    trial calls the checked `evaluate`."""
    calls = helpers.count_calls(monkeypatch, F, "evaluate")
    R.verify_axioms(k=2, trials=13, seed=0)
    assert calls == [0]


def test_verify_axiom_draws_through_the_program_once_per_trial(monkeypatch):
    """seq-assoc has arrow metavariables, so each trial draws generators;
    copy-as has none, so each of its programs holds its checks alone and
    drawing for it takes no random bits."""
    draw, drawn = F.Program.draw, []
    monkeypatch.setattr(F.Program, "draw", lambda prog, rng: drawn.append(prog) or draw(prog, rng))
    R.verify_axiom(R.axiom_by_name("seq-assoc"), k=2, trials=50, seed=0)
    assert len(drawn) == 50
    drawn.clear()
    R.verify_axiom(R.axiom_by_name("copy-as"), k=2, trials=50, seed=0)
    assert len(drawn) == 50 and 0 < len({id(prog) for prog in drawn}) <= 3
    assert all(not prog.names and op is None for prog in drawn for op, *_ in prog.code)


def test_negative_trials_are_rejected():
    script = R.parse_proof("prove (idw 1) <= (top 1 1)\nqed\n", SIG)
    with pytest.raises(T.DiagrelError, match="trials must be non-negative"):
        R.verify_axiom(BOGUS, trials=-1)
    with pytest.raises(T.DiagrelError, match="trials must be non-negative"):
        R.semantic_spotcheck(script, SIG, trials=-3)
    assert R.verify_axiom(BOGUS, trials=0) == R.AxiomReport(BOGUS.name, BOGUS.family, 0, 0, "")
    assert R.semantic_spotcheck(script, SIG, trials=0) == (True, None)


def test_match_and_instantiate_roundtrip():
    # structural equalities applied l2r then r2l restore the original term
    rng = random.Random(31)
    eq_axioms = [a for a in R.axiom_db() if a.kind == "eq"
                 and a.family == "structural"]
    checked = 0
    for _ in range(300):
        t = T.desugar(helpers.random_term(rng, SIG, rng.randint(0, 2),
                                          rng.randint(0, 2), 3), SIG)
        for pos in helpers.positions(t):
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


def test_spotcheck_evaluates_through_the_typed_entry_only(monkeypatch):
    """The claim is typed once, so no trial calls the checked `evaluate`."""
    script = R.parse_proof(_load("meet_top.prf"), SIG)
    calls = helpers.count_calls(monkeypatch, F, "evaluate")
    assert R.semantic_spotcheck(script, SIG, trials=50, k=2, seed=1) == (True, None)
    assert calls == [0]


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


@pytest.mark.parametrize("claim, reason", [
    ("(idw 1) <= (idw 2)", "claim types differ: (1, 1) vs (2, 2)"),
    ("(seqw (idw 1) (idw 2)) <= (idw 1)", "claim does not typecheck: at ε: cod 1 ≠ dom 2"),
])
def test_check_proof_refuses_an_ill_typed_claim(claim, reason):
    script = R.parse_proof(f"prove {claim}\nqed\n", SIG)
    assert R.check_proof(script, SIG) == R.Verdict(False, -1, reason)


@pytest.mark.parametrize("claim, types", [
    ("(idw 1) <= (top 2 2)", "(1, 1) vs (2, 2)"),
    ("(gen R) <= (top 1 2)", "(1, 1) vs (1, 2)"),
    ("(idw 1) <= (idw 2)", "(1, 1) vs (2, 2)"),
])
def test_spotcheck_refuses_sides_of_different_types(claim, types):
    """`check_proof` refuses such a claim first; the spotcheck, called alone,
    refuses it with the wording of `Program.check`, also with no trials to run."""
    script = R.parse_proof(f"prove {claim}\nqed\n", SIG)
    for trials in (5, 0):
        with pytest.raises(T.DiagrelError, match=re.escape(f"sides typed {types}")):
            R.semantic_spotcheck(script, SIG, trials=trials, k=2, seed=0)


def test_spotcheck_countermodel_reads_back_a_signature_out_of_name_order():
    """The countermodel is the first oracle draw the claim fails in, re-evaluated
    by the recursive evaluator, and gives the witness the spotcheck returned."""
    sig = T.Signature.parse("sig S : 2 -> 1\nsig R : 1 -> 1\n")
    script = R.parse_proof("prove (seqw (gen S) (gen R)) <= (gen S)\nqed\n", sig)
    for seed in range(5):
        ok, (interp, witness) = R.semantic_spotcheck(script, sig, trials=50, k=2, seed=seed)
        rng, want = random.Random(seed), None
        while want is None:
            model = helpers.random_interpretation(sig, 2, rng)
            want = F.inclusion_witness(*(helpers.naive_evaluate(t, model)
                                         for t in (script.lhs, script.rhs)))
        assert (ok, interp, witness) == (False, model, want)


def test_verify_axioms_deterministic():
    reps1 = R.verify_axioms(k=2, trials=5, seed=12)
    reps2 = R.verify_axioms(k=2, trials=5, seed=12)
    assert reps1 == reps2
    fam = R.verify_axioms(k=2, trials=5, seed=12, family="linear")
    assert all(r.family == "linear" for r in fam) and fam


def test_verify_axioms_refuses_an_unknown_family():
    with pytest.raises(T.DiagrelError) as e:
        R.verify_axioms(trials=1, family="bogus")
    assert str(e.value) == (
        "unknown family 'bogus'; known families: %s" % ", ".join(
            dict.fromkeys(ax.family for ax in R.axiom_db())))


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


@pytest.mark.parametrize("text, message", [
    ("(dag (gen R))", "outside Frobenius fragment: (gen R) at 1.0.1.0"),
    ("(tensw (idb 1) (gen R))", "outside Frobenius fragment: (gen R) at 1"),
    ("(seqw (top 1 0) (bot 0 1))", "mixed colours: term outside either Frobenius fragment"),
])
def test_spider_error_messages(text, message):
    with pytest.raises(R.SpiderError) as e:
        R.spider_normalize(T.parse_term(text, SIG), SIG)
    assert str(e.value) == message


def _spider_outcome(t):
    try:
        return R.spider_normalize(t, SIG).colour
    except R.SpiderError as e:
        return str(e)


def test_spider_reports_as_the_pre_order_scan():
    """Random terms, negated or not, in the fragment or not: the colour or
    the message is the one of a pre-order scan of the desugared term."""
    rng = random.Random(13)
    for i in range(400):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        t = (helpers.random_term(rng, SIG, n, m, 3) if i % 2
             else helpers.random_white_fragment(rng, n, m, 3))
        if rng.random() < 0.5:
            t = T.Neg(t)
        assert _spider_outcome(t) == helpers.naive_fragment_colour(T.desugar(t, SIG))


def test_spider_relation_black_is_complement_of_white():
    wf = R.spider_normalize(T.Const("copyw"), SIG)
    bf = R.spider_normalize(T.Const("copyb"), SIG)
    for k in (1, 2, 3):
        assert F.equal(helpers.spider_relation(bf, k),
                       F.complement(helpers.spider_relation(wf, k)))


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
        assert F.equal(F.evaluate(t, interp), helpers.spider_relation(form, 3))


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
        name: F.FinRelation(0, n, m, 0)
        for name, (n, m) in SIG.generators.items()})
    white = T.SeqW(T.Const("codw"), T.Const("dscw"))
    black = T.SeqB(T.Const("codb"), T.Const("dscb"))
    for t, bits in ((white, 0), (black, 1)):
        assert F.evaluate(t, interp).bits == bits
        assert helpers.spider_relation(R.spider_normalize(t, SIG), 0).bits == bits
    # without closed components the carrier-0 relation is unchanged
    assert helpers.spider_relation(R.spider_normalize(T.IdW(0), SIG), 0).bits == 1


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
            assert F.equal(F.evaluate(t, interp), helpers.spider_relation(form, k))
            neg = T.desugar(T.Neg(t), SIG)
            assert F.equal(F.evaluate(neg, interp),
                           helpers.spider_relation(R.spider_normalize(neg, SIG), k))


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


@pytest.mark.parametrize("claim, binding, reason", [
    ("(idw 1) <= (seqb (gen R) (genop R))", "r=(gen R)",
     "generator metavariable 'r' must be bound to a generator"),
    ("(idw 1) <= (seqb (gen R) (genop R))", "r=1",
     "generator metavariable 'r' must be bound to a generator"),
    ("(idw 1) <= (idw 1)", "a=R", "arrow metavariable 'a' must be bound to a term"),
    ("(idw 1) <= (idw 1)", "a=3", "arrow metavariable 'a' must be bound to a term"),
])
def test_binding_of_the_wrong_kind_is_named(claim, binding, reason):
    axiom = "gen-tau at e dir l2r" if binding[0] == "r" else "seq-unit-l at e dir r2l"
    script = R.parse_proof(f"prove {claim}\nstep {axiom} with {binding}\nqed\n", SIG)
    verdict = R.check_proof(script, SIG)
    assert verdict == helpers.naive_check_proof(script, SIG)
    assert (verdict.step_index, verdict.reason) == (0, reason)


def test_bindings_of_the_right_kind_still_apply():
    for claim, step in (("(idw 1) <= (seqb (gen R) (genop R))", "gen-tau at e dir l2r with r=R"),
                        ("(gen R) <= (seqw (idw 1) (gen R))",
                         "seq-unit-l at e dir r2l with a=(gen R)")):
        script = R.parse_proof(f"prove {claim}\nstep {step}\nqed\n", SIG)
        assert R.check_proof(script, SIG).accepted, step


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


def test_a_rewritten_root_is_typed_from_its_own_slot(monkeypatch):
    """Each node `apply_step` rebuilds on the spine keeps the type under the
    signature of the node it replaces, so the new root is typed in one call."""
    t = T.parse_term("(tensw (gen S) (seqw (idw 1) (gen R)))", SIG)
    assert T.typecheck(t, SIG) == (3, 2)
    new = R.apply_step(t, R.Step("seq-unit-l", (1,), "l2r"), SIG)
    assert new == T.parse_term("(tensw (gen S) (gen R))", SIG)
    calls = helpers.count_calls(monkeypatch, T, "typecheck")
    assert T.typecheck(new, SIG) == (3, 2)
    assert calls == [1]


def test_a_rebuilt_node_keeps_no_type_held_under_another_signature():
    """Under s2 the replacement does not typecheck, though the node it
    replaces did; the rebuilt root is typed afresh there."""
    s2 = T.Signature({"R": (2, 2)})
    t = T.Dag(T.Gen("R"))
    assert T.typecheck(t, s2) == (2, 2)
    new = R.apply_step(t, R.Step("seq-unit-l", (0,), "r2l"), SIG)
    assert new == T.parse_term("(dag (seqw (idw 1) (gen R)))", SIG)
    with pytest.raises(T.TypeMismatch, match="at 0: cod 1 ≠ dom 2"):
        T.typecheck(new, s2)


SYMMETRY_PROOFS = ("""
prove (seqw (symw 1 1) (tensw (idw 1) (gen R))) <= (seqw (symw 1 1) (tensw (idw 1) (gen R)))
step sym-nat at e dir r2l
step sym-nat at e dir l2r
qed
""", """
prove (seqw (symw 1 1) (symw 1 1)) <= (idw 2)
step sym-inv at e dir l2r
step sym-unit-l at e dir r2l
step sym-unit-l at e dir l2r
step sym-unit-r at e dir r2l
step sym-unit-r at e dir l2r
qed
""")


def test_check_proof_matches_units_without_building_them(monkeypatch):
    """Unit, identity, symmetry and associativity steps match on the nodes'
    own arities: the replay builds no pattern instance to compare with and
    solves no object expression through the generic solver."""
    rng = random.Random(2024)
    start, goal, steps = helpers.random_chain(rng, SIG, 400)
    symmetry = [R.parse_proof(text, SIG) for text in SYMMETRY_PROOFS]
    calls = [helpers.count_calls(monkeypatch, R, name)
             for name in ("instantiate", "_solve_expr")]
    assert R.check_proof(R.ProofScript(start, goal, steps), SIG).accepted
    assert all(R.check_proof(script, SIG).accepted for script in symmetry)
    assert calls == [[0], [0]]


def _outcome(fn, *args):
    """What a call returns, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except T.DiagrelError as e:
        return type(e), str(e)


def _in_context(rng, sig, t):
    """t wrapped in up to three random binary nodes, each beside a desugared
    `helpers.random_term`; returns the term and the position of t in it."""
    n, m = T.typecheck(t, sig)
    pos = ()
    for _ in range(rng.randint(0, 3)):
        cls = rng.choice([T.SeqW, T.SeqB, T.TensW, T.TensB])
        j, k = rng.randint(0, 2), rng.randint(0, 2)
        left = rng.random() < 0.5
        if cls in (T.SeqW, T.SeqB):
            ty = (j, n) if left else (m, j)
            n, m = (j, m) if left else (n, j)
        else:
            ty = (j, k)
            n, m = n + j, m + k
        other = T.desugar(helpers.random_term(rng, sig, *ty, 1), sig)
        t, pos = (cls(other, t), (1,) + pos) if left else (cls(t, other), (0,) + pos)
    return t, pos


def _binding_variants(rng, axiom, binding):
    """No `with` bindings, the instance's own, a random part of them, and
    bindings of a wrong kind, an unknown generator or a shifted arity."""
    objs, arrows, gens = axiom.variables()
    own = tuple(sorted(binding.items()))
    yield ()
    yield own
    yield tuple(kv for kv in own if rng.random() < 0.5)
    for name in sorted(objs):
        yield ((name, binding[name] + 1),)
        yield ((name, rng.choice([T.IdW(1), "R"])),)
    for name in sorted(arrows):
        yield ((name, rng.choice([2, "R"])),)
    for name in sorted(gens):
        yield ((name, "Q"),)
        yield ((name, rng.choice([T.Gen("R"), 1])),)


@pytest.mark.parametrize("axiom", R.axiom_db(), ids=lambda ax: ax.name)
def test_apply_step_matches_naive_on_every_axiom(axiom):
    """Instances of each axiom side, built as `verify_axiom` builds them at
    arities 0..3, placed in random contexts: `apply_step` agrees with the
    interpretive replay at the instance and at other positions, for each
    direction and binding variant, and `match_pattern`/`instantiate` agree
    with their interpretive oracles on both sides."""
    rng = random.Random(axiom.name)
    objs, _, gens = axiom.variables()
    objs, gens = sorted(objs), sorted(gens)
    applied = 0
    for _ in range(4):
        draws = tuple(rng.randint(0, 3) for _ in range(len(objs) + 2 * len(gens)))
        inst_sig, binding = R._instance(axiom, objs, gens, draws)
        lhs, rhs = (R.instantiate(side, binding, inst_sig) for side in (axiom.lhs, axiom.rhs))
        sig = T.Signature({**SIG.generators, **inst_sig.generators})
        for side, inst in ((axiom.lhs, lhs), (axiom.rhs, rhs)):
            assert inst == helpers.naive_instantiate(side, binding, sig)
            part = {v: x for v, x in binding.items() if rng.random() < 0.5}
            assert _outcome(R.instantiate, side, part, sig) \
                == _outcome(helpers.naive_instantiate, side, part, sig)
        for direction, (src, dst) in (("l2r", (lhs, rhs)), ("r2l", (rhs, lhs))):
            t, pos = _in_context(rng, sig, src)
            elsewhere = rng.sample(helpers.positions(t), min(3, len(helpers.positions(t))))
            side = axiom.lhs if direction == "l2r" else axiom.rhs
            part = {v: x for v, x in binding.items() if rng.random() < 0.5}
            for at in [pos] + elsewhere:
                sub = helpers.naive_subterm_at(t, at)
                for b in ({}, part):
                    assert _outcome(R.match_pattern, side, sub, sig, b) \
                        == _outcome(helpers.naive_match_pattern, side, sub, sig, b)
            for bindings in _binding_variants(rng, axiom, binding):
                for at in [pos] + elsewhere:
                    step = R.Step(axiom.name, at, direction, bindings)
                    got = _outcome(R.apply_step, t, step, sig)
                    assert got == _outcome(helpers.naive_apply_step, t, step, sig), step
                    applied += isinstance(got, T.Term)
            if direction == "l2r" or axiom.kind == "eq":
                step = R.Step(axiom.name, pos, direction, tuple(binding.items()))
                assert R.apply_step(t, step, sig) == helpers.naive_splice(t, pos, dst)
    assert applied


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
