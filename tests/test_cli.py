import argparse
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diagrel import finrel as F, rewrite as R, terms as T
from diagrel.cli import build_parser, run

import helpers

SIG = "sig R : 1 -> 1\nsig S : 2 -> 1\n"
INTERP = """carrier 2
rel R 1 1 {
  (0 ; 0)
  (0 ; 1)
  (1 ; 1)
}
rel S 2 1 {
  (0 0 ; 0)
}
"""
ORDER = """sig R : 1 -> 1
axiom reflexive : (idw 1) <= (gen R)
axiom transitive : (seqw (gen R) (gen R)) <= (gen R)
axiom antisymmetric : (meet (gen R) (dag (gen R))) <= (idw 1)
axiom total : (top 1 1) <= (join (gen R) (dag (gen R)))
"""


@pytest.fixture
def files(tmp_path):
    sig = tmp_path / "t.sig"
    sig.write_text(SIG)
    interp = tmp_path / "t.interp"
    interp.write_text(INTERP)
    thy = tmp_path / "order.thy"
    thy.write_text(ORDER)
    return {"sig": str(sig), "interp": str(interp), "thy": str(thy),
            "dir": tmp_path}


def test_typecheck_ok(files, capsys):
    assert run(["typecheck", "--sig", files["sig"], "(seqw (gen S) (gen R))"]) == 0
    assert capsys.readouterr().out.strip() == "2 -> 1"


def test_typecheck_term_from_file(files, capsys):
    term = files["dir"] / "t.term"
    term.write_text("(dag (gen S))\n")
    assert run(["typecheck", "--sig", files["sig"], str(term)]) == 0
    assert capsys.readouterr().out.strip() == "1 -> 2"


def test_typecheck_errors_exit_2(files, capsys):
    assert run(["typecheck", "--sig", files["sig"], "(seqw (gen R) (gen S))"]) == 2
    assert run(["typecheck", "--sig", files["sig"], "(((("]) == 2
    assert run(["typecheck", "--sig", "/nonexistent.sig", "(idw 1)"]) == 2
    assert run(["no-such-command"]) == 2


def test_desugar(files, capsys):
    assert run(["desugar", "--sig", files["sig"], "(top 1 1)"]) == 0
    out = capsys.readouterr().out
    assert "dscw" in out and "codw" in out


@pytest.mark.parametrize("term", [
    "(seqw (idw 1) (idw 2))",
    "(dag (seqw (idw 1) (idw 2)))",
    "(tensw (idw 1) (meet (seqw (idw 1) (idw 2)) (idw 1)))",
])
def test_desugar_rejects_an_ill_typed_term_as_typecheck_does(capsys, term):
    """`desugar` types its term by the one `typecheck` pass, so it reports the
    same error at the same position."""
    assert run(["typecheck", term]) == 2
    err = capsys.readouterr().err
    assert run(["desugar", term]) == 2
    assert capsys.readouterr() == ("", err)


def test_eval_prints_relation(files, capsys):
    assert run(["eval", "--sig", files["sig"], "--interp", files["interp"],
                "(gen R)"]) == 0
    out = capsys.readouterr().out
    assert "(0 ; 1)" in out and "(1 ; 0)" not in out


def test_included_types_both_sides_before_evaluating_either(files, capsys, monkeypatch):
    compiled = helpers.count_calls(monkeypatch, F, "Program")
    assert run(["included", "--sig", files["sig"], "--interp", files["interp"],
                "(gen R)", "(gen S)"]) == 2
    assert capsys.readouterr() == ("", "error: sides typed (1, 1) vs (2, 1)\n")
    assert compiled == [0]


def test_eval_requires_interp(files, capsys):
    assert run(["eval", "--sig", files["sig"], "(gen R)"]) == 2


def test_included(files, capsys):
    assert run(["included", "--sig", files["sig"], "--interp", files["interp"],
                "(idw 1)", "(gen R)"]) == 0
    assert "included" in capsys.readouterr().out
    assert run(["included", "--sig", files["sig"], "--interp", files["interp"],
                "(top 1 1)", "(gen R)"]) == 1
    assert "witness" in capsys.readouterr().out


def test_check_model(files, capsys):
    good = files["dir"] / "order.interp"
    good.write_text("carrier 2\nrel R 1 1 {\n  (0 ; 0)\n  (0 ; 1)\n  (1 ; 1)\n}\n")
    assert run(["check-model", files["thy"], "--interp", str(good)]) == 0
    assert capsys.readouterr().out.strip().endswith("model")
    bad = files["dir"] / "bad.interp"
    bad.write_text("carrier 2\nrel R 1 1 {\n}\n")
    assert run(["check-model", files["thy"], "--interp", str(bad),
                "--machine"]) == 1
    out = capsys.readouterr().out
    assert "axiom=reflexive holds=false" in out
    assert out.strip().endswith("not a model")


def test_find_models(files, capsys):
    assert run(["find-models", files["thy"], "--size", "2"]) == 0
    assert "models: 2" in capsys.readouterr().out
    assert run(["find-models", files["thy"], "--size", "2", "--max-space",
                "4"]) == 2  # refused: space 16 exceeds 4


def test_check_proof(files, capsys):
    prf = files["dir"] / "p.prf"
    prf.write_text("prove (idw 1) <= (top 1 1)\nstep eta-discard at e dir l2r\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(prf)]) == 0
    assert "accepted" in capsys.readouterr().out
    assert run(["check-proof", "--sig", files["sig"], str(prf),
                "--spotcheck", "--trials", "20", "--seed", "4"]) == 0
    assert "spotcheck passed" in capsys.readouterr().out
    bad = files["dir"] / "bad.prf"
    bad.write_text("prove (idw 1) <= (top 1 1)\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(bad)]) == 1
    assert "rejected" in capsys.readouterr().out
    bad.write_bytes(b"prove (idw 1) <= \xff\n")
    assert run(["check-proof", "--sig", files["sig"], str(bad)]) == 2
    assert "can't decode" in capsys.readouterr().err


@pytest.mark.parametrize("claim, reason", [
    ("(idw 1) <= (idw 2)", "claim types differ: (1, 1) vs (2, 2)"),
    ("(seqw (idw 1) (idw 2)) <= (idw 1)", "claim does not typecheck: at ε: cod 1 ≠ dom 2"),
])
def test_check_proof_prints_the_refusal_of_an_ill_typed_claim(files, capsys, claim, reason):
    prf = files["dir"] / "claim.prf"
    prf.write_text(f"prove {claim}\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(prf)]) == 1
    assert capsys.readouterr() == (f"rejected at claim: {reason}\n", "")


def test_options_do_not_carry_over_between_runs(files, capsys):
    # the parser is built once per process; each run parses afresh
    prf = files["dir"] / "p.prf"
    prf.write_text("prove (idw 1) <= (top 1 1)\nstep eta-discard at e dir l2r\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(prf), "--spotcheck"]) == 0
    assert "spotcheck passed" in capsys.readouterr().out
    assert run(["check-proof", "--sig", files["sig"], str(prf)]) == 0
    assert "spotcheck" not in capsys.readouterr().out


def test_verify_axioms_and_determinism(files, capsys):
    assert run(["verify-axioms", "--size", "1", "--trials", "3", "--seed", "9",
                "--family", "linear", "--machine"]) == 0
    out1 = capsys.readouterr().out
    assert "failures=0" in out1 and "axiom=" in out1
    assert run(["verify-axioms", "--size", "1", "--trials", "3", "--seed", "9",
                "--family", "linear", "--machine"]) == 0
    assert capsys.readouterr().out == out1


def test_verify_axioms_unknown_family_exits_2(capsys):
    assert run(["verify-axioms", "--trials", "1", "--family", "bogus"]) == 2
    assert capsys.readouterr() == ("", "error: unknown family 'bogus'; known families: "
                                   "structural, cartesian, cocartesian, linear, fo, "
                                   "generator-adjoint\n")


def _plant(monkeypatch, *axioms):
    """Append `axioms` to the axiom database, for one test."""
    db = R._axioms()[0] + axioms
    monkeypatch.setattr(R, "_axioms", lambda: (db, {ax.name: ax for ax in db}))


def test_check_proof_prints_the_spotcheck_countermodel(files, capsys, monkeypatch):
    """A one-step proof by a planted false law is accepted, and the spotcheck
    then finds its countermodel and exits 1."""
    _plant(monkeypatch, R.Axiom("gen-below-genop", "planted", "le",
                                R.PGenVar("r", False), R.PGenVar("r", True), ()))
    prf = files["dir"] / "plant.prf"
    prf.write_text("prove (gen R) <= (genop R)\nstep gen-below-genop at e dir l2r\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(prf), "--spotcheck"]) == 1
    assert capsys.readouterr() == ("accepted\nspotcheck countermodel: ((0,), (0,))\n", "")


def test_verify_axioms_prints_a_counterexample(capsys, monkeypatch):
    """`delta-l` with its sides swapped fails in some trials, and the
    human-readable report names the instance and its witness."""
    delta = R.axiom_by_name("delta-l")
    _plant(monkeypatch, R.Axiom("delta-l-swapped", "planted", "le",
                                delta.rhs, delta.lhs, delta.arrows))
    assert run(["verify-axioms", "--family", "planted", "--trials", "50"]) == 1
    assert capsys.readouterr() == (
        "delta-l-swapped [planted]: 35/50  counterexample: binding={'W': 2, 'X': 1, "
        "'Y': 1, 'Z': 1, 'a': Gen(name='~a'), 'b': Gen(name='~b'), 'c': Gen(name='~c')} "
        "lhs=(seqb (seqw (gen ~a) (gen ~b)) (gen ~c)) "
        "rhs=(seqw (gen ~a) (seqb (gen ~b) (gen ~c))) witness=((1,), (1, 0))\n"
        "axioms: 1  failing: 1\n", "")


def test_verify_axioms_reports_a_law_whose_sides_type_apart(capsys, monkeypatch):
    """A planted law whose sides type apart at every instance fails each trial
    with the refusal as its counterexample, and the run goes on to its summary."""
    _plant(monkeypatch, R.Axiom("gen-below-genop", "planted", "le",
                                R.PGenVar("r", False), R.PGenVar("r", True), ()))
    assert run(["verify-axioms", "--family", "planted", "--trials", "50"]) == 1
    assert capsys.readouterr() == (
        "gen-below-genop [planted]: 6/50  counterexample: binding={'r': '~r'} "
        "lhs=(gen ~r) rhs=(genop ~r) sides typed (1, 2) vs (2, 1)\n"
        "axioms: 1  failing: 1\n", "")


def test_spider(files, capsys):
    assert run(["spider", "(seqw copyw cocw)"]) == 0
    out = capsys.readouterr().out
    assert "colour: white" in out and "1 -> 1" in out
    assert run(["spider", "(gen R)"]) == 2  # outside the fragment, usage error
    assert run(["spider", "--sig", files["sig"],
                "(seqw copyw cocb)"]) == 2  # mixed colours


def test_doctrine_subcommands(capsys):
    assert run(["doctrine", "comprehension", "0", "2", "--size", "3"]) == 0
    out = capsys.readouterr().out
    assert "object size: 2" in out
    # entire functional predicate on 2x2: the identity graph {0, 3}
    assert run(["doctrine", "ruc", "0", "3", "--size", "2"]) == 0
    assert run(["doctrine", "ruc", "0", "--size", "2"]) == 1  # not entire


def test_max_bits_does_not_leak_into_later_runs(tmp_path, capsys):
    sig = tmp_path / "q.sig"
    sig.write_text("sig Q : 2 -> 2\n")
    interp = tmp_path / "q.interp"
    interp.write_text("carrier 3\nrel Q 2 2 {\n  (0 0 ; 1 2)\n}\n")
    args = ["eval", "--sig", str(sig), "--interp", str(interp), "(gen Q)"]
    assert run(args[:1] + ["--max-bits", "16"] + args[1:]) == 2
    assert "exceeds 16 bits" in capsys.readouterr().err
    assert run(args) == 0  # 3^4 = 81 bits under the default guard
    assert "(0 0 ; 1 2)" in capsys.readouterr().out


def test_a_lowered_max_bits_holds_for_cached_constants(tmp_path, capsys):
    """A constant built under the default guard is not handed out, from its
    cache, under a lower one in the same process."""
    interp = tmp_path / "c4.interp"
    interp.write_text("carrier 4\n")
    argv = ["eval", "--interp", str(interp), "(idw 2)"]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--max-bits", "16"]) == 2
    assert capsys.readouterr() == ("", "error: relation space 4^4 exceeds 16 bits\n")


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("term, arity", [
    (f"(idw {helpers.HUGE_NUMERAL})", 2 * int(helpers.HUGE_NUMERAL)),
    (f"(top {helpers.HUGE_NUMERAL} 1)", int(helpers.HUGE_NUMERAL) + 1),
    ("(top 100000000 1)", 100000001),
])
def test_a_huge_arity_at_carriers_0_and_1_exits_2(tmp_path, capsys, k, term, arity):
    """At carriers 0 and 1 a relation's bit count stays small at any arity,
    so the size guard bounds the arity as well."""
    interp = tmp_path / "small.interp"
    interp.write_text(f"carrier {k}\n")
    assert run(["eval", "--interp", str(interp), term]) == 2
    assert capsys.readouterr() == ("", f"error: relation arity {arity} exceeds 1048576\n")


@pytest.mark.parametrize("command, term, arity", [
    ("spider", f"(idw {helpers.HUGE_NUMERAL})", int(helpers.HUGE_NUMERAL)),
    ("spider", f"(symb 1 {helpers.HUGE_NUMERAL})", int(helpers.HUGE_NUMERAL) + 1),
    ("spider", "(tensw (idw 600000) (idw 600000))", 1200000),
    ("desugar", f"(top 0 {helpers.HUGE_NUMERAL})", int(helpers.HUGE_NUMERAL)),
    ("desugar", f"(bot {helpers.HUGE_NUMERAL} 1)", int(helpers.HUGE_NUMERAL)),
    ("desugar", f"(meet (idw {helpers.HUGE_NUMERAL}) (idw {helpers.HUGE_NUMERAL}))",
     int(helpers.HUGE_NUMERAL)),
    ("desugar", f"(dag (symw {helpers.HUGE_NUMERAL} 0))", int(helpers.HUGE_NUMERAL)),
])
def test_a_huge_port_list_or_macro_arity_exits_2(capsys, command, term, arity):
    """No relation guard reaches `spider`'s port lists or the arity-indexed
    macros of `desugar`, so both are bounded by MAX_ARITY themselves."""
    assert run([command, term]) == 2
    assert capsys.readouterr() == ("", f"error: arity {arity} exceeds 1048576\n")


def test_desugar_of_a_huge_identity_prints_it(capsys):
    term = f"(idw {helpers.HUGE_NUMERAL})"
    assert run(["desugar", term]) == 0
    assert capsys.readouterr() == (term + "\n", "")


@pytest.mark.parametrize("term, counts", [
    ("(meet (idw 1500) (idw 1500))", {"copyw": 1500, "cocw": 1500}),
    ("(bot 1500 0)", {"dscb": 1500, "codb": 0}),
    ("(join (idw 400) (idw 400))", {"copyb": 400, "cocb": 400}),
    ("(dag (idw 1200))", {"codw": 1200, "copyw": 1200, "cocw": 1200, "dscw": 1200}),
])
def test_desugar_builds_wide_macros_without_recursion(capsys, term, counts):
    """Each arity-indexed macro is built by a loop, so a wide one costs no
    Python recursion, and it holds one constant per wire."""
    assert run(["desugar", term]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert {kind: len(re.findall(rf"\b{kind}\b", out)) for kind in counts} == counts


@pytest.mark.parametrize("depth, code", [(100, 0), (150, 0), (900, 0), (2000, 2)])
def test_desugar_prints_every_term_desugar_builds(files, capsys, depth, code):
    """Each dag conjugates its body, four output levels deep, so the output is
    the one-dag expansion's text around (gen R), repeated; 2,000 nested dags
    are past the parser."""
    deep = files["dir"] / "deep.term"
    deep.write_text("(dag " * depth + "(gen R)" + ")" * depth)
    assert run(["desugar", "--sig", files["sig"], str(deep)]) == code
    if code:
        assert capsys.readouterr() == ("", "error: term nesting too deep\n")
        return
    one = T.desugar(T.Dag(T.Gen("R")), T.Signature.parse(SIG))
    before, after = helpers.naive_print_term(one).split("(gen R)")
    assert capsys.readouterr() == (before * depth + "(gen R)" + after * depth + "\n", "")


def test_each_shared_option_is_declared_once():
    """Every option but --help, across the subcommands other than doctrine
    (whose --size is its own), is one argparse Action: one holder parser owns
    it, and each subcommand that takes it adds that same Action."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {}
    for name, parser in sub.choices.items():
        if name != "doctrine":
            for action in parser._actions:
                for option in action.option_strings:
                    if option not in ("-h", "--help"):
                        actions.setdefault(option, set()).add(id(action))
    assert "--trials" in actions and "--sig" in actions
    assert sorted(opt for opt, ids in actions.items() if len(ids) > 1) == []


def test_shared_options_keep_each_subcommand_default():
    parse = build_parser().parse_args
    proof, axioms = parse(["check-proof", "p.prf"]), parse(["verify-axioms"])
    assert (proof.trials, proof.size, proof.seed) == (50, 2, 0)
    assert (axioms.trials, axioms.size, axioms.seed) == (200, 2, 0)
    assert parse(["find-models", "t.thy"]).size == 2
    assert parse(["doctrine", "ruc", "--size", "3"]).size == 3


def test_build_parser_builds_twelve_parsers_at_most(monkeypatch):
    """The top parser, one per subcommand and one holder of the options'
    Actions: no parser wraps a single option."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.__wrapped__()
    assert 0 < len(built) <= 12


_HELP = ("-h/--help", "help", argparse.SUPPRESS, None, "show this help message and exit")
_MAX_BITS = ("--max-bits", "max_bits", None, "int", "relation size guard in bits (default 2^30)")
_SIG = ("--sig", "sig", None, None, "signature file (`sig NAME : N -> M` lines)")
_INTERP = ("--interp", "interp", None, None, "interpretation file")
_MACHINE = ("--machine", "machine", False, None, None)
_SIZE = ("--size", "size", 2, "int", None)
_TRIALS = ("--trials", "trials", argparse.SUPPRESS, "int", None)
_SEED = ("--seed", "seed", 0, "int", None)
_TERM = ("term", "term", None, None, None)
_THEORY = ("theory", "theory", None, None, "theory file")

# each parser's actions in help order: name, dest, default, type, help[, choices]
_ACTION_TABLES = {
    None: [("command", "command", None, None, None,
            ["typecheck", "desugar", "eval", "included", "check-model", "find-models",
             "check-proof", "verify-axioms", "spider", "doctrine"]), _HELP],
    "typecheck": [_TERM, _HELP, _MAX_BITS, _SIG],
    "desugar": [_TERM, _HELP, _MAX_BITS, _SIG],
    "eval": [_TERM, _HELP, _MAX_BITS, _SIG, _INTERP],
    "included": [("lhs", "lhs", None, None, None), ("rhs", "rhs", None, None, None),
                 _HELP, _MAX_BITS, _SIG, _INTERP],
    "check-model": [_THEORY, _HELP, _MAX_BITS, _INTERP, _MACHINE],
    "find-models": [_THEORY, _HELP, _MAX_BITS, _SIZE,
                    ("--max-space", "max_space", 2 ** 24, "int", None), _MACHINE],
    "check-proof": [("proof", "proof", None, None, "proof file"), _HELP, _MAX_BITS, _SIG,
                    ("--spotcheck", "spotcheck", False, None,
                     "also test the claim on random interpretations"),
                    _SIZE, _TRIALS, _SEED],
    "verify-axioms": [_HELP, _MAX_BITS, _SIZE, _TRIALS, _SEED,
                      ("--family", "family", None, None,
                       "check only the axioms of this family"), _MACHINE],
    "spider": [_TERM, _HELP, _MAX_BITS, _SIG],
    "doctrine": [("action", "action", None, None, None, ["comprehension", "ruc"]),
                 ("members", "members", None, "int", "member indices of the predicate"),
                 _HELP, ("--size", "size", None, "int",
                         "object size (for ruc: both object sizes)")],
}


def test_each_parser_keeps_its_actions_in_help_order():
    """The top parser and every subcommand list these actions, in this order,
    with these settings; pinned field by field, as help layout varies with the
    Python version."""
    def table(parser):
        return [("/".join(a.option_strings) or a.dest, a.dest, a.default,
                 a.type and a.type.__name__, a.help)
                + ((list(a.choices),) if a.choices is not None else ())
                for group in parser._action_groups for a in group._group_actions]

    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert {None: table(top)} | {name: table(p) for name, p in sub.choices.items()} \
        == _ACTION_TABLES


def test_max_bits_accepted_by_each_command(files, capsys):
    for argv in (["typecheck", "(idw 1)"], ["desugar", "(top 1 1)"],
                 ["spider", "(idw 1)"], ["verify-axioms", "--size", "1",
                                         "--trials", "1", "--family", "linear"]):
        assert run(argv[:1] + ["--max-bits", "4096"] + argv[1:]) == 0


def test_oversized_spaces_exit_2(files, capsys):
    """Both size guards refuse from the exponent, without building the power."""
    assert run(["eval", "--sig", files["sig"], "--interp", files["interp"],
                "(top 99999999999 99)"]) == 2
    assert "relation space 2^100000000098 exceeds" in capsys.readouterr().err
    thy = files["dir"] / "one.thy"
    thy.write_text("sig R : 1 -> 1\naxiom a : (gen R) <= (gen R)\n")
    assert run(["find-models", str(thy), "--size", "120"]) == 2
    assert "search space of size 2^14400 exceeds the bound" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "(idw 99999999999999999999)"],
     "relation space 2^199999999999999999998 exceeds 1073741824 bits"),
    (["verify-axioms", "--size", "99999999999999999999", "--trials", "1", "--family", "fo"],
     "relation space 99999999999999999999^3 exceeds 1073741824 bits"),
])
def test_constants_too_large_exit_2(files, capsys, argv, message):
    """The size guard runs before a constant's tuples are enumerated."""
    if argv[0] == "eval":
        argv = ["eval", "--sig", files["sig"], "--interp", files["interp"], *argv[1:]]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_negative_carrier_exits_2(files, capsys):
    proof = files["dir"] / "id.prf"
    proof.write_text("prove (gen R) <= (gen R)\nqed\n")
    thy = files["dir"] / "dsc.thy"
    thy.write_text("sig R : 1 -> 0\naxiom a : (gen R) <= (gen R)\n")
    for argv in (["verify-axioms", "--size", "-1", "--trials", "1"],
                 ["check-proof", "--sig", files["sig"], str(proof), "--spotcheck",
                  "--size", "-1"],
                 ["find-models", str(thy), "--size", "-2"]):
        assert run(argv) == 2
        assert capsys.readouterr().err.strip() == \
            "error: carrier size must be non-negative"


@pytest.mark.parametrize("command", ["eval", "typecheck"])
def test_deep_term_nesting_exits_2(files, capsys, command):
    deep = files["dir"] / "deep.term"
    deep.write_text("(dag " * 2000 + "(gen R)" + ")" * 2000)
    argv = [command, "--sig", files["sig"], str(deep)]
    if command == "eval":
        argv[1:1] = ["--interp", files["interp"]]
    assert run(argv) == 2
    assert capsys.readouterr().err.strip() == "error: term nesting too deep"


@pytest.mark.parametrize("depth", [83, 300, 900])
def test_check_proof_of_deeply_nested_claim(tmp_path, capsys, depth):
    """The replay compares its final term with the goal without recursion, so
    a claim nests as deep as the parser reads."""
    term = "(dag " * depth + "(idw 1)" + ")" * depth
    proof = tmp_path / "deep.prf"
    proof.write_text(f"prove {term} <= {term}\nqed\n")
    assert run(["check-proof", str(proof)]) == 0
    assert capsys.readouterr() == ("accepted\n", "")


def test_eval_of_900_nested_dags(files, capsys):
    """The parser takes one frame per term level, so 900 levels parse,
    typecheck and evaluate; an even number of converses gives R back."""
    deep = files["dir"] / "deep.term"
    deep.write_text("(dag " * 900 + "(gen R)" + ")" * 900)
    assert run(["eval", "--sig", files["sig"], "--interp", files["interp"], str(deep)]) == 0
    assert capsys.readouterr().out == "rel result 1 1 {\n  (0 ; 0)\n  (0 ; 1)\n  (1 ; 1)\n}\n"


@pytest.mark.parametrize("arity, axiom", [
    ("3000 -> 6000", "copy-split"),
    ("6000 -> 3000", "cocopy-split-b"),
    ("3000 -> 0", "discard-split-b"),
    ("0 -> 3000", "codiscard-split"),
])
def test_macro_step_at_a_wide_generator_is_rejected(tmp_path, capsys, arity, axiom):
    """The expansion's root cannot be a generator, so the step is rejected
    without building a macro nested thousands deep."""
    sig = tmp_path / "wide.sig"
    sig.write_text(f"sig G : {arity}\n")
    proof = tmp_path / "wide.prf"
    proof.write_text(f"prove (gen G) <= (gen G)\nstep {axiom} at e dir l2r with X=3000\nqed\n")
    assert run(["check-proof", "--sig", str(sig), str(proof)]) == 1
    assert capsys.readouterr() == (
        f"rejected at step 1: axiom {axiom} (l2r) does not match at ε\n", "")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(helpers.proof_text().map(str.encode), st.binary(max_size=200)))
def test_check_proof_fuzz_exits_cleanly(files, capsys, data):
    """Any script file ends in exit 0, 1 or 2 (with a message on stderr),
    never in an exception."""
    script = files["dir"] / "fuzz.prf"
    script.write_bytes(data)
    code = run(["check-proof", "--sig", files["sig"], str(script)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert (out if code < 2 else err).strip()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2 ** 81 - 1))
def test_eval_prints_relation_as_naive_writer(tmp_path, capsys, k, n, m, bits):
    """`diagrel eval` stdout matches the naive writer byte for byte, at
    carriers 0..3 and arities 0..2."""
    sig = T.Signature({"R": (n, m)})
    rel = F.FinRelation(k, n, m, bits % (1 << F.space_bits(k, n, m)))
    (tmp_path / "r.sig").write_text(f"sig R : {n} -> {m}\n")
    (tmp_path / "r.interp").write_text(
        F.print_interpretation(F.Interpretation(sig, k, {"R": rel})))
    assert run(["eval", "--sig", str(tmp_path / "r.sig"), "--interp",
                str(tmp_path / "r.interp"), "(gen R)"]) == 0
    assert capsys.readouterr() == (helpers.naive_format_relation("result", rel), "")


FUZZ_SIG = T.Signature({"R": (1, 1), "S": (2, 1)})
FUZZ_TERM = helpers.term_texts(FUZZ_SIG) | helpers.token_text(
    helpers.TERM_PIECES, helpers.term_texts(FUZZ_SIG))
# two valid terms of one type, so that `included` can also answer no
SAME_TYPE_TERMS = st.builds(
    lambda seed, n, m: [T.print_term(helpers.random_term(random.Random(seed + i), FUZZ_SIG,
                                                          n, m, 3)) for i in (0, 1)],
    st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(helpers.interpretation_texts(FUZZ_SIG)
       | helpers.token_text(helpers.INTERP_PIECES, helpers.interpretation_texts(FUZZ_SIG)),
       SAME_TYPE_TERMS | st.lists(FUZZ_TERM, min_size=2, max_size=2))
def test_eval_and_included_fuzz_exit_cleanly(files, capsys, interp_text, terms):
    """Any interpretation file and terms, valid or edited, end `eval` and
    `included` in exit 0, 1 or 2 with a message, never in an exception.
    `--max-bits` keeps every relation small."""
    interp = files["dir"] / "fuzz.interp"
    # a lone surrogate is written as bytes no UTF-8 reader accepts
    interp.write_bytes(interp_text.encode("utf-8", "surrogatepass"))
    common = ["--max-bits", "4096", "--sig", files["sig"], "--interp", str(interp)]
    for argv in (["eval", *common, terms[0]], ["included", *common, *terms]):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert (out if code < 2 else err).strip()


CLI_SIG = T.Signature({"R": (1, 1)})


def _fuzz_cli(tmp_path, capsys, k, max_bits, interp, terms, theory):
    """Run eval, included, typecheck, desugar, spider, check-model and
    find-models on the given files and terms: each ends in exit 0, 1 or 2 with
    a message, never in an exception."""
    (tmp_path / "r.sig").write_text("sig R : 1 -> 1\n")
    (tmp_path / "fuzz.interp").write_bytes(interp.encode("utf-8", "surrogatepass"))
    (tmp_path / "fuzz.thy").write_bytes(theory.encode("utf-8", "surrogatepass"))
    common = ["--max-bits", str(max_bits), "--sig", str(tmp_path / "r.sig")]
    with_interp = [*common, "--interp", str(tmp_path / "fuzz.interp")]
    for argv in (["eval", *with_interp, terms[0]], ["included", *with_interp, *terms],
                 ["typecheck", *common, terms[0]], ["desugar", *common, terms[0]],
                 ["spider", *common, terms[1]],
                 ["check-model", "--max-bits", str(max_bits), "--interp",
                  str(tmp_path / "fuzz.interp"), str(tmp_path / "fuzz.thy")],
                 ["find-models", "--max-bits", str(max_bits), "--size", str(k),
                  str(tmp_path / "fuzz.thy")]):
        code = run(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert (out if code < 2 else err).strip(), argv


def _numeral_pieces(numerals):
    """The numerals alone and at each numeral site of the term, interpretation
    and theory syntax."""
    return numerals + tuple(piece for n in numerals for piece in (
        f"(idw {n})", f"(top {n} 1)", f"carrier {n}", f"rel R {n} 1 {{",
        f"(0 ; {n})", f"sig R : {n} -> 1\n", f"axiom a : (idw {n}) <= (top {n} {n})\n"))


ODD_PIECES = _numeral_pieces(helpers.ODD_NUMERALS)
HUGE_PIECES = _numeral_pieces((helpers.HUGE_NUMERAL,))


def _cli_terms(pieces):
    terms = helpers.term_texts(CLI_SIG) | st.sampled_from(pieces)
    return st.lists(terms | helpers.token_text(helpers.TERM_PIECES + pieces, terms),
                    min_size=2, max_size=2)


def _cli_theories(pieces):
    theories = helpers.theory_texts(CLI_SIG)
    return theories | st.sampled_from(pieces) | helpers.token_text(
        helpers.THEORY_PIECES + pieces, theories)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3), st.integers(0, 4096),
       helpers.token_text(helpers.INTERP_PIECES + ODD_PIECES,
                          helpers.interpretation_texts(CLI_SIG)),
       _cli_terms(ODD_PIECES),
       _cli_theories(ODD_PIECES))
def test_cli_fuzz_with_odd_numerals_exits_cleanly(tmp_path, capsys, k, max_bits, interp,
                                                  terms, theory):
    """Signs, digit separators and non-ASCII digits, at carriers 0..3."""
    _fuzz_cli(tmp_path, capsys, k, max_bits, interp, terms, theory)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 3), st.integers(0, 4096), st.integers(0, 10 ** 6),
       _cli_terms(HUGE_PIECES),
       _cli_theories(HUGE_PIECES))
def test_cli_fuzz_with_a_huge_numeral_exits_cleanly(tmp_path, capsys, k, max_bits, seed,
                                                    terms, theory):
    """A numeral past any arity, at carriers 0 to 3, where the size guard
    refuses it: by its bits at carriers 2 and 3, by its arity at 0 and 1.
    The carrier of the interpretation is not edited."""
    rel = helpers.random_relation(random.Random(seed), k, 1, 1)
    interp = F.print_interpretation(F.Interpretation(CLI_SIG, k, {"R": rel}))
    _fuzz_cli(tmp_path, capsys, k, max_bits, interp, terms, theory)


def _exits_cleanly(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert (out if code < 2 else err).strip(), argv
    assert "Traceback" not in out + err, argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_terms(ODD_PIECES))
def test_spider_fuzz_exits_cleanly(tmp_path, capsys, terms):
    """Odd numerals and small naturals; `_fuzz_cli` runs `spider` on the
    huge numeral as well."""
    (tmp_path / "r.sig").write_text("sig R : 1 -> 1\n")
    for term in terms:
        _exits_cleanly(["spider", "--sig", str(tmp_path / "r.sig"), term], capsys)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["comprehension", "ruc"]), st.integers(-1, 4),
       st.lists(st.integers(-2, 20), max_size=6))
def test_doctrine_fuzz_exits_cleanly(capsys, action, size, members):
    _exits_cleanly(["doctrine", action, "--size", str(size), *map(str, members)], capsys)


def test_negative_trials_exit_2(files, capsys):
    proof = files["dir"] / "id.prf"
    proof.write_text("prove (idw 1) <= (top 1 1)\nstep eta-discard at e dir l2r\nqed\n")
    for argv, trials in ((["verify-axioms", "--trials", "-3"], -3),
                         (["check-proof", "--sig", files["sig"], str(proof), "--spotcheck",
                           "--trials", "-2"], -2)):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert err.strip() == f"error: trials must be non-negative, got {trials}"
        assert "trials=" not in out and "spotcheck passed" not in out
    assert run(["verify-axioms", "--trials", "0", "--family", "linear", "--machine"]) == 0
    assert "trials=0 failures=0" in capsys.readouterr().out
    assert run(["check-proof", "--sig", files["sig"], str(proof), "--spotcheck",
                "--trials", "0"]) == 0
    assert "spotcheck passed (0 trials, carrier 2)" in capsys.readouterr().out


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "-1", "trials must be non-negative, got -1"),
    ("--size", "-1", "carrier size must be non-negative"),
])
def test_bad_spotcheck_value_prints_no_verdict(files, capsys, option, value, message):
    """A usage error is found before the replay, so no verdict is printed."""
    proof = files["dir"] / "id.prf"
    proof.write_text("prove (idw 1) <= (top 1 1)\nstep eta-discard at e dir l2r\nqed\n")
    assert run(["check-proof", "--sig", files["sig"], str(proof), "--spotcheck",
                option, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # without --spotcheck the values are not used, and the proof is replayed
    assert run(["check-proof", "--sig", files["sig"], str(proof), option, value]) == 0
    assert capsys.readouterr().out == "accepted\n"


# (theory, size, max-bits) -> (exit code, stdout, stderr) of find-models --machine;
# a subterm's space is refused only when a candidate's evaluation reaches it
_LAZY = ("sig R : 1 -> 1\naxiom never : (top 1 1) <= (meet (gen R) (neg (gen R)))\n"
         "axiom big : (top 2 2) <= (top 2 2)\n")
_EARLY = ("sig R : 1 -> 1\naxiom wide : (seqw (top 1 2) (top 2 1)) <= (gen R)\n"
          "axiom r : (idw 1) <= (gen R)\n")
_MAX_BITS_CASES = [
    (_LAZY, 2, 4, 0, "models: 0\n", ""),
    (_LAZY, 2, 2, 2, "", "error: relation space 2^2 exceeds 2 bits\n"),
    (_LAZY, 3, 9, 0, "models: 0\n", ""),
    (_EARLY, 2, 4, 2, "", "error: relation space 2^3 exceeds 4 bits\n"),
    (_EARLY, 2, 8, 0, "models: 1\nmodel=0 rel=R bits=15\n", ""),
    (ORDER, 3, 8, 2, "", "error: relation space 3^2 exceeds 8 bits\n"),
    (ORDER, 2, 4, 0, "models: 2\nmodel=0 rel=R bits=11\nmodel=1 rel=R bits=13\n", ""),
]


@pytest.mark.parametrize("text,size,max_bits,code,out,err", _MAX_BITS_CASES)
def test_find_models_low_max_bits(tmp_path, capsys, text, size, max_bits, code, out, err):
    thy = tmp_path / "t.thy"
    thy.write_text(text)
    assert run(["find-models", str(thy), "--size", str(size), "--max-bits", str(max_bits),
                "--machine"]) == code
    assert capsys.readouterr() == (out, err)


def test_output_does_not_depend_on_the_hash_seed(files):
    """Memo keys leak no iteration order into the output."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        runs = [subprocess.run([sys.executable, "-m", "diagrel", *argv], env=env,
                               capture_output=True, check=True).stdout
                for argv in (["verify-axioms", "--size", "2", "--trials", "5", "--seed", "3",
                              "--machine"],
                             ["find-models", files["thy"], "--size", "3", "--machine"])]
        outs.append(runs)
    assert outs[0] == outs[1] and outs[0][0].endswith(b"axioms: 106  failing: 0\n")
    assert outs[0][1].startswith(b"models: 6\n")
