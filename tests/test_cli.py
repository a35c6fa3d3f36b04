import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diagrel.cli import run

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


def test_eval_prints_relation(files, capsys):
    assert run(["eval", "--sig", files["sig"], "--interp", files["interp"],
                "(gen R)"]) == 0
    out = capsys.readouterr().out
    assert "(0 ; 1)" in out and "(1 ; 0)" not in out


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
