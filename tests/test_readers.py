"""Every error message and `line:col` of the four file readers: signatures,
theories, proof scripts (with their positions and `with` bindings) and
interpretations."""

import pytest

from diagrel import finrel as F, rewrite as R, terms as T, theory as TH
from diagrel.cli import run

SIG = T.Signature({"R": (1, 1), "S": (2, 1)})
PROVE = "prove (idw 1) <= (idw 1)\n"
STEP = PROVE + "step seq-unit-l at e dir r2l with "

READERS = {
    "term": T.parse_term,
    "sig": T.Signature.parse,
    "theory": TH.parse_theory,
    "proof": lambda text: R.parse_proof(text, SIG),
    "interp": lambda text: F.parse_interpretation(text, SIG),
}


def outcome(reader, text):
    try:
        READERS[reader](text)
    except T.DiagrelError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("reader, text, error, message", [
    ("sig", "sig R 1 -> 1", T.ParseError, "1:1: bad signature line: 'sig R 1 -> 1'"),
    ("sig", "gen R : 1 -> 1", T.ParseError, "1:1: bad signature line: 'gen R : 1 -> 1'"),
    ("sig", "  sig R : 1 - 1  ", T.ParseError, "1:1: bad signature line: 'sig R : 1 - 1'"),
    ("sig", "\n# c\nsig R : 1 -> 1\nsig R : 2 -> 1\n", T.ParseError,
     "4:1: duplicate generator 'R'"),
    ("sig", "sig R : x -> 1", T.ParseError, "1:1: bad arity in: 'sig R : x -> 1'"),
    ("sig", "sig R : 1 -> -1", T.DiagrelError, "generator R: negative arity"),
    ("theory", "sig R : 1 -> 1\nfoo\n", T.ParseError, "2:1: unrecognized theory line 'foo'"),
    ("theory", "axiom : (idw 1) <= (idw 1)", T.ParseError,
     "1:1: bad axiom line 'axiom : (idw 1) <= (idw 1)'"),
    ("theory", "\naxiom a (idw 1) <= (idw 1)", T.ParseError,
     "2:1: bad axiom line 'axiom a (idw 1) <= (idw 1)'"),
    ("theory", "axiom a : (idw 1)", T.ParseError, "expected '<=' between terms"),
    ("theory", "axiom a : <= (idw 1)", T.ParseError, "expected '<=' between terms"),
    ("theory", "axiom a : (idw 1) <= (idw 1) x", T.ParseError,
     "trailing input after second term"),
    ("theory", "sig R : 1 -> 1\naxiom a : (gen R) <= (idw 2)", T.DiagrelError,
     "axiom a: sides typed (1, 1) vs (2, 2)"),
    ("proof", PROVE + PROVE + "qed", T.ParseError, "2:1: duplicate prove line"),
    ("proof", "qed\n", T.ParseError, "1:1: qed before prove"),
    ("proof", "# only a comment\n", T.ParseError, "missing prove line"),
    ("proof", PROVE, T.ParseError, "missing qed"),
    ("proof", "prove (idw 1)\nqed", T.ParseError, "expected '<=' between terms"),
    ("proof", "prove\nqed", T.ParseError, "unexpected end of input (unbalanced parenthesis?)"),
    ("proof", "prove (idw 1) <= (idw 1) (idw 1)\nqed", T.ParseError,
     "trailing input after second term"),
    ("proof", PROVE + "step seq-unit-l at 0..1 dir r2l\nqed", T.ParseError,
     "bad position '0..1'"),
    ("proof", PROVE + "step seq-unit-l at 1. dir r2l\nqed", T.ParseError, "bad position '1.'"),
    ("proof", PROVE + "step seq-unit-l at .1 dir r2l\nqed", T.ParseError, "bad position '.1'"),
    ("proof", STEP + "X=1 junk\nqed", T.ParseError, "2:39: bad binding clause 'junk'"),
    ("proof", STEP + "X=1 Y\nqed", T.ParseError, "2:39: bad binding clause 'Y'"),
    ("proof", STEP + "a=(gen R) (gen R)\nqed", T.ParseError,
     "2:45: bad binding clause '(gen R)'"),
    ("proof", STEP + "a=(gen R))\nqed", T.ParseError, "2:44: bad binding clause ')'"),
    ("proof", STEP + "a=(gen R\nqed", T.ParseError,
     "2:35: unbalanced parentheses in binding 'a'"),
    ("proof", STEP + "a=(seqw (gen R) (gen R)\nqed", T.ParseError,
     "2:35: unbalanced parentheses in binding 'a'"),
    ("proof", STEP + "a=\nqed", T.ParseError, "2:35: empty binding for 'a'"),
    ("proof", STEP + "X=-1\nqed", T.ParseError, "2:35: negative object binding for 'X'"),
    ("interp", "", T.ParseError, "unexpected end of interpretation file, expected 'carrier'"),
    ("interp", "carrier", T.ParseError, "unexpected end of interpretation file"),
    ("interp", "carier 2", T.ParseError, "1:1: expected 'carrier', got 'carier'"),
    ("interp", "carrier x", T.ParseError, "1:1: expected carrier size, got 'x'"),
    ("interp", "carrier -2", T.ParseError, "1:1: carrier size must be non-negative"),
    ("interp", "carrier 2 foo", T.ParseError, "1:1: expected 'rel', got 'foo'"),
    ("interp", "carrier 2\nrel", T.ParseError, "unexpected end of interpretation file"),
    ("interp", "carrier 2\nrel Q 1 1 {}", T.ParseError, "2:1: unknown generator 'Q'"),
    ("interp", "carrier 2\nrel R 1 1 {}\n# c\nrel R 1 1 {}", T.ParseError,
     "4:1: duplicate relation for 'R'"),
    ("interp", "carrier 2\nrel R x 1", T.ParseError, "2:1: expected arity, got 'x'"),
    ("interp", "carrier 2\nrel R 1 -1", T.ParseError, "2:1: coarity must be non-negative"),
    ("interp", "carrier 2\nrel R 1 1 (", T.ParseError, "2:1: expected '{', got '('"),
    ("interp", "carrier 2\nrel R 1 1 { (0 ; 1)", T.ParseError,
     "unexpected end of interpretation file, expected '('"),
    ("interp", "carrier 2\nrel R 1 1 { (0 ; 1", T.ParseError,
     "unexpected end of interpretation file"),
    ("interp", "carrier 2\nrel R 1 1 {\n (0 ; x) }", T.ParseError,
     "3:1: expected tuple entry, got 'x'"),
])
def test_reader_error_messages(reader, text, error, message):
    assert outcome(reader, text) == (error, message)


# a term error inside a line, and a signature line inside a theory file, are
# reported at the file's own line and column
@pytest.mark.parametrize("reader, text, message", [
    ("theory", "sig R : 1 -> 1\n\nsig R 1\n", "3:1: bad signature line: 'sig R 1'"),
    ("theory", "sig R 1\n", "1:1: bad signature line: 'sig R 1'"),
    ("theory", "sig R : 1 -> 1\naxiom a : (gen R) <= (gen R)\nsig S : x -> 1\n",
     "3:1: bad arity in: 'sig S : x -> 1'"),
    ("theory", "sig R : 1 -> 1\n\naxiom a : (idw 1) <= (gen Q)\n",
     "3:27: unknown generator 'Q'"),
    ("theory", "axiom a : (idw 1) <= (idw\n", "1:22: unbalanced parenthesis"),
    ("theory", "  axiom a : (idw 1) <= (frob)\n", "1:25: unknown form 'frob'"),
    ("proof", "# c\n\nprove (idw 1) <= (foo 1)\n", "3:19: unknown form 'foo'"),
    ("proof", "prove (idw 1) <= )\n", "1:18: unexpected ')'"),
    ("proof", PROVE + "step seq-unit-l at e dir l2r with a=(foo 1)\nqed\n",
     "2:38: unknown form 'foo'"),
    ("proof", PROVE + "step seq-unit-l at e dir l2r with a=(gen R) b=(idw x)\nqed\n",
     "2:52: expected number, got 'x'"),
])
def test_errors_inside_a_line_report_the_file_position(reader, text, message):
    assert outcome(reader, text) == (T.ParseError, message)


def test_doubly_negative_binding_exits_2(tmp_path, capsys):
    proof = tmp_path / "neg.prf"
    proof.write_text(PROVE + "step seq-unit-l at e dir l2r with X=--3\nqed\n")
    assert run(["check-proof", str(proof)]) == 2
    assert capsys.readouterr() == ("", "error: 2:35: negative object binding for 'X'\n")


# the numeral rule: a natural number is a token of ASCII decimal digits; a
# sign, a digit separator or a non-ASCII digit makes the token no number
@pytest.mark.parametrize("numeral", ["+3", "1_0", "٣", "³", "-٣"])
def test_every_numeral_site_refuses_what_is_not_ascii_digits(numeral):
    n = repr(numeral)
    for reader, text, message in [
        ("term", f"(idw {numeral})", f"1:6: expected number, got {n}"),
        ("sig", f"sig R : {numeral} -> 1", f"1:1: bad arity in: 'sig R : {numeral} -> 1'"),
        ("theory", f"sig R : 1 -> {numeral}", f"1:1: bad arity in: 'sig R : 1 -> {numeral}'"),
        ("theory", f"axiom a : (idw {numeral}) <= (idw 1)", f"1:16: expected number, got {n}"),
        ("proof", f"prove (top 1 {numeral}) <= (top 1 1)\nqed", f"1:14: expected number, got {n}"),
        ("proof", PROVE + f"step seq-unit-l at 0.{numeral} dir l2r\nqed",
         f"bad position '0.{numeral}'"),
        ("interp", f"carrier {numeral}", f"1:1: expected carrier size, got {n}"),
        ("interp", f"carrier 2\nrel R {numeral} 1 {{}}", f"2:1: expected arity, got {n}"),
        ("interp", f"carrier 2\nrel R 1 {numeral} {{}}", f"2:1: expected coarity, got {n}"),
        ("interp", f"carrier 2\nrel R 1 1 {{ (0 ; {numeral}) }}",
         f"2:1: expected tuple entry, got {n}"),
    ]:
        assert outcome(reader, text) == (T.ParseError, message), text


@pytest.mark.parametrize("numeral", ["-0", "--3"])
def test_digits_behind_minus_signs_are_negative(numeral):
    """Each site gives its "non-negative" message; a position has none."""
    for reader, text, message in [
        ("sig", f"sig R : 1 -> {numeral}", "generator R: negative arity"),
        ("interp", f"carrier {numeral}", "1:1: carrier size must be non-negative"),
        ("theory", f"axiom a : (idw {numeral}) <= (idw 1)", "1:16: number must be non-negative"),
        ("proof", STEP + f"X={numeral}\nqed", "2:35: negative object binding for 'X'"),
        ("proof", PROVE + f"step seq-unit-l at {numeral} dir l2r\nqed",
         f"bad position {numeral!r}"),
    ]:
        assert outcome(reader, text)[1] == message, text


def test_object_bindings_read_ascii_digits_only(tmp_path, capsys):
    """`X=٣` is a generator name, not the number 3, so the step is rejected."""
    proof = tmp_path / "p.prf"
    proof.write_text(PROVE + "step seq-unit-l at e dir r2l with X=٣\nqed\n")
    assert run(["check-proof", str(proof)]) == 1
    assert capsys.readouterr() == (
        "rejected at step 1: object metavariable 'X' must be bound to a number\n", "")


def test_duplicate_binding_exits_2(tmp_path, capsys):
    """A name bound twice is refused, not read as its last value: with `X=1`
    alone this step is accepted, with `X=7` alone it is rejected."""
    sig, proof = tmp_path / "r.sig", tmp_path / "p.prf"
    sig.write_text("sig R : 1 -> 1\n")
    proof.write_text("prove (gen R) <= (seqw (idw 1) (gen R))\n"
                     "step seq-unit-l at e dir r2l with X=7 X=1\nqed\n")
    assert run(["check-proof", "--sig", str(sig), str(proof)]) == 2
    assert capsys.readouterr() == ("", "error: 2:39: duplicate binding for 'X'\n")


def test_binding_of_a_name_outside_the_axiom_is_rejected(tmp_path, capsys):
    """`Q` is no metavariable of seq-unit-l, so the step is refused, not
    applied as if `with X=1` alone were given."""
    sig, proof = tmp_path / "r.sig", tmp_path / "p.prf"
    sig.write_text("sig R : 1 -> 1\n")
    proof.write_text("prove (gen R) <= (seqw (idw 1) (gen R))\n"
                     "step seq-unit-l at e dir r2l with X=1 Q=5\nqed\n")
    assert run(["check-proof", "--sig", str(sig), str(proof)]) == 1
    assert capsys.readouterr() == (
        "rejected at step 1: 'Q' is not a metavariable of axiom seq-unit-l\n", "")


@pytest.mark.parametrize("clause, outcome_", [
    ("a= (gen R)", (("a", T.Gen("R")),)),
    ("a=(seqw (gen R)\n", "2:35: unbalanced parentheses in binding 'a'"),
    ("X=1 a=(seqw (gen R)\n", "2:39: unbalanced parentheses in binding 'a'"),
    ("a=(gen R) X=0 r=R c=copyb", (("a", T.Gen("R")), ("X", 0), ("r", "R"),
                                   ("c", T.Const("copyb")))),
    ("X=3=4", (("X", "3=4"),)),
    ("junk X=1", "2:35: bad binding clause 'junk X=1'"),
    ("X=1 junk", "2:39: bad binding clause 'junk'"),
    ("X =1", "2:35: bad binding clause 'X =1'"),
    ("X= 1", "2:35: empty binding for 'X'"),
    ("X=1 Y= 1", "2:39: empty binding for 'Y'"),
    ("X=1 X=2", "2:39: duplicate binding for 'X'"),
])
def test_binding_grammar(clause, outcome_):
    """A binding is NAME=ATOM, or NAME= followed by one parenthesized term."""
    text = STEP + clause + "\nqed"
    if isinstance(outcome_, str):
        assert outcome("proof", text) == (T.ParseError, outcome_)
    else:
        assert R.parse_proof(text, SIG).steps[0].bindings == outcome_
