"""Byte-identity of the command-line output, pinned by digest.

Each loop runs a fixed list of commands in process through `cli.run` and
hashes each command's stdout followed by its stderr.  The digests equal those
of the same loops run in a shell from the repository root, with
`PYTHONPATH=src`, each command as `python3 -m diagrel ARGS 2>&1` and the whole
loop piped to `sha256sum`.  A change that alters the output on purpose updates
the digest and says why.
"""

import hashlib
from pathlib import Path

import pytest

import diagrel
from diagrel import theory
from diagrel.cli import run

PROOFS = sorted((Path(diagrel.__file__).parent / "proofs").glob("*.prf"))
LOOP3_TERMS = (
    "(dag (gen Q))", "(neg (gen Q))", "(join (gen Q) (neg (dag (gen Q))))",
    "(seqw (gen Q) (dag (gen Q)))", "(meet (gen Q) (dag (gen Q)))", "(dag (gen P))",
    "(seqw (gen P) (dag (gen P)))", "(meet (gen P) (seqw (gen P) (gen Q)))",
    "(top 2 1)", "(bot 1 2)",
)
LOOP4_TERMS = (
    "(idw 0)", "(idw 2)", "(idb 2)", "(symw 2 1)", "(symw 0 2)", "(symb 1 2)",
    "copyw", "cocw", "dscw", "codw", "copyb", "cocb", "dscb", "codb",
    "(tensw copyw (symw 1 1))", "(seqb cocb copyb)",
)
LOOP5_TERMS = (
    "(top {N} 0)", "(bot 0 {N})", "(meet (idw {N}) (idw {N}))", "(join (idw {N}) (idw {N}))",
    "(dag (idw {N}))", "(neg (top {N} {N}))",
)


def _verify_axioms(d):
    for k in range(4):
        for seed in (0, 7):
            common = ["verify-axioms", "--size", str(k), "--trials", "13", "--seed", str(seed)]
            yield common + ["--machine"]
            yield common


def _guarded_verify_axioms(d):
    # every guard refuses at k >= 2, so this pins the message and the order of a
    # refusal by a space the size guard bounds
    for k in range(4):
        for bits in ("2", "8", "64"):
            common = ["verify-axioms", "--size", str(k), "--max-bits", bits]
            yield common + ["--machine"]
            yield common


def _models_and_proofs(d):
    order = [line for line in theory.ORDER_THEORY_TEXT.splitlines() if line.startswith(
        ("axiom reflexive", "axiom transitive", "axiom antisymmetric"))]
    (d / "order.thy").write_text("sig R : 1 -> 1\n" + "\n".join(order) + "\n")
    (d / "r.sig").write_text("sig R : 1 -> 1\n")
    for k in range(4):
        yield ["find-models", str(d / "order.thy"), "--size", str(k)]
        yield ["find-models", str(d / "order.thy"), "--size", str(k), "--machine"]
    for proof in PROOFS:
        yield ["check-proof", "--sig", str(d / "r.sig"), str(proof), "--spotcheck",
               "--trials", "50", "--seed", "3"]


def _desugar_and_spider(d):
    (d / "s.sig").write_text("sig Q : 2 -> 2\nsig P : 1 -> 2\n")
    for term in LOOP3_TERMS:
        yield ["desugar", "--sig", str(d / "s.sig"), term]
        yield ["spider", "--sig", str(d / "s.sig"), term]


def _constants(d):
    for k in range(4):
        (d / "c.interp").write_text(f"carrier {k}\n")
        for term in LOOP4_TERMS:
            yield ["eval", "--interp", str(d / "c.interp"), term]


def _desugar_macros(d):
    for n in range(7):
        for term in LOOP5_TERMS:
            yield ["desugar", term.format(N=n)]


@pytest.mark.parametrize("commands, digest", [
    (_verify_axioms, "e1ff7d57d6014a171f687d57251e717defd81af2135453250234023ee2c9a3dc"),
    (_models_and_proofs, "cfc335f87a97cef9df634784eccaffc45338ee2f8b0e54d1cdc472705b84f71d"),
    (_desugar_and_spider, "d59a47a00a4027a71e534356ab8d143e1aafdd766ff8881deca47fbb456d27e1"),
    (_constants, "246cd390d9b71084823404ae5c9f27cf11705192673db9e5793deb0889384563"),
    (_desugar_macros, "789fbe632388b154d086a3f3864a314f675b384faf1c19fdace1eb8e3e4a3e75"),
    (_guarded_verify_axioms, "3adb23d289a768e98614fe4c230fa771eef1cd2ffe31e9ddb23d75428165d5cf"),
], ids=["verify-axioms", "find-models-and-check-proof", "desugar-and-spider", "eval-constants",
        "desugar-macros", "verify-axioms-guarded"])
def test_output_is_byte_identical(tmp_path, capsys, commands, digest):
    h = hashlib.sha256()
    for argv in commands(tmp_path):
        run(argv)
        out, err = capsys.readouterr()
        h.update(out.encode() + err.encode())
    assert h.hexdigest() == digest
