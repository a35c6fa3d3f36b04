"""Diagrammatic first-order theories, model checking, bounded enumeration.

A theory is a signature plus named axioms `c <= d`; an interpretation is a
model when every axiom's inclusion holds in the relation semantics.
Equalities are written as two axioms.  `check_model` evaluates each axiom in
one interpretation; `enumerate_models` decides every candidate interpretation
at a carrier, a chunk of them per bit-sliced run of the compiled axioms.
"""

from __future__ import annotations

from .finrel import Lanes, Program, evaluate, inclusion_witness, space_bits
from .terms import (
    DiagrelError, ParseError, Record, Signature, parse_inequality, read_lines, read_sig_line,
    typecheck,
)

DEFAULT_SEARCH_BOUND = 2 ** 24
# a search decides 2^LANE_BITS candidates, or all if fewer, in one lane run
LANE_BITS = 16


class Theory(Record):
    __slots__ = ("signature", "axioms")  # axioms: ((name, lhs: Term, rhs: Term), ...)

    def __init__(self, signature, axioms):
        for name, lhs, rhs in axioms:
            t1 = typecheck(lhs, signature)
            t2 = typecheck(rhs, signature)
            if t1 != t2:
                raise DiagrelError(f"axiom {name}: sides typed {t1} vs {t2}")
        super().__init__(signature, axioms)


class ModelReport(Record):
    __slots__ = ("verdicts",)  # ((name, holds: bool, witness-or-None), ...)

    @property
    def is_model(self):
        return all(holds for _, holds, _ in self.verdicts)

    def __str__(self):
        lines = []
        for name, holds, witness in self.verdicts:
            if holds:
                lines.append(f"axiom {name}: holds")
            else:
                lines.append(f"axiom {name}: fails witness={witness}")
        return "\n".join(lines)


def parse_theory(text):
    """Parse a theory file (see `terms`); an axiom may use a generator declared below it."""
    gens, axiom_lines = {}, []
    for lineno, col, line in read_lines(text):
        if line.startswith("sig"):
            read_sig_line(line, lineno, gens)
        elif line.startswith("axiom"):
            axiom_lines.append((lineno, col, line))
        else:
            raise ParseError(f"unrecognized theory line {line!r}", lineno, 1)
    sig = Signature(gens)
    axioms = []
    for lineno, col, line in axiom_lines:
        head, _, body = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or not _:
            raise ParseError(f"bad axiom line {line!r}", lineno, 1)
        lhs, rhs = parse_inequality(body, sig, lineno, col + len(head) + 1)
        axioms.append((parts[1], lhs, rhs))
    return Theory(sig, tuple(axioms))


def check_model(theory, interp):
    """Evaluate every axiom, typechecked under `interp.signature` (by
    `evaluate`); failing axioms carry the counterexample pair that decided them."""
    verdicts = []
    for name, lhs, rhs in theory.axioms:
        witness = inclusion_witness(evaluate(lhs, interp), evaluate(rhs, interp))
        verdicts.append((name, witness is None, witness))
    return ModelReport(tuple(verdicts))


def search_space(theory, k):
    """The bits that pick a candidate interpretation at carrier k, of which
    there are 2 ** search_space(theory, k); SizeLimit if one is too large."""
    return sum(space_bits(k, n, m) for n, m in theory.signature.generators.values())


def enumerate_models(theory, k, bound=DEFAULT_SEARCH_BOUND):
    """All interpretations over carrier k that model the theory, ordered
    lexicographically by assignment bit-vectors.  The search runs in chunks of
    2^LANE_BITS candidates, each decided at once by a `Lanes` run of one
    `Program`: the lanes still alive run each axiom's lane code in turn, and the
    models are the lanes left, in ascending order.  An axiom is compiled when a
    lane first reaches it, so a space is refused only where evaluation reaches
    it; one whose lane code would be too wide (`finrel.LANE_BYTES`) is decided
    by the scalar program, candidate by candidate, for the lanes still alive."""
    bits = search_space(theory, k)
    # 2^bits is built only when its exponent is no longer than the bound's
    if bits > bound.bit_length() or 1 << bits > bound:
        raise DiagrelError(
            f"search space of size 2^{bits} exceeds the bound {bound}")
    prog = Program(k, theory.signature.generators)
    width = min(bits, LANE_BITS)
    lanes, code, models = Lanes(prog, width), [], []
    for chunk in range(1 << bits - width):
        alive = lanes.load(chunk)
        for i, (_, lhs, rhs) in enumerate(theory.axioms):
            if not alive:
                break
            if i == len(code):
                start = len(prog.code)
                prog.check(prog.add(lhs), prog.add(rhs))
                code.append(lanes.compile(start))
            if code[i] is not None:
                alive = lanes.run(code[i], alive)
                continue
            for lane, masks in lanes.candidates(chunk, alive):
                if prog.run(masks) is not None:
                    alive ^= 1 << lane
        models += [lanes.interpretation(theory.signature, masks)
                   for _, masks in lanes.candidates(chunk, alive)]
    return models


ORDER_THEORY_TEXT = """\
sig R : 1 -> 1
axiom reflexive : (idw 1) <= (gen R)
axiom transitive : (seqw (gen R) (gen R)) <= (gen R)
axiom antisymmetric : (meet (gen R) (dag (gen R))) <= (idw 1)
axiom total : (top 1 1) <= (join (gen R) (dag (gen R)))
"""


def order_theory():
    """Reflexive, transitive, antisymmetric, total: finite models are the
    linear orders, k! of them on a k-element carrier."""
    return parse_theory(ORDER_THEORY_TEXT)
