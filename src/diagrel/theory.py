"""Diagrammatic first-order theories, model checking, bounded enumeration.

A theory is a signature plus named axioms `c <= d`; an interpretation is a
model when every axiom's inclusion holds in the relation semantics.
Equalities are written as two axioms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finrel import (
    FinRelation, Interpretation, evaluate, included, inclusion_witness, space_bits,
)
from .terms import DiagrelError, ParseError, Signature, parse_inequality, typecheck

DEFAULT_SEARCH_BOUND = 2 ** 24


@dataclass(frozen=True)
class Theory:
    signature: Signature
    axioms: tuple  # ((name, lhs: Term, rhs: Term), ...)

    def __post_init__(self):
        for name, lhs, rhs in self.axioms:
            t1 = typecheck(lhs, self.signature)
            t2 = typecheck(rhs, self.signature)
            if t1 != t2:
                raise DiagrelError(f"axiom {name}: sides typed {t1} vs {t2}")


@dataclass(frozen=True)
class ModelReport:
    verdicts: tuple  # ((name, holds: bool, witness-or-None), ...)

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
    """Parse a theory file: `sig` lines followed by
    `axiom NAME : TERM <= TERM` lines."""
    sig_lines = []
    axiom_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("sig"):
            sig_lines.append(line)
        elif line.startswith("axiom"):
            axiom_lines.append((lineno, line))
        else:
            raise ParseError(f"unrecognized theory line {line!r}", lineno, 1)
    sig = Signature.parse("\n".join(sig_lines))
    axioms = []
    for lineno, line in axiom_lines:
        head, _, body = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or not _:
            raise ParseError(f"bad axiom line {line!r}", lineno, 1)
        name = parts[1]
        lhs, rhs = parse_inequality(body, sig)
        axioms.append((name, lhs, rhs))
    return Theory(sig, tuple(axioms))


def _axiom_values(theory, interp):
    """Yield (name, lhs value, rhs value) axiom by axiom, with one evaluation
    cache shared by all of them."""
    cache = {}
    for name, lhs, rhs in theory.axioms:
        yield name, evaluate(lhs, interp, _cache=cache), evaluate(rhs, interp, _cache=cache)


def check_model(theory, interp):
    """Evaluate every axiom; failing axioms carry a counterexample pair."""
    verdicts = []
    for name, lv, rv in _axiom_values(theory, interp):
        if included(lv, rv):
            verdicts.append((name, True, None))
        else:
            verdicts.append((name, False, inclusion_witness(lv, rv)))
    return ModelReport(tuple(verdicts))


def search_space(theory, k):
    """The bits that pick a candidate interpretation at carrier k, of which
    there are 2 ** search_space(theory, k); SizeLimit if one is too large."""
    return sum(space_bits(k, n, m) for n, m in theory.signature.generators.values())


def enumerate_models(theory, k, bound=DEFAULT_SEARCH_BOUND):
    """All interpretations over carrier k that model the theory, ordered
    lexicographically by assignment bit-vectors."""
    bits = search_space(theory, k)
    # 2^bits is built only when its exponent is no longer than the bound's
    if bits > bound.bit_length() or 1 << bits > bound:
        raise DiagrelError(
            f"search space of size 2^{bits} exceeds the bound {bound}")
    gens = theory.signature.generators
    names = sorted(gens)
    models = []
    for masks in itertools.product(*(range(1 << space_bits(k, *gens[n])) for n in names)):
        assignment = {
            name: FinRelation(k, *gens[name], b)
            for name, b in zip(names, masks)
        }
        interp = Interpretation(theory.signature, k, assignment)
        # stop at the first failing axiom
        if all(included(lv, rv) for _, lv, rv in _axiom_values(theory, interp)):
            models.append(interp)
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
