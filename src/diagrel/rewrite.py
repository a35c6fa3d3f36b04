"""Axiom database, pattern matching, positional inequational rewriting,
proof-script checking, and the spider normalizer.

A proof of `s <= t` is an increasing chain of rewrite steps: inequational
axioms may only be applied left-to-right (every term context is monotone,
so replacing a subterm by a larger one enlarges the whole), equalities in
either direction.  Matching is purely syntactic — no matching modulo
associativity; the structural axioms are explicit proof steps.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field

from . import terms as T
from .finrel import (
    FinRelation, Interpretation, complement, evaluate, included, inclusion_witness,
    space_bits,
)
from .terms import (
    DiagrelError, EMPTY_SIGNATURE, Gen, GenOp, IdB, IdW, ParseError, SeqB,
    SeqW, Signature, SymB, SymW, Term, desugar, format_position,
    parse_inequality, parse_term, print_term, replace_at, spine_at, typecheck,
)


class RewriteError(DiagrelError):
    pass


# ---------------------------------------------------------------------------
# patterns
#
# A pattern is a term skeleton with three kinds of metavariables:
#   - arrow metavariables (PVar) standing for arbitrary terms,
#   - generator metavariables (PGenVar) standing for generator names,
#   - object metavariables occurring inside object expressions.
# An object expression is a tuple of items summed together; an item is a
# literal natural, an object variable name, or ("dom", g) / ("cod", g)
# referring to the arity of a bound generator metavariable.


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PGenVar:
    var: str
    op: bool = False


@dataclass(frozen=True)
class PConstM:
    """An arity-indexed constant macro: identity, symmetry or one of the
    eight (co)monoid families, at objects given by object expressions."""

    kind: str
    objs: tuple


@dataclass(frozen=True)
class PBin:
    op: str  # seqw | seqb | tensw | tensb
    l: object
    r: object


# the (co)monoid families; identities and symmetries come from `terms.FORMS`
_MACROS = {
    "copyw": T.copy_w, "cocw": T.cocopy_w, "dscw": T.discard_w, "codw": T.codiscard_w,
    "copyb": T.copy_b, "cocb": T.cocopy_b, "dscb": T.discard_b, "codb": T.codiscard_b,
}


class UnboundMetavariable(RewriteError):
    pass


def _expr_value(expr, binding, sig):
    total = 0
    for item in expr:
        if isinstance(item, int):
            total += item
        elif isinstance(item, tuple):
            side, gvar = item
            if gvar not in binding:
                raise UnboundMetavariable(f"generator metavariable {gvar!r} unbound")
            n, m = sig.type_of(binding[gvar])
            total += n if side == "dom" else m
        elif item in binding:
            total += binding[item]
        else:
            raise UnboundMetavariable(f"object metavariable {item!r} unbound")
    return total


def instantiate(p, binding, sig=EMPTY_SIGNATURE):
    """Build the term denoted by pattern p under the given bindings."""
    if isinstance(p, PVar):
        if p.name not in binding:
            raise UnboundMetavariable(f"arrow metavariable {p.name!r} unbound")
        v = binding[p.name]
        if not isinstance(v, Term):
            raise RewriteError(f"binding for {p.name!r} is not a term")
        return v
    if isinstance(p, PGenVar):
        if p.var not in binding:
            raise UnboundMetavariable(f"generator metavariable {p.var!r} unbound")
        name = binding[p.var]
        if name not in sig.generators:
            raise RewriteError(f"unknown generator {name!r} for metavariable {p.var!r}")
        return GenOp(name) if p.op else Gen(name)
    if isinstance(p, PConstM):
        vals = [_expr_value(e, binding, sig) for e in p.objs]
        return (_MACROS.get(p.kind) or T.FORMS[p.kind][0])(*vals)
    if isinstance(p, PBin):
        return T.FORMS[p.op][0](instantiate(p.l, binding, sig),
                                instantiate(p.r, binding, sig))
    raise RewriteError(f"not a pattern: {p!r}")


def _solve_expr(expr, value, binding, sig):
    """Unify sum-expression with a concrete value; may bind one variable."""
    known = 0
    unknowns = []
    for item in expr:
        if isinstance(item, int):
            known += item
        elif isinstance(item, tuple):
            side, gvar = item
            if gvar not in binding:
                return False
            n, m = sig.type_of(binding[gvar])
            known += n if side == "dom" else m
        elif item in binding:
            known += binding[item]
        else:
            unknowns.append(item)
    if not unknowns:
        return known == value
    if len(set(unknowns)) == 1:
        residue = value - known
        if residue < 0 or residue % len(unknowns):
            return False
        binding[unknowns[0]] = residue // len(unknowns)
        return True
    return False  # underdetermined — needs explicit `with` bindings


def match_pattern(p, t, sig=EMPTY_SIGNATURE, binding=None, types=None):
    """Syntactic matching: bindings σ with instantiate(p, σ) = t, or None."""
    b = dict(binding) if binding else {}
    if _match(p, t, sig, b, types):
        return b
    return None


def _match(p, t, sig, b, types):
    if isinstance(p, PVar):
        if p.name in b:
            return b[p.name] == t
        b[p.name] = t
        return True
    if isinstance(p, PGenVar):
        want = GenOp if p.op else Gen
        if type(t) is not want:
            return False
        if p.var in b:
            return b[p.var] == t.name
        b[p.var] = t.name
        return True
    if isinstance(p, PBin):
        if type(t) is not T.FORMS[p.op][0]:
            return False
        return _match(p.l, t.t, sig, b, types) and _match(p.r, t.u, sig, b, types)
    if isinstance(p, PConstM):
        # Determine the macro arities from the candidate's shape/type, then
        # require the expansion to be syntactically equal to the candidate.
        if p.kind in ("symw", "symb"):
            if type(t) is not T.FORMS[p.kind][0]:
                return False
            targets = (t.m, t.n)
        else:
            try:
                n, m = typecheck(t, sig, types=types)
            except DiagrelError:
                return False
            # the cocopy and codiscard families are indexed by their codomain
            targets = (m if p.kind[:3] in ("coc", "cod") else n),
            if p.kind in ("idw", "idb") and n != m:
                return False
        for expr, val in zip(p.objs, targets):
            if not _solve_expr(expr, val, b, sig):
                return False
        try:
            return instantiate(p, b, sig) == t
        except UnboundMetavariable:
            return False
    raise RewriteError(f"not a pattern: {p!r}")


def pattern_variables(p, objs, arrows, gens):
    """Collect metavariable names occurring in p into the given sets."""
    if isinstance(p, PVar):
        arrows.add(p.name)
    elif isinstance(p, PGenVar):
        gens.add(p.var)
    elif isinstance(p, PConstM):
        for expr in p.objs:
            for item in expr:
                if isinstance(item, str):
                    objs.add(item)
                elif isinstance(item, tuple):
                    gens.add(item[1])
    elif isinstance(p, PBin):
        pattern_variables(p.l, objs, arrows, gens)
        pattern_variables(p.r, objs, arrows, gens)


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class Axiom:
    name: str
    family: str  # cartesian | cocartesian | linear | fo | structural | generator-adjoint
    kind: str    # "eq" or "le"
    lhs: object
    rhs: object
    arrows: tuple = ()  # ((name, dom-expr, cod-expr), ...)

    def variables(self):
        objs, arrows, gens = set(), set(), set()
        pattern_variables(self.lhs, objs, arrows, gens)
        pattern_variables(self.rhs, objs, arrows, gens)
        for name, de, ce in self.arrows:
            for expr in (de, ce):
                for item in expr:
                    if isinstance(item, str):
                        objs.add(item)
        return objs, arrows, gens


def _oe(*items):
    return tuple(items)


class _Colour:
    """Pattern constructors for one colour; keeps the database compact."""

    def __init__(self, c):
        self.c = c

    def id(self, *e):
        return PConstM("id" + self.c, (_oe(*e),))

    def sym(self, e1, e2):
        e1 = e1 if isinstance(e1, tuple) else (e1,)
        e2 = e2 if isinstance(e2, tuple) else (e2,)
        return PConstM("sym" + self.c, (e1, e2))

    def copy(self, *e):
        return PConstM("copy" + self.c, (_oe(*e),))

    def cocopy(self, *e):
        return PConstM("coc" + self.c, (_oe(*e),))

    def discard(self, *e):
        return PConstM("dsc" + self.c, (_oe(*e),))

    def codiscard(self, *e):
        return PConstM("cod" + self.c, (_oe(*e),))

    def seq(self, p, q):
        return PBin("seq" + self.c, p, q)

    def tens(self, p, q):
        return PBin("tens" + self.c, p, q)


_W = _Colour("w")
_B = _Colour("b")


def _a(name):
    return PVar(name)


def _structural_axioms(col, suffix):
    a, b, c, d = _a("a"), _a("b"), _a("c"), _a("d")
    S, Tn, ID, SY = col.seq, col.tens, col.id, col.sym
    CP, CC, DS, CD = col.copy, col.cocopy, col.discard, col.codiscard
    ax = []

    def eq(name, lhs, rhs, arrows=()):
        ax.append(Axiom(name + suffix, "structural", "eq", lhs, rhs, arrows))

    eq("seq-assoc", S(S(a, b), c), S(a, S(b, c)),
       (("a", ("X",), ("Y",)), ("b", ("Y",), ("Z",)), ("c", ("Z",), ("W",))))
    eq("seq-unit-l", S(ID("X"), a), a, (("a", ("X",), ("Y",)),))
    eq("seq-unit-r", S(a, ID("Y")), a, (("a", ("X",), ("Y",)),))
    eq("tens-assoc", Tn(Tn(a, b), c), Tn(a, Tn(b, c)),
       (("a", ("X1",), ("Y1",)), ("b", ("X2",), ("Y2",)), ("c", ("X3",), ("Y3",))))
    eq("tens-unit-l", Tn(ID(0), a), a, (("a", ("X",), ("Y",)),))
    eq("tens-unit-r", Tn(a, ID(0)), a, (("a", ("X",), ("Y",)),))
    eq("interchange", S(Tn(a, b), Tn(c, d)), Tn(S(a, c), S(b, d)),
       (("a", ("X1",), ("Y1",)), ("b", ("X2",), ("Y2",)),
        ("c", ("Y1",), ("Z1",)), ("d", ("Y2",), ("Z2",))))
    eq("tens-id", Tn(ID("X"), ID("Y")), ID("X", "Y"))
    eq("sym-nat", S(Tn(a, b), SY("Y1", "Y2")), S(SY("X1", "X2"), Tn(b, a)),
       (("a", ("X1",), ("Y1",)), ("b", ("X2",), ("Y2",))))
    eq("sym-inv", S(SY("X", "Y"), SY("Y", "X")), ID("X", "Y"))
    eq("sym-unit-l", SY(0, "X"), ID("X"))
    eq("sym-unit-r", SY("X", 0), ID("X"))
    eq("sym-split-l", SY(("X", "Y"), "Z"),
       S(Tn(ID("X"), SY("Y", "Z")), Tn(SY("X", "Z"), ID("Y"))))
    eq("sym-split-r", SY("X", ("Y", "Z")),
       S(Tn(SY("X", "Y"), ID("Z")), Tn(ID("Y"), SY("X", "Z"))))
    eq("copy-split", CP("X", "Y"),
       S(Tn(CP("X"), CP("Y")), Tn(ID("X"), Tn(SY("X", "Y"), ID("Y")))))
    eq("cocopy-split", CC("X", "Y"),
       S(Tn(ID("X"), Tn(SY("Y", "X"), ID("Y"))), Tn(CC("X"), CC("Y"))))
    eq("discard-split", DS("X", "Y"), Tn(DS("X"), DS("Y")))
    eq("codiscard-split", CD("X", "Y"), Tn(CD("X"), CD("Y")))
    return ax


def _comonoid_axioms(col, suffix, flip):
    """Fig-1-style (co)monoid laws; `flip` reverses the inequalities for the
    cocartesian (black) colour."""
    a = _a("a")
    S, Tn, ID, SY = col.seq, col.tens, col.id, col.sym
    CP, CC, DS, CD = col.copy, col.cocopy, col.discard, col.codiscard
    fam = "cocartesian" if flip else "cartesian"
    ax = []

    def eq(name, lhs, rhs, arrows=()):
        ax.append(Axiom(name + suffix, fam, "eq", lhs, rhs, arrows))

    def le(name, lhs, rhs, arrows=()):
        if flip:
            lhs, rhs = rhs, lhs
        ax.append(Axiom(name + suffix, fam, "le", lhs, rhs, arrows))

    eq("copy-as", S(CP("X"), Tn(CP("X"), ID("X"))), S(CP("X"), Tn(ID("X"), CP("X"))))
    eq("copy-un", S(CP("X"), Tn(ID("X"), DS("X"))), ID("X"))
    eq("copy-un-l", S(CP("X"), Tn(DS("X"), ID("X"))), ID("X"))
    eq("copy-co", S(CP("X"), SY("X", "X")), CP("X"))
    eq("cocopy-as", S(Tn(CC("X"), ID("X")), CC("X")), S(Tn(ID("X"), CC("X")), CC("X")))
    eq("cocopy-un", S(Tn(ID("X"), CD("X")), CC("X")), ID("X"))
    eq("cocopy-un-l", S(Tn(CD("X"), ID("X")), CC("X")), ID("X"))
    eq("cocopy-co", S(SY("X", "X"), CC("X")), CC("X"))
    eq("special", S(CP("X"), CC("X")), ID("X"))
    eq("frob-l", S(CC("X"), CP("X")), S(Tn(ID("X"), CP("X")), Tn(CC("X"), ID("X"))))
    eq("frob-r", S(CC("X"), CP("X")), S(Tn(CP("X"), ID("X")), Tn(ID("X"), CC("X"))))
    le("copy-nat", S(a, CP("Y")), S(CP("X"), Tn(a, a)), (("a", ("X",), ("Y",)),))
    le("discard-nat", S(a, DS("Y")), DS("X"), (("a", ("X",), ("Y",)),))
    le("eta-copy", ID("X"), S(CP("X"), CC("X")))
    le("eps-copy", S(CC("X"), CP("X")), ID("X", "X"))
    le("eta-discard", ID("X"), S(DS("X"), CD("X")))
    le("eps-discard", S(CD("X"), DS("X")), ID())
    return ax


def _linear_axioms():
    a, b, c, d = _a("a"), _a("b"), _a("c"), _a("d")
    ax = []

    def le(name, lhs, rhs, arrows=()):
        ax.append(Axiom(name, "linear", "le", lhs, rhs, arrows))

    chain = (("a", ("X",), ("Y",)), ("b", ("Y",), ("Z",)), ("c", ("Z",), ("W",)))
    le("delta-l", _W.seq(a, _B.seq(b, c)), _B.seq(_W.seq(a, b), c), chain)
    le("delta-r", _W.seq(_B.seq(a, b), c), _B.seq(a, _W.seq(b, c)), chain)
    par = (("a", ("X1",), ("Y1",)), ("b", ("Y1",), ("Z1",)),
           ("c", ("X2",), ("Y2",)), ("d", ("Y2",), ("Z2",)))
    le("nu-wl", _W.tens(_B.seq(a, b), _B.seq(c, d)),
       _B.seq(_W.tens(a, c), _B.tens(b, d)), par)
    le("nu-wr", _W.tens(_B.seq(a, b), _B.seq(c, d)),
       _B.seq(_B.tens(a, c), _W.tens(b, d)), par)
    le("nu-bl", _W.seq(_W.tens(a, c), _B.tens(b, d)),
       _B.tens(_W.seq(a, b), _W.seq(c, d)), par)
    le("nu-br", _W.seq(_B.tens(a, c), _W.tens(b, d)),
       _B.tens(_W.seq(a, b), _W.seq(c, d)), par)
    le("tau-sym", _W.id("X", "Y"), _B.seq(_W.sym("X", "Y"), _B.sym("Y", "X")))
    le("gamma-sym", _W.seq(_B.sym("X", "Y"), _W.sym("Y", "X")), _B.id("X", "Y"))
    le("tau-sym-b", _W.id("X", "Y"), _B.seq(_B.sym("X", "Y"), _W.sym("Y", "X")))
    le("gamma-sym-b", _W.seq(_W.sym("X", "Y"), _B.sym("Y", "X")), _B.id("X", "Y"))
    le("tens-id-black-lax", _W.tens(_B.id("X"), _B.id("Y")), _B.id("X", "Y"))
    le("tens-id-white-colax", _W.id("X", "Y"), _B.tens(_W.id("X"), _W.id("Y")))
    return ax


def _fo_axioms():
    """Linear adjointness of the white constants to their black mirrors,
    plus the mixed-colour Frobenius equalities."""
    ax = []

    def le(name, lhs, rhs):
        ax.append(Axiom(name, "fo", "le", lhs, rhs))

    def eq(name, lhs, rhs):
        ax.append(Axiom(name, "fo", "eq", lhs, rhs))

    X, XX, O = ("X",), ("X", "X"), ()
    pairs = [
        ("copy", _W.copy("X"), _B.cocopy("X"), X, XX),
        ("discard", _W.discard("X"), _B.codiscard("X"), X, O),
        ("cocopy", _W.cocopy("X"), _B.copy("X"), XX, X),
        ("codiscard", _W.codiscard("X"), _B.discard("X"), O, X),
    ]
    for name, w, bl, dn, dm in pairs:
        le("tau-" + name, PConstM("idw", (dn,)), _B.seq(w, bl))
        le("gamma-" + name, _W.seq(bl, w), PConstM("idb", (dm,)))
        le("tau-" + name + "-rev", PConstM("idw", (dm,)), _B.seq(bl, w))
        le("gamma-" + name + "-rev", _W.seq(w, bl), PConstM("idb", (dn,)))

    # mixed-colour Frobenius: in each ambient colour, the S-shaped composite
    # with one dot of each colour equals the corresponding Z-shape
    for tag, col in (("F-bw", _W), ("F-wb", _B)):
        S, Tn, ID = col.seq, col.tens, col.id
        eq(tag,
           S(Tn(ID("X"), _W.copy("X")), Tn(_B.cocopy("X"), ID("X"))),
           S(Tn(_B.copy("X"), ID("X")), Tn(ID("X"), _W.cocopy("X"))))
        eq(tag + "2",
           S(Tn(ID("X"), _B.copy("X")), Tn(_W.cocopy("X"), ID("X"))),
           S(Tn(_W.copy("X"), ID("X")), Tn(ID("X"), _B.cocopy("X"))))
    return ax


def _generator_axioms():
    r, rop = PGenVar("r"), PGenVar("r", op=True)
    dn, dm = (("dom", "r"),), (("cod", "r"),)
    ax = []

    def le(name, lhs, rhs):
        ax.append(Axiom(name, "generator-adjoint", "le", lhs, rhs))

    le("gen-tau", PConstM("idw", (dn,)), _B.seq(r, rop))
    le("gen-gamma", _W.seq(rop, r), PConstM("idb", (dm,)))
    le("gen-tau-rev", PConstM("idw", (dm,)), _B.seq(rop, r))
    le("gen-gamma-rev", _W.seq(r, rop), PConstM("idb", (dn,)))
    return ax


@functools.cache
def _axioms():
    """The axiom tuple and the same axioms keyed by name, built once."""
    ax = []
    ax += _structural_axioms(_W, "")
    ax += _structural_axioms(_B, "-b")
    ax += _comonoid_axioms(_W, "", flip=False)
    ax += _comonoid_axioms(_B, "-b", flip=True)
    ax += _linear_axioms()
    ax += _fo_axioms()
    ax += _generator_axioms()
    by_name = {x.name: x for x in ax}
    assert len(by_name) == len(ax), "duplicate axiom name"
    return tuple(ax), by_name


def axiom_db():
    """The full, immutable axiom database, keyed by stable names."""
    return list(_axioms()[0])


def axiom_by_name(name):
    try:
        return _axioms()[1][name]
    except KeyError:
        raise RewriteError(f"unknown axiom {name!r}") from None


# ---------------------------------------------------------------------------
# rewriting


@dataclass(frozen=True)
class Step:
    axiom: str
    position: tuple
    direction: str  # l2r | r2l
    bindings: tuple = ()  # ((name, value), ...)


def _infer_arrow_types(axiom, binding, sig, types=None):
    """Bind remaining object metavariables from the types of matched arrows,
    in one pass: a solve that fails raises, so a second pass binds nothing."""
    for name, de, ce in axiom.arrows:
        v = binding.get(name)
        if not isinstance(v, Term):
            continue
        n, m = typecheck(v, sig, types=types)
        for expr, val in ((de, n), (ce, m)):
            if not _solve_expr(expr, val, binding, sig):
                raise RewriteError(
                    f"arrow {name!r} bound to a term of type {(n, m)} "
                    f"incompatible with its declared type")


def apply_step(t, step, sig=EMPTY_SIGNATURE, types=None):
    """Apply one rewrite step to t; raises RewriteError when it is invalid.
    One walk to the position serves the match and the rebuild; `types` is a
    `typecheck` memo for the match, the arrow types and the replacement."""
    axiom = axiom_by_name(step.axiom)
    if step.direction not in ("l2r", "r2l"):
        raise RewriteError(f"bad direction {step.direction!r}")
    if step.direction == "r2l" and axiom.kind == "le":
        raise RewriteError(
            f"axiom {axiom.name} is an inequality; r2l would rewrite downward")
    if step.bindings:
        objs = axiom.variables()[0]
        for name, value in step.bindings:
            if name in objs and type(value) is not int:
                raise RewriteError(f"object metavariable {name!r} must be bound to a number")
    src, dst = (axiom.lhs, axiom.rhs) if step.direction == "l2r" else (axiom.rhs, axiom.lhs)
    spine = spine_at(t, step.position)
    binding = match_pattern(src, spine[-1], sig, dict(step.bindings), types)
    if binding is None:
        raise RewriteError(
            f"axiom {axiom.name} ({step.direction}) does not match at "
            f"{format_position(step.position)}")
    _infer_arrow_types(axiom, binding, sig, types)
    try:
        repl = instantiate(dst, binding, sig)
    except UnboundMetavariable as e:
        raise RewriteError(f"{e}; supply it with an explicit `with` binding") from None
    return replace_at(t, step.position, repl, sig, types, spine)


# ---------------------------------------------------------------------------
# proof scripts


@dataclass(frozen=True)
class ProofScript:
    lhs: Term
    rhs: Term
    steps: tuple


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step_index: int = -1
    reason: str = ""

    def __str__(self):
        if self.accepted:
            return "accepted"
        where = "claim" if self.step_index < 0 else f"step {self.step_index + 1}"
        return f"rejected at {where}: {self.reason}"


def _parse_position(text):
    text = text.strip()
    if text in ("ε", "e", ""):
        return ()
    try:
        return tuple(map(int, text.split(".")))
    except ValueError:
        raise ParseError(f"bad position {text!r}") from None


def _parse_bindings(text, sig):
    out = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        eq = text.find("=", i)
        if eq < 0:
            raise ParseError(f"bad binding clause {text[i:]!r}")
        name = text[i:eq].strip()
        i = eq + 1
        if text.startswith("(", i):  # a term: up to the matching parenthesis
            depth = 0
            for k in range(i, len(text)):
                depth += (text[k] == "(") - (text[k] == ")")
                if not depth:
                    break
            else:
                raise ParseError(f"unbalanced parentheses in binding {name!r}")
            raw = text[i:k + 1]
        else:
            raw = re.match(r"\S*", text[i:])[0]
        i += len(raw)
        if not raw:
            raise ParseError(f"empty binding for {name!r}")
        if raw.lstrip("-").isdecimal():
            value = int(raw)
            if value < 0:
                raise ParseError(f"negative object binding for {name!r}")
        elif raw.startswith("(") or raw in T.CONSTANT_TYPES:
            value = parse_term(raw, sig)
        else:
            value = raw  # generator-name binding
        out.append((name, value))
    return tuple(out)


# Every part is optional, so any line starting with `step` matches and the
# first missing group names the error.  The position runs up to the first
# ` dir `, the direction up to the first ` with`, without backtracking.
_STEP_LINE = re.compile(
    r"step\s*(?:(\S+)\s+)?(at)?\s*([^ ]*(?: (?!dir )[^ ]*)*)"
    r"(?: dir \s*([^ ]*(?: (?!with(?: |$))[^ ]*)*)(?: with(?: (.*))?)?)?")


def parse_proof(text, sig):
    """Parse a proof file:

        prove TERM <= TERM
        step AXIOM at POS dir l2r|r2l [with X=3 a=(gen R)]
        qed
    """
    lhs = rhs = None
    steps = []
    seen_qed = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_qed:
            raise ParseError("content after qed", lineno, 1)
        if line.startswith("prove"):
            if lhs is not None:
                raise ParseError("duplicate prove line", lineno, 1)
            lhs, rhs = parse_inequality(line[len("prove"):], sig)
        elif line.startswith("step"):
            if lhs is None:
                raise ParseError("step before prove", lineno, 1)
            name, at, pos, direction, bindings = _STEP_LINE.fullmatch(line).groups()
            if not name:
                raise ParseError("step needs an axiom name", lineno, 1)
            if not at:
                raise ParseError("expected `at POSITION`", lineno, 1)
            if direction is None:
                raise ParseError("expected `dir l2r|r2l`", lineno, 1)
            direction = direction.strip()
            if direction not in ("l2r", "r2l"):
                raise ParseError(f"bad direction {direction!r}", lineno, 1)
            steps.append(Step(name, _parse_position(pos), direction,
                              _parse_bindings(bindings or "", sig)))
        elif line == "qed":
            if lhs is None:
                raise ParseError("qed before prove", lineno, 1)
            seen_qed = True
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno, 1)
    if lhs is None:
        raise ParseError("missing prove line")
    if not seen_qed:
        raise ParseError("missing qed")
    return ProofScript(lhs, rhs, tuple(steps))


def check_proof(script, sig=EMPTY_SIGNATURE):
    """Validate an increasing rewrite chain from claim lhs to claim rhs.
    The steps share one `typecheck` memo, which lives for this call and this
    `sig`: a subtree that steps leave untouched is typed once."""
    try:
        ty1 = typecheck(script.lhs, sig)
        ty2 = typecheck(script.rhs, sig)
    except DiagrelError as e:
        return Verdict(False, -1, f"claim does not typecheck: {e}")
    if ty1 != ty2:
        return Verdict(False, -1, f"claim types differ: {ty1} vs {ty2}")
    cur = desugar(script.lhs, sig)
    goal = desugar(script.rhs, sig)
    types = {}
    for idx, step in enumerate(script.steps):
        try:
            cur = apply_step(cur, step, sig, types)
        except DiagrelError as e:
            return Verdict(False, idx, str(e))
    if cur != goal:
        return Verdict(
            False, len(script.steps),
            f"final term {print_term(cur)} differs from goal {print_term(goal)}")
    return Verdict(True)


def random_interpretation(sig, k, rng):
    assignment = {}
    for name, (n, m) in sorted(sig.generators.items()):
        size = space_bits(k, n, m)
        assignment[name] = FinRelation(k, n, m, rng.getrandbits(size) if size else 0)
    return Interpretation(sig, k, assignment)


def semantic_spotcheck(script, sig=EMPTY_SIGNATURE, trials=50, k=2, seed=0):
    """Evaluate the claim on random interpretations; a countermodel would
    indicate a kernel bug.  Returns (ok, countermodel-or-None)."""
    rng = random.Random(seed)
    for _ in range(trials):
        interp = random_interpretation(sig, k, rng)
        lhs = evaluate(script.lhs, interp)
        rhs = evaluate(script.rhs, interp)
        if not included(lhs, rhs):
            return False, (interp, inclusion_witness(lhs, rhs))
    return True, None


# ---------------------------------------------------------------------------
# axiom verification against the relation model


@dataclass(frozen=True)
class AxiomReport:
    name: str
    family: str
    trials: int
    failures: int
    counterexample: str = ""

    @property
    def ok(self):
        return self.failures == 0


def _random_instance(axiom, rng, max_obj=2):
    binding = {}
    objs, arrows, gens = axiom.variables()
    for v in sorted(objs):
        binding[v] = rng.randint(0, max_obj)
    generators = {}
    for g in sorted(gens):
        name = "~" + g
        generators[name] = (rng.randint(0, max_obj), rng.randint(0, max_obj))
        binding[g] = name
    sig_partial = Signature(generators)
    for name, de, ce in axiom.arrows:
        n = _expr_value(de, binding, sig_partial)
        m = _expr_value(ce, binding, sig_partial)
        generators["~" + name] = (n, m)
        binding[name] = Gen("~" + name)
    sig = Signature(generators)
    lhs = instantiate(axiom.lhs, binding, sig)
    rhs = instantiate(axiom.rhs, binding, sig)
    return sig, lhs, rhs, binding


def verify_axiom(axiom, k=2, trials=200, seed=0, max_obj=2):
    rng = random.Random((axiom.name, k, seed).__repr__())
    failures = 0
    counterexample = ""
    objs, arrows, gens = axiom.variables()
    constant_axiom = not arrows and not gens
    seen = {}
    for _ in range(trials):
        sig, lhs, rhs, binding = _random_instance(axiom, rng, max_obj)
        interp = random_interpretation(sig, k, rng)
        key = tuple(sorted((v, binding[v]) for v in objs))
        if constant_axiom and key in seen:
            # no arrow or generator metavariables: the instance value depends
            # only on the object binding, so reuse the earlier verdict
            bad = seen[key]
            if bad:
                failures += 1
            continue
        cache = {}
        lv = evaluate(lhs, interp, _cache=cache)
        rv = evaluate(rhs, interp, _cache=cache)
        bad = not (included(lv, rv) and (axiom.kind == "le" or included(rv, lv)))
        if constant_axiom:
            seen[key] = bad
        if bad:
            failures += 1
            if not counterexample:
                counterexample = (
                    f"binding={binding} lhs={print_term(lhs)} rhs={print_term(rhs)} "
                    f"witness={inclusion_witness(lv, rv) or inclusion_witness(rv, lv)}")
    return AxiomReport(axiom.name, axiom.family, trials, failures, counterexample)


def verify_axioms(k=2, trials=200, seed=0, family=None, axioms=None):
    """Check every axiom against random instantiations in the relation model."""
    if axioms is None:
        axioms = axiom_db()
    if family is not None:
        axioms = [ax for ax in axioms if ax.family == family]
    return [verify_axiom(ax, k=k, trials=trials, seed=seed) for ax in axioms]


# ---------------------------------------------------------------------------
# spider normal forms


class SpiderError(DiagrelError):
    pass


@dataclass(frozen=True)
class SpiderForm:
    n: int
    m: int
    colour: str
    partition: frozenset  # frozenset of frozensets of port labels "inI"/"outJ"
    closed: int = field(compare=False, default=0)


class _DSU:
    def __init__(self):
        self.parent = []

    def fresh(self):
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def spider_normalize(t, sig=EMPTY_SIGNATURE):
    """Normalize a single-colour Frobenius-fragment term to its boundary-port
    partition plus a count of closed connected components."""
    typecheck(t, sig)
    t = desugar(t, sig)
    colour = _fragment_colour(t)
    dsu = _DSU()

    def walk(t):
        cls = type(t)
        if cls is IdW or cls is IdB:
            ports = [dsu.fresh() for _ in range(t.n)]
            return ports, list(ports)
        if cls is SymW or cls is SymB:
            ports = [dsu.fresh() for _ in range(t.m + t.n)]
            return list(ports), ports[t.m:] + ports[:t.m]
        if cls is T.Const:
            p = dsu.fresh()  # every wire of a (co)monoid constant is one port
            n, m = T.CONSTANT_TYPES[t.kind]
            return [p] * n, [p] * m
        if cls is SeqW or cls is SeqB:
            i1, o1 = walk(t.t)
            i2, o2 = walk(t.u)
            for x, y in zip(o1, i2):
                dsu.union(x, y)
            return i1, o2
        i1, o1 = walk(t.t)  # TensW / TensB
        i2, o2 = walk(t.u)
        return i1 + i2, o1 + o2

    ins, outs = walk(t)
    labels = {}
    for i, p in enumerate(ins):
        labels.setdefault(dsu.find(p), []).append(f"in{i}")
    for j, p in enumerate(outs):
        labels.setdefault(dsu.find(p), []).append(f"out{j}")
    closed = sum(1 for p in range(len(dsu.parent))
                 if dsu.find(p) == p and dsu.find(p) not in labels)
    partition = frozenset(frozenset(v) for v in labels.values())
    return SpiderForm(len(ins), len(outs), colour, partition, closed)


# the colour of each primitive class but Const: the last letter of its head
_HEAD_COLOUR = {cls: head[-1] for head, (cls, _) in T.FORMS.items() if cls in T.MIRROR}


def _fragment_colour(t):
    colours = set()

    def scan(t, path):
        if type(t) is T.Const:
            colours.add(t.kind[-1])
        elif type(t) in _HEAD_COLOUR:
            colours.add(_HEAD_COLOUR[type(t)])
        else:
            raise SpiderError(
                f"outside Frobenius fragment: {print_term(t)} at "
                f"{format_position(path)}")
        for i, kid in enumerate(T.children(t)):
            scan(kid, path + (i,))

    scan(t, ())
    if len(colours) > 1:
        raise SpiderError("mixed colours: term outside either Frobenius fragment")
    return colours.pop() if colours else "w"


def spider_relation(form, k):
    """The relation a spider form denotes at carrier k: coordinates equal
    within each partition block (white) or its complement (black).

    A closed component is an existential over the carrier, so at k = 0 it
    empties the white relation.  Form equality ignores closed components:
    equal forms denote equal relations only for k >= 1."""
    block_of = {}
    for block in form.partition:
        for label in block:
            block_of[label] = block
    pairs = []
    for xs in itertools.product(range(k), repeat=form.n):
        for ys in itertools.product(range(k), repeat=form.m):
            vals = {}
            ok = True
            for label, v in [(f"in{i}", x) for i, x in enumerate(xs)] + \
                            [(f"out{j}", y) for j, y in enumerate(ys)]:
                blk = block_of[label]
                if blk in vals and vals[blk] != v:
                    ok = False
                    break
                vals[blk] = v
            if ok:
                pairs.append((xs, ys))
    if k == 0 and form.closed:
        pairs = []  # a closed component has no value to take
    rel = FinRelation.from_pairs(k, form.n, form.m, pairs)
    return rel if form.colour == "w" else complement(rel)
