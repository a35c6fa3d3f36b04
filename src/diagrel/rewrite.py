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
import random
import re
from dataclasses import dataclass, field

from . import terms as T
from .finrel import (
    FinRelation, Interpretation, evaluate, evaluate_typed, included, inclusion_witness,
    space_bits,
)
from .terms import (
    DiagrelError, EMPTY_SIGNATURE, Gen, GenOp, IdB, IdW, ParseError, SeqB,
    SeqW, Signature, SymB, SymW, Term, desugar, format_position,
    parse_inequality, print_term, read_lines, replace_at, spine_at, typecheck,
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


def _solver(expr):
    """`_solve_expr` for expr; a lone object variable or a literal sum inline."""
    if len(expr) == 1 and type(expr[0]) is str:
        name = expr[0]

        def solve(value, b, sig):
            if name in b:
                return b[name] == value
            b[name] = value  # a failed solve fails the whole step or match
            return value >= 0
    elif all(type(item) is int for item in expr):
        total = sum(expr)

        def solve(value, b, sig):
            return value == total
    else:
        def solve(value, b, sig):
            return _solve_expr(expr, value, b, sig)
    return solve


@functools.cache
def _compiled(p):
    """p compiled into a matcher `match(t, sig, b, types)`, which extends the
    binding b and says whether t is an instance of p, and a builder `build(b, sig)`."""
    cls = type(p)
    if cls is PVar:
        name = p.name

        def match(t, sig, b, types):
            bound = b.setdefault(name, t)
            return bound is t or bound == t

        def build(b, sig):
            if name not in b:
                raise UnboundMetavariable(f"arrow metavariable {name!r} unbound")
            if not isinstance(b[name], Term):
                raise RewriteError(f"binding for {name!r} is not a term")
            return b[name]
    elif cls is PGenVar:
        var, node = p.var, GenOp if p.op else Gen

        def match(t, sig, b, types):
            return type(t) is node and b.setdefault(var, t.name) == t.name

        def build(b, sig):
            if var not in b:
                raise UnboundMetavariable(f"generator metavariable {var!r} unbound")
            if b[var] not in sig.generators:
                raise RewriteError(f"unknown generator {b[var]!r} for metavariable {var!r}")
            return node(b[var])
    elif cls is PBin:
        node = T.FORMS[p.op][0]
        (match_l, build_l), (match_r, build_r) = _compiled(p.l), _compiled(p.r)

        def match(t, sig, b, types):
            return type(t) is node and match_l(t.t, sig, b, types) and match_r(t.u, sig, b, types)

        def build(b, sig):
            return node(build_l(b, sig), build_r(b, sig))
    elif cls is PConstM:
        ctor = _MACROS.get(p.kind) or T.FORMS[p.kind][0]
        objs, solve = p.objs, _solver(p.objs[0])

        def build(b, sig):
            return ctor(*[_expr_value(e, b, sig) for e in objs])

        if p.kind in ("symw", "symb"):
            solve_n = _solver(objs[1])

            def match(t, sig, b, types):
                return type(t) is ctor and solve(t.m, b, sig) and solve_n(t.n, b, sig)
        elif p.kind in ("idw", "idb") and not any(type(i) is tuple for i in objs[0]):
            def match(t, sig, b, types):
                return type(t) is ctor and t.n >= 0 and solve(t.n, b, sig)
        else:
            # a (co)monoid family, or an identity at a generator's arity (whose
            # solve may raise first): the arity is read off the type, and the
            # expansion is built only if the root has its class at that arity
            roots = [type(ctor(arity)) for arity in range(3)]
            by_cod, square = p.kind[:3] in ("coc", "cod"), p.kind in ("idw", "idb")

            def match(t, sig, b, types):
                try:
                    n, m = typecheck(t, sig, types=types)
                except DiagrelError:
                    return False
                arity = m if by_cod else n
                return ((n == m or not square) and solve(arity, b, sig)
                        and type(t) is roots[min(arity, 2)] and instantiate(p, b, sig) == t)
    else:
        raise RewriteError(f"not a pattern: {p!r}")
    return match, build


def instantiate(p, binding, sig=EMPTY_SIGNATURE):
    """Build the term denoted by pattern p under the given bindings."""
    return _compiled(p)[1](binding, sig)


def match_pattern(p, t, sig=EMPTY_SIGNATURE, binding=None, types=None):
    """Syntactic matching: bindings σ with instantiate(p, σ) = t, or None."""
    b = dict(binding) if binding else {}
    return b if _compiled(p)[0](t, sig, b, types) else None


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


@functools.cache
def _rule(name, direction):
    """The rewrite rule of axiom `name` in a direction it may be applied in,
    compiled on first use: the axiom, the source's matcher, the target's
    builder and a (name, dom solver, cod solver) per arrow metavariable."""
    axiom = axiom_by_name(name)
    if direction not in ("l2r", "r2l"):
        raise RewriteError(f"bad direction {direction!r}")
    if direction == "r2l" and axiom.kind == "le":
        raise RewriteError(f"axiom {axiom.name} is an inequality; r2l would rewrite downward")
    src, dst = (axiom.lhs, axiom.rhs) if direction == "l2r" else (axiom.rhs, axiom.lhs)
    arrows = tuple((v, _solver(de), _solver(ce)) for v, de, ce in axiom.arrows)
    return axiom, _compiled(src)[0], _compiled(dst)[1], arrows


def apply_step(t, step, sig=EMPTY_SIGNATURE, types=None):
    """Apply one rewrite step to t; raises RewriteError when it is invalid.
    One walk to the position serves the match and the rebuild; `types` is a
    `typecheck` memo for the match, the arrow types and the replacement,
    which bind the object metavariables the match left unbound, in one pass."""
    axiom, match, build, arrows = _rule(step.axiom, step.direction)
    if step.bindings:
        objs, arrow_vars, gens = axiom.variables()
        for name, value in step.bindings:
            if name in objs and type(value) is not int:
                raise RewriteError(f"object metavariable {name!r} must be bound to a number")
            if name in arrow_vars and not isinstance(value, Term):
                raise RewriteError(f"arrow metavariable {name!r} must be bound to a term")
            if name in gens and type(value) is not str:
                raise RewriteError(f"generator metavariable {name!r} must be bound to a generator")
    spine = spine_at(t, step.position)
    binding = dict(step.bindings)
    if not match(spine[-1], sig, binding, types):
        raise RewriteError(
            f"axiom {axiom.name} ({step.direction}) does not match at "
            f"{format_position(step.position)}")
    for name, solve_dom, solve_cod in arrows:
        if isinstance(binding.get(name), Term):
            n, m = typecheck(binding[name], sig, types=types)
            if not (solve_dom(n, binding, sig) and solve_cod(m, binding, sig)):
                raise RewriteError(
                    f"arrow {name!r} bound to a term of type {(n, m)} "
                    f"incompatible with its declared type")
    try:
        repl = build(binding, sig)
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


@functools.lru_cache(maxsize=4096)  # a long proof has few distinct positions
def _parse_position(text):
    text = text.strip()
    if text in ("ε", "e", ""):
        return ()
    try:  # natural numbers joined by dots; `int` refuses an empty one
        if text.isascii() and text.replace(".", "").isdigit():
            return tuple(map(int, text.split(".")))
    except ValueError:
        pass
    raise ParseError(f"bad position {text!r}")


def _parse_bindings(text, sig, line, col):
    """Read `NAME=ATOM` and `NAME=(...)` bindings, which start at (line, col); an
    atom is a natural number, a constant or a generator name."""
    tokens = list(T.tokenize(text, line, col))
    out, pos = [], 0
    while pos < len(tokens):
        tok, _, at = tokens[pos]
        pos += 1
        name, eq, atom = tok.partition("=")
        if not eq:
            raise ParseError(f"bad binding clause {text[at - col:]!r}")
        if atom:
            value = T.natural(atom)
            if value is None:
                value = T.Const(atom) if atom in T.CONSTANT_TYPES else atom
            elif value < 0:
                raise ParseError(f"negative object binding for {name!r}")
        elif pos < len(tokens) and tokens[pos][0] == "(":
            try:
                sx, pos = T.read_sexpr(tokens, pos)
            except ParseError:
                raise ParseError(f"unbalanced parentheses in binding {name!r}") from None
            value = T.build_term(sx, sig)
        else:
            raise ParseError(f"empty binding for {name!r}")
        out.append((name, value))
    return tuple(out)


# Every part is optional, so any line starting with `step` matches and the
# first missing group names the error.  The position runs up to the first
# ` dir `, the direction up to the first ` with`, without backtracking.
_STEP_LINE = re.compile(
    r"step\s*(?:(\S+)\s+)?(at)?\s*([^ ]*(?: (?!dir )[^ ]*)*)"
    r"(?: dir \s*([^ ]*(?: (?!with(?: |$))[^ ]*)*)(?: with(?: (.*))?)?)?")


def parse_proof(text, sig):
    """Parse a proof file (see `terms` for the format)."""
    lhs = rhs = None
    steps = []
    seen_qed = False
    for lineno, col, line in read_lines(text):
        if seen_qed:
            raise ParseError("content after qed", lineno, 1)
        if line.startswith("prove"):
            if lhs is not None:
                raise ParseError("duplicate prove line", lineno, 1)
            lhs, rhs = parse_inequality(line[5:], sig, lineno, col + 5)  # after "prove"
        elif line.startswith("step"):
            if lhs is None:
                raise ParseError("step before prove", lineno, 1)
            match = _STEP_LINE.fullmatch(line)
            name, at, pos, direction, bindings = match.groups()
            if not name:
                raise ParseError("step needs an axiom name", lineno, 1)
            if not at:
                raise ParseError("expected `at POSITION`", lineno, 1)
            if direction is None:
                raise ParseError("expected `dir l2r|r2l`", lineno, 1)
            direction = direction.strip()
            if direction not in ("l2r", "r2l"):
                raise ParseError(f"bad direction {direction!r}", lineno, 1)
            steps.append(Step(name, _parse_position(pos), direction, _parse_bindings(
                bindings, sig, lineno, col + match.start(5)) if bindings else ()))
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


def check_trials(trials, k):
    """Refuse a negative trial count, or carrier size (by `space_bits`), before any work."""
    if trials < 0:
        raise DiagrelError(f"trials must be non-negative, got {trials}")
    space_bits(k, 0, 0)


def semantic_spotcheck(script, sig=EMPTY_SIGNATURE, trials=50, k=2, seed=0):
    """Evaluate the claim on random interpretations; a countermodel would
    indicate a kernel bug.  Returns (ok, countermodel-or-None)."""
    check_trials(trials, k)
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


def _instance(axiom, objs, gens, draws):
    """(sig, lhs, rhs, binding) of `axiom` for the values drawn in a trial: one per
    object metavariable in `objs`, then two per generator metavariable in `gens`."""
    binding = {**dict(zip(objs, draws)), **{g: "~" + g for g in gens}}
    arities = iter(draws[len(objs):])
    generators = {"~" + g: (next(arities), next(arities)) for g in gens}
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
    """Check `axiom` on `trials` random instances at carrier k.  Instances are
    memoized on each trial's drawn values (see `_instance`): built and
    typechecked (by `evaluate`) when first drawn, later evaluated through the
    typed entry; each trial still draws a fresh interpretation.  An axiom with no
    arrow or generator metavariables has none, so its verdict is memoized too."""
    check_trials(trials, k)
    rng = random.Random((axiom.name, k, seed).__repr__())
    failures = 0
    counterexample = ""
    objs, arrows, gens = axiom.variables()
    objs, gens = sorted(objs), sorted(gens)
    constant_axiom = not arrows and not gens
    memo = {}  # drawn values -> [sig, lhs, rhs, binding, verdict or None]
    for _ in range(trials):
        draws = tuple(rng.randint(0, max_obj) for _ in range(len(objs) + 2 * len(gens)))
        entry = memo.get(draws)
        if fresh := entry is None:
            entry = memo[draws] = [*_instance(axiom, objs, gens, draws), None]
        sig, lhs, rhs, binding, bad = entry
        interp = random_interpretation(sig, k, rng)
        if bad is None:
            cache = {}
            ev = evaluate if fresh else evaluate_typed
            lv = ev(lhs, interp, cache)
            rv = ev(rhs, interp, cache)
            bad = not (included(lv, rv) and (axiom.kind == "le" or included(rv, lv)))
            if constant_axiom:
                # the instance value depends only on the drawn values
                entry[4] = bad
            if bad and not counterexample:
                counterexample = (
                    f"binding={binding} lhs={print_term(lhs)} rhs={print_term(rhs)} "
                    f"witness={inclusion_witness(lv, rv) or inclusion_witness(rv, lv)}")
        failures += bad
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
