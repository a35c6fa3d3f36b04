"""Axiom database, pattern matching, positional inequational rewriting,
proof-script checking, and the spider normalizer.

A proof of `s <= t` is an increasing chain of rewrite steps: inequational
axioms may only be applied left-to-right (every term context is monotone,
so replacing a subterm by a larger one enlarges the whole), equalities in
either direction.  Matching is purely syntactic — no matching modulo
associativity; the structural axioms are explicit proof steps.

The database writes 61 laws and derives the other 45 as their colour
switches (`_mirrored`); each builder names the laws it derives.
"""

from __future__ import annotations

import functools
import random
import re
from operator import attrgetter

from . import terms as T
from .finrel import (
    FinRelation, Interpretation, evaluate_typed, inclusion_witness, space_bits,
)
from .terms import (
    DiagrelError, EMPTY_SIGNATURE, Gen, GenOp, IdB, IdW, ParseError, Record, SeqB,
    SeqW, Signature, SymB, SymW, Term, desugar, format_position,
    parse_inequality, print_term, read_lines, replace_at, slot_setters, spine_at, typecheck,
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


class PVar(Record):
    __slots__ = ("name",)


class PGenVar(Record):
    __slots__ = ("var", "op")
    _defaults = {"op": False}


class PConstM(Record):
    """An arity-indexed constant macro: identity, symmetry or one of the
    eight (co)monoid families, at objects given by object expressions."""

    __slots__ = ("kind", "objs")


class PBin(Record):
    __slots__ = ("op", "l", "r")  # op: seqw | seqb | tensw | tensb


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
        # a (co)monoid family is a `terms.macro`, an identity or symmetry its form
        ctor = T.FORMS[p.kind][0] if p.kind in T.FORMS else functools.partial(T.macro, p.kind)
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
                        and type(t) is roots[min(arity, 2)] and build(b, sig) == t)
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


class Axiom(Record):
    # family: cartesian | cocartesian | linear | fo | structural | generator-adjoint;
    # kind: "eq" or "le"; arrows: ((name, dom-expr, cod-expr), ...)
    __slots__ = ("name", "family", "kind", "lhs", "rhs", "arrows")
    _defaults = {"arrows": ()}

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


class _Colour:
    """Pattern constructors for one colour; keeps the database compact."""

    def __init__(self, c):
        self.c = c

    def id(self, *e):
        return PConstM("id" + self.c, (e,))

    def sym(self, e1, e2):  # each an object expression or its one item
        return PConstM("sym" + self.c, tuple(e if type(e) is tuple else (e,) for e in (e1, e2)))

    def copy(self, *e):
        return PConstM("copy" + self.c, (e,))

    def cocopy(self, *e):
        return PConstM("coc" + self.c, (e,))

    def discard(self, *e):
        return PConstM("dsc" + self.c, (e,))

    def codiscard(self, *e):
        return PConstM("cod" + self.c, (e,))

    def seq(self, p, q):
        return PBin("seq" + self.c, p, q)

    def tens(self, p, q):
        return PBin("tens" + self.c, p, q)


_W = _Colour("w")
_B = _Colour("b")  # only for the laws that mix colours


def _switch(p):
    """The colour switch of a pattern; a metavariable stands for its own."""
    if type(p) is PBin:
        return PBin(T.mirror_head(p.op), _switch(p.l), _switch(p.r))
    return PConstM(T.mirror_head(p.kind), p.objs) if type(p) is PConstM else p


def _mirrored(axiom, name, family):
    """The De Morgan dual of `axiom`, named `name` in `family`: its colour
    switch, which reverses inclusion, so the sides of an inequality swap."""
    sides = (axiom.rhs, axiom.lhs) if axiom.kind == "le" else (axiom.lhs, axiom.rhs)
    return Axiom(name, family, axiom.kind, *map(_switch, sides), axiom.arrows)


def _structural_axioms():
    """The white laws of a symmetric monoidal category with (co)monoids;
    the black ones (suffix `-b`) are their mirrors."""
    a, b, c, d = PVar("a"), PVar("b"), PVar("c"), PVar("d")
    S, Tn, ID, SY = _W.seq, _W.tens, _W.id, _W.sym
    CP, CC, DS, CD = _W.copy, _W.cocopy, _W.discard, _W.codiscard
    ax = []

    def eq(name, lhs, rhs, arrows=()):
        ax.append(Axiom(name, "structural", "eq", lhs, rhs, arrows))

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
    return ax + [_mirrored(x, x.name + "-b", "structural") for x in ax]


def _comonoid_axioms():
    """Fig-1-style (co)monoid laws of the cartesian (white) colour; the
    cocartesian (black, suffix `-b`) laws are their mirrors."""
    a = PVar("a")
    S, Tn, ID, SY = _W.seq, _W.tens, _W.id, _W.sym
    CP, CC, DS, CD = _W.copy, _W.cocopy, _W.discard, _W.codiscard
    ax = []

    def law(kind, name, lhs, rhs, arrows=()):
        ax.append(Axiom(name, "cartesian", kind, lhs, rhs, arrows))

    law("eq", "copy-as", S(CP("X"), Tn(CP("X"), ID("X"))), S(CP("X"), Tn(ID("X"), CP("X"))))
    law("eq", "copy-un", S(CP("X"), Tn(ID("X"), DS("X"))), ID("X"))
    law("eq", "copy-un-l", S(CP("X"), Tn(DS("X"), ID("X"))), ID("X"))
    law("eq", "copy-co", S(CP("X"), SY("X", "X")), CP("X"))
    law("eq", "cocopy-as", S(Tn(CC("X"), ID("X")), CC("X")), S(Tn(ID("X"), CC("X")), CC("X")))
    law("eq", "cocopy-un", S(Tn(ID("X"), CD("X")), CC("X")), ID("X"))
    law("eq", "cocopy-un-l", S(Tn(CD("X"), ID("X")), CC("X")), ID("X"))
    law("eq", "cocopy-co", S(SY("X", "X"), CC("X")), CC("X"))
    law("eq", "special", S(CP("X"), CC("X")), ID("X"))
    law("eq", "frob-l", S(CC("X"), CP("X")), S(Tn(ID("X"), CP("X")), Tn(CC("X"), ID("X"))))
    law("eq", "frob-r", S(CC("X"), CP("X")), S(Tn(CP("X"), ID("X")), Tn(ID("X"), CC("X"))))
    law("le", "copy-nat", S(a, CP("Y")), S(CP("X"), Tn(a, a)), (("a", ("X",), ("Y",)),))
    law("le", "discard-nat", S(a, DS("Y")), DS("X"), (("a", ("X",), ("Y",)),))
    law("le", "eta-copy", ID("X"), S(CP("X"), CC("X")))
    law("le", "eps-copy", S(CC("X"), CP("X")), ID("X", "X"))
    law("le", "eta-discard", ID("X"), S(DS("X"), CD("X")))
    law("le", "eps-discard", S(CD("X"), DS("X")), ID())
    return ax + [_mirrored(x, x.name + "-b", "cocartesian") for x in ax]


def _linear_axioms():
    """Half of the linear distributivity laws, each with its mirror:
    delta-r, nu-bl, nu-br, gamma-sym, gamma-sym-b and tens-id-white-colax
    are derived."""
    a, b, c, d = PVar("a"), PVar("b"), PVar("c"), PVar("d")
    ax = []

    def le(name, lhs, rhs, arrows=()):
        ax.append(Axiom(name, "linear", "le", lhs, rhs, arrows))
        return ax[-1]

    def derive(axiom, name):
        ax.append(_mirrored(axiom, name, "linear"))

    chain = (("a", ("X",), ("Y",)), ("b", ("Y",), ("Z",)), ("c", ("Z",), ("W",)))
    derive(le("delta-l", _W.seq(a, _B.seq(b, c)), _B.seq(_W.seq(a, b), c), chain), "delta-r")
    par = (("a", ("X1",), ("Y1",)), ("b", ("Y1",), ("Z1",)),
           ("c", ("X2",), ("Y2",)), ("d", ("Y2",), ("Z2",)))
    nu_wl = le("nu-wl", _W.tens(_B.seq(a, b), _B.seq(c, d)),
               _B.seq(_W.tens(a, c), _B.tens(b, d)), par)
    derive(le("nu-wr", _W.tens(_B.seq(a, b), _B.seq(c, d)),
              _B.seq(_B.tens(a, c), _W.tens(b, d)), par), "nu-bl")
    derive(nu_wl, "nu-br")
    derive(le("tau-sym", _W.id("X", "Y"), _B.seq(_W.sym("X", "Y"), _B.sym("Y", "X"))),
           "gamma-sym")
    derive(le("tau-sym-b", _W.id("X", "Y"), _B.seq(_B.sym("X", "Y"), _W.sym("Y", "X"))),
           "gamma-sym-b")
    derive(le("tens-id-black-lax", _W.tens(_B.id("X"), _B.id("Y")), _B.id("X", "Y")),
           "tens-id-white-colax")
    return ax


def _fo_axioms():
    """Linear adjointness of the white constants to their black mirrors,
    plus the mixed-colour Frobenius equalities, written in white; the black
    ones, F-wb and F-wb2, are the mirrors of F-bw2 and F-bw."""
    X, XX, O = ("X",), ("X", "X"), ()
    pairs = [
        ("copy", _W.copy("X"), _B.cocopy("X"), X, XX),
        ("discard", _W.discard("X"), _B.codiscard("X"), X, O),
        ("cocopy", _W.cocopy("X"), _B.copy("X"), XX, X),
        ("codiscard", _W.codiscard("X"), _B.discard("X"), O, X),
    ]
    ax = []
    for name, w, bl, dn, dm in pairs:
        ax += [Axiom("tau-" + name, "fo", "le", _W.id(*dn), _B.seq(w, bl)),
               Axiom("gamma-" + name, "fo", "le", _W.seq(bl, w), _B.id(*dm)),
               Axiom("tau-" + name + "-rev", "fo", "le", _W.id(*dm), _B.seq(bl, w)),
               Axiom("gamma-" + name + "-rev", "fo", "le", _W.seq(w, bl), _B.id(*dn))]

    # mixed-colour Frobenius: the S-shaped composite with one dot of each
    # colour equals the corresponding Z-shape
    S, Tn, ID = _W.seq, _W.tens, _W.id
    f_bw = Axiom("F-bw", "fo", "eq",
                 S(Tn(ID("X"), _W.copy("X")), Tn(_B.cocopy("X"), ID("X"))),
                 S(Tn(_B.copy("X"), ID("X")), Tn(ID("X"), _W.cocopy("X"))))
    f_bw2 = Axiom("F-bw2", "fo", "eq",
                  S(Tn(ID("X"), _B.copy("X")), Tn(_W.cocopy("X"), ID("X"))),
                  S(Tn(_W.copy("X"), ID("X")), Tn(ID("X"), _B.cocopy("X"))))
    return ax + [f_bw, f_bw2, _mirrored(f_bw2, "F-wb", "fo"), _mirrored(f_bw, "F-wb2", "fo")]


def _generator_axioms():
    """A generator and its opposed box are linear adjoints; gen-tau-rev and
    gen-gamma-rev are the mirrors of gen-gamma and gen-tau."""
    r, rop = PGenVar("r"), PGenVar("r", op=True)
    dn, dm = ("dom", "r"), ("cod", "r")
    tau = Axiom("gen-tau", "generator-adjoint", "le", _W.id(dn), _B.seq(r, rop))
    gamma = Axiom("gen-gamma", "generator-adjoint", "le", _W.seq(rop, r), _B.id(dm))
    return [tau, gamma, _mirrored(gamma, "gen-tau-rev", "generator-adjoint"),
            _mirrored(tau, "gen-gamma-rev", "generator-adjoint")]


@functools.cache
def _axioms():
    """The axiom tuple and the same axioms keyed by name, built once."""
    ax = (_structural_axioms() + _comonoid_axioms() + _linear_axioms() + _fo_axioms()
          + _generator_axioms())
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


class Step(Record):
    # direction: l2r | r2l; bindings: ((name, value), ...)
    __slots__ = ("axiom", "position", "direction", "bindings")

    def __init__(self, axiom, position, direction, bindings=()):
        _SET_AXIOM(self, axiom)
        _SET_POSITION(self, position)
        _SET_DIRECTION(self, direction)
        _SET_BINDINGS(self, bindings)


_SET_AXIOM, _SET_POSITION, _SET_DIRECTION, _SET_BINDINGS = slot_setters(Step)


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


class ProofScript(Record):
    __slots__ = ("lhs", "rhs", "steps")


class Verdict(Record):
    __slots__ = ("accepted", "step_index", "reason")
    _defaults = {"step_index": -1, "reason": ""}

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
    The claim and the steps share one `typecheck` memo for this call and
    `sig`: desugaring reads the claim's pass, and an untouched subtree is typed once."""
    types = {}
    try:
        ty1 = typecheck(script.lhs, sig, types=types)
        ty2 = typecheck(script.rhs, sig, types=types)
    except DiagrelError as e:
        return Verdict(False, -1, f"claim does not typecheck: {e}")
    if ty1 != ty2:
        return Verdict(False, -1, f"claim types differ: {ty1} vs {ty2}")
    cur, goal = desugar(script.lhs, sig, types), desugar(script.rhs, sig, types)
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
    """Evaluate the claim, typed once, on random interpretations; a countermodel
    would indicate a kernel bug.  Returns (ok, countermodel-or-None)."""
    check_trials(trials, k)
    lhs, rhs = script.lhs, script.rhs
    typecheck(lhs, sig), typecheck(rhs, sig)  # every trial evaluates through the typed entry
    rng = random.Random(seed)
    for _ in range(trials):
        interp = random_interpretation(sig, k, rng)
        witness = inclusion_witness(evaluate_typed(lhs, interp), evaluate_typed(rhs, interp))
        if witness is not None:
            return False, (interp, witness)
    return True, None


# ---------------------------------------------------------------------------
# axiom verification against the relation model


class AxiomReport(Record):
    __slots__ = ("name", "family", "trials", "failures", "counterexample")
    _defaults = {"counterexample": ""}

    @property
    def ok(self):
        return self.failures == 0


def _instance(axiom, objs, gens, draws):
    """(sig, lhs, rhs, binding) of `axiom` for the values drawn in a trial: one per
    object metavariable in `objs`, then two per generator metavariable in `gens`.
    Both sides are typechecked under `sig` here, so trials evaluate them
    through the typed entry."""
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
    typecheck(lhs, sig)
    typecheck(rhs, sig)
    return sig, lhs, rhs, binding


def verify_axiom(axiom, k=2, trials=200, seed=0):
    """Check `axiom` on `trials` random instances at carrier k, each object and
    generator arity drawn from 0..2.  Instances are built and typechecked once
    per distinct drawn values (see `_instance`); each computed verdict draws a
    fresh interpretation.  An instance whose signature has no generators has a
    value that depends on the drawn values only, so its verdict is memoized too
    (drawing it takes no random bits, so the stream is the same)."""
    check_trials(trials, k)
    rng = random.Random((axiom.name, k, seed).__repr__())
    failures = 0
    counterexample = ""
    objs, _, gens = axiom.variables()
    objs, gens = sorted(objs), sorted(gens)
    instances, verdicts = {}, {}  # keyed by the drawn values
    for _ in range(trials):
        draws = tuple(rng.randint(0, 2) for _ in range(len(objs) + 2 * len(gens)))
        if draws not in instances:
            instances[draws] = _instance(axiom, objs, gens, draws)
        sig, lhs, rhs, binding = instances[draws]
        bad = verdicts.get(draws)
        if bad is None:
            interp = random_interpretation(sig, k, rng)
            lv, rv = evaluate_typed(lhs, interp), evaluate_typed(rhs, interp)
            witness = inclusion_witness(lv, rv)
            if witness is None and axiom.kind == "eq":
                witness = inclusion_witness(rv, lv)
            bad = witness is not None
            if not sig.generators:
                verdicts[draws] = bad
            if bad and not counterexample:
                counterexample = (f"binding={binding} lhs={print_term(lhs)} "
                                  f"rhs={print_term(rhs)} witness={witness}")
        failures += bad
    return AxiomReport(axiom.name, axiom.family, trials, failures, counterexample)


def verify_axioms(k=2, trials=200, seed=0, family=None):
    """Check every axiom against random instantiations in the relation model."""
    axioms = axiom_db()
    if family is not None:
        axioms = [ax for ax in axioms if ax.family == family]
    return [verify_axiom(ax, k=k, trials=trials, seed=seed) for ax in axioms]


# ---------------------------------------------------------------------------
# spider normal forms


class SpiderError(DiagrelError):
    pass


class SpiderForm(Record):
    # partition: frozenset of frozensets of port labels "inI"/"outJ"
    __slots__ = ("n", "m", "colour", "partition", "closed")
    _defaults = {"closed": 0}
    _key = attrgetter("n", "m", "colour", "partition")  # `closed` is not compared


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
    partition plus a count of closed connected components.  After desugaring
    only a generator leaf lies outside the fragment; the first one from the
    left is reported, and mixed colours after the whole walk."""
    t = desugar(t, sig)
    colours, dsu = set(), _DSU()

    def walk(t, path):
        cls = type(t)
        if cls is T.Const:
            colours.add(t.kind[-1])
            p = dsu.fresh()  # every wire of a (co)monoid constant is one port
            n, m = T.CONSTANT_TYPES[t.kind]
            return [p] * n, [p] * m
        if cls not in _HEAD_COLOUR:
            raise SpiderError(
                f"outside Frobenius fragment: {print_term(t)} at {format_position(path)}")
        colours.add(_HEAD_COLOUR[cls])
        if cls is IdW or cls is IdB:
            ports = [dsu.fresh() for _ in range(T.check_arity(t.n))]
            return ports, list(ports)
        if cls is SymW or cls is SymB:
            ports = [dsu.fresh() for _ in range(T.check_arity(t.m + t.n))]
            return list(ports), ports[t.m:] + ports[:t.m]
        i1, o1 = walk(t.t, path + (0,))
        i2, o2 = walk(t.u, path + (1,))
        if cls is SeqW or cls is SeqB:
            for x, y in zip(o1, i2):
                dsu.union(x, y)
            return i1, o2
        T.check_arity(max(len(i1) + len(i2), len(o1) + len(o2)))  # TensW / TensB
        return i1 + i2, o1 + o2

    ins, outs = walk(t, ())
    if len(colours) > 1:
        raise SpiderError("mixed colours: term outside either Frobenius fragment")
    labels = {}
    for i, p in enumerate(ins):
        labels.setdefault(dsu.find(p), []).append(f"in{i}")
    for j, p in enumerate(outs):
        labels.setdefault(dsu.find(p), []).append(f"out{j}")
    closed = sum(1 for p in range(len(dsu.parent))
                 if dsu.find(p) == p and dsu.find(p) not in labels)
    partition = frozenset(frozenset(v) for v in labels.values())
    return SpiderForm(len(ins), len(outs), colours.pop() if colours else "w", partition, closed)


# the colour of each primitive class but Const: the last letter of its head
_HEAD_COLOUR = {cls: head[-1] for head, (cls, _) in T.FORMS.items() if cls in T.MIRROR}
