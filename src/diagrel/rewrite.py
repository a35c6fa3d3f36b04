"""Axiom database, pattern matching, positional inequational rewriting,
proof-script checking, and the spider normalizer.

A proof of `s <= t` is an increasing chain of rewrite steps: inequational
axioms may only be applied left-to-right (every term context is monotone,
so replacing a subterm by a larger one enlarges the whole), equalities in
either direction.  Matching is purely syntactic — no matching modulo
associativity; the structural axioms are explicit proof steps.

The axiom database is the text `_LAWS`, read once: 61 laws, one per line
(an indented line continues the one above), and directives that derive the
other 45 as their colour switches (`_mirrored`).  A law is `NAME : LHS = RHS`
or `NAME : LHS <= RHS`, then optionally `with a : X -> Y, ...`, the types of
its arrow metavariables.  The sides are terms with metavariables: a bare name
is an arrow, `(gen r)` and `(genop r)` range over generators, and a number
position holds an object expression, names and naturals joined by `+`, `()`
(the empty sum), `(dom r)` or `(cod r)`.  A constant kind is a head taking an
arity, as in `(copyw X)`.  `family F` starts a family; `mirrors -b F` appends
to family F the colour switch of each law since then, named with the suffix
`-b`; `NEW = mirror OLD` appends the colour switch of the law OLD.
"""

from __future__ import annotations

import functools
import random
import re
from operator import attrgetter

from . import terms as T
from .finrel import Program, SizeLimit, space_bits
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
    """p compiled into a matcher `match(t, sig, b)`, which extends the
    binding b and says whether t is an instance of p, a builder `build(b, sig)`,
    and an emitter `emit(b, sig, prog)`, which compiles the instance into the
    `finrel.Program` prog, unbuilt, and returns its register; a (co)monoid
    family's n-ary comb is one constant register."""
    cls = type(p)
    if cls is PVar:
        name = p.name

        def match(t, sig, b):
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

        def match(t, sig, b):
            return type(t) is node and b.setdefault(var, t.name) == t.name

        def build(b, sig):
            if var not in b:
                raise UnboundMetavariable(f"generator metavariable {var!r} unbound")
            if b[var] not in sig.generators:
                raise RewriteError(f"unknown generator {b[var]!r} for metavariable {var!r}")
            return node(b[var])
    elif cls is PBin:
        node = T.FORMS[p.op][0]
        (match_l, build_l, emit_l), (match_r, build_r, emit_r) = _compiled(p.l), _compiled(p.r)

        def match(t, sig, b):
            return type(t) is node and match_l(t.t, sig, b) and match_r(t.u, sig, b)

        def build(b, sig):
            return node(build_l(b, sig), build_r(b, sig))

        def emit(b, sig, prog):
            return prog.node(node, emit_l(b, sig, prog), emit_r(b, sig, prog))
    elif cls is PConstM:
        # a (co)monoid family is a `terms.macro`, an identity or symmetry its form
        ctor = T.FORMS[p.kind][0] if p.kind in T.FORMS else functools.partial(T.macro, p.kind)
        objs, solve = p.objs, _solver(p.objs[0])

        def build(b, sig):
            return ctor(*[_expr_value(e, b, sig) for e in objs])

        def emit(b, sig, prog):
            return prog.constant(p.kind, *[_expr_value(e, b, sig) for e in objs])

        if p.kind in ("symw", "symb"):
            solve_n = _solver(objs[1])

            def match(t, sig, b):
                return type(t) is ctor and solve(t.m, b, sig) and solve_n(t.n, b, sig)
        elif p.kind in ("idw", "idb") and not any(type(i) is tuple for i in objs[0]):
            def match(t, sig, b):
                return type(t) is ctor and t.n >= 0 and solve(t.n, b, sig)
        else:
            # a (co)monoid family, or an identity at a generator's arity (whose
            # solve may raise first): the arity is read off the type, and the
            # expansion is built only if the root has its class at that arity
            roots = [type(ctor(arity)) for arity in range(3)]
            by_cod, square = p.kind[:3] in ("coc", "cod"), p.kind in ("idw", "idb")

            def match(t, sig, b):
                try:
                    n, m = typecheck(t, sig)
                except DiagrelError:
                    return False
                arity = m if by_cod else n
                return ((n == m or not square) and solve(arity, b, sig)
                        and type(t) is roots[min(arity, 2)] and build(b, sig) == t)
    else:
        raise RewriteError(f"not a pattern: {p!r}")
    if cls is PVar or cls is PGenVar:
        def emit(b, sig, prog):
            return prog.add(build(b, sig))
    return match, build, emit


def instantiate(p, binding, sig=EMPTY_SIGNATURE):
    """Build the term denoted by pattern p under the given bindings."""
    return _compiled(p)[1](binding, sig)


def match_pattern(p, t, sig=EMPTY_SIGNATURE, binding=None):
    """Syntactic matching: bindings σ with instantiate(p, σ) = t, or None."""
    b = dict(binding) if binding else {}
    return b if _compiled(p)[0](t, sig, b) else None


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
    # family: as in `_LAWS`; kind: "eq" or "le"; arrows: ((name, dom-expr, cod-expr), ...)
    __slots__ = ("name", "family", "kind", "lhs", "rhs", "arrows")

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


_LAWS = """family structural  # a symmetric monoidal category with (co)monoids, in white
seq-assoc : (seqw (seqw a b) c) = (seqw a (seqw b c)) with a : X -> Y, b : Y -> Z, c : Z -> W
seq-unit-l : (seqw (idw X) a) = a with a : X -> Y
seq-unit-r : (seqw a (idw Y)) = a with a : X -> Y
tens-assoc : (tensw (tensw a b) c) = (tensw a (tensw b c))
    with a : X1 -> Y1, b : X2 -> Y2, c : X3 -> Y3
tens-unit-l : (tensw (idw 0) a) = a with a : X -> Y
tens-unit-r : (tensw a (idw 0)) = a with a : X -> Y
interchange : (seqw (tensw a b) (tensw c d)) = (tensw (seqw a c) (seqw b d))
    with a : X1 -> Y1, b : X2 -> Y2, c : Y1 -> Z1, d : Y2 -> Z2
tens-id : (tensw (idw X) (idw Y)) = (idw X+Y)
sym-nat : (seqw (tensw a b) (symw Y1 Y2)) = (seqw (symw X1 X2) (tensw b a))
    with a : X1 -> Y1, b : X2 -> Y2
sym-inv : (seqw (symw X Y) (symw Y X)) = (idw X+Y)
sym-unit-l : (symw 0 X) = (idw X)
sym-unit-r : (symw X 0) = (idw X)
sym-split-l : (symw X+Y Z) = (seqw (tensw (idw X) (symw Y Z)) (tensw (symw X Z) (idw Y)))
sym-split-r : (symw X Y+Z) = (seqw (tensw (symw X Y) (idw Z)) (tensw (idw Y) (symw X Z)))
copy-split : (copyw X+Y)
    = (seqw (tensw (copyw X) (copyw Y)) (tensw (idw X) (tensw (symw X Y) (idw Y))))
cocopy-split : (cocw X+Y)
    = (seqw (tensw (idw X) (tensw (symw Y X) (idw Y))) (tensw (cocw X) (cocw Y)))
discard-split : (dscw X+Y) = (tensw (dscw X) (dscw Y))
codiscard-split : (codw X+Y) = (tensw (codw X) (codw Y))
mirrors -b structural
family cartesian  # Fig-1-style (co)monoid laws in white; their mirrors are cocartesian
copy-as : (seqw (copyw X) (tensw (copyw X) (idw X))) = (seqw (copyw X) (tensw (idw X) (copyw X)))
copy-un : (seqw (copyw X) (tensw (idw X) (dscw X))) = (idw X)
copy-un-l : (seqw (copyw X) (tensw (dscw X) (idw X))) = (idw X)
copy-co : (seqw (copyw X) (symw X X)) = (copyw X)
cocopy-as : (seqw (tensw (cocw X) (idw X)) (cocw X)) = (seqw (tensw (idw X) (cocw X)) (cocw X))
cocopy-un : (seqw (tensw (idw X) (codw X)) (cocw X)) = (idw X)
cocopy-un-l : (seqw (tensw (codw X) (idw X)) (cocw X)) = (idw X)
cocopy-co : (seqw (symw X X) (cocw X)) = (cocw X)
special : (seqw (copyw X) (cocw X)) = (idw X)
frob-l : (seqw (cocw X) (copyw X)) = (seqw (tensw (idw X) (copyw X)) (tensw (cocw X) (idw X)))
frob-r : (seqw (cocw X) (copyw X)) = (seqw (tensw (copyw X) (idw X)) (tensw (idw X) (cocw X)))
copy-nat : (seqw a (copyw Y)) <= (seqw (copyw X) (tensw a a)) with a : X -> Y
discard-nat : (seqw a (dscw Y)) <= (dscw X) with a : X -> Y
eta-copy : (idw X) <= (seqw (copyw X) (cocw X))
eps-copy : (seqw (cocw X) (copyw X)) <= (idw X+X)
eta-discard : (idw X) <= (seqw (dscw X) (codw X))
eps-discard : (seqw (codw X) (dscw X)) <= (idw ())
mirrors -b cocartesian
family linear  # the linear distributivity laws
delta-l : (seqw a (seqb b c)) <= (seqb (seqw a b) c) with a : X -> Y, b : Y -> Z, c : Z -> W
delta-r = mirror delta-l
nu-wl : (tensw (seqb a b) (seqb c d)) <= (seqb (tensw a c) (tensb b d))
    with a : X1 -> Y1, b : Y1 -> Z1, c : X2 -> Y2, d : Y2 -> Z2
nu-wr : (tensw (seqb a b) (seqb c d)) <= (seqb (tensb a c) (tensw b d))
    with a : X1 -> Y1, b : Y1 -> Z1, c : X2 -> Y2, d : Y2 -> Z2
nu-bl = mirror nu-wr
nu-br = mirror nu-wl
tau-sym : (idw X+Y) <= (seqb (symw X Y) (symb Y X))
gamma-sym = mirror tau-sym
tau-sym-b : (idw X+Y) <= (seqb (symb X Y) (symw Y X))
gamma-sym-b = mirror tau-sym-b
tens-id-black-lax : (tensw (idb X) (idb Y)) <= (idb X+Y)
tens-id-white-colax = mirror tens-id-black-lax
family fo  # each white constant a linear adjoint of its mirror; mixed Frobenius
tau-copy : (idw X) <= (seqb (copyw X) (cocb X))
gamma-copy : (seqw (cocb X) (copyw X)) <= (idb X+X)
tau-copy-rev : (idw X+X) <= (seqb (cocb X) (copyw X))
gamma-copy-rev : (seqw (copyw X) (cocb X)) <= (idb X)
tau-discard : (idw X) <= (seqb (dscw X) (codb X))
gamma-discard : (seqw (codb X) (dscw X)) <= (idb ())
tau-discard-rev : (idw ()) <= (seqb (codb X) (dscw X))
gamma-discard-rev : (seqw (dscw X) (codb X)) <= (idb X)
tau-cocopy : (idw X+X) <= (seqb (cocw X) (copyb X))
gamma-cocopy : (seqw (copyb X) (cocw X)) <= (idb X)
tau-cocopy-rev : (idw X) <= (seqb (copyb X) (cocw X))
gamma-cocopy-rev : (seqw (cocw X) (copyb X)) <= (idb X+X)
tau-codiscard : (idw ()) <= (seqb (codw X) (dscb X))
gamma-codiscard : (seqw (dscb X) (codw X)) <= (idb X)
tau-codiscard-rev : (idw X) <= (seqb (dscb X) (codw X))
gamma-codiscard-rev : (seqw (codw X) (dscb X)) <= (idb ())
F-bw : (seqw (tensw (idw X) (copyw X)) (tensw (cocb X) (idw X)))
    = (seqw (tensw (copyb X) (idw X)) (tensw (idw X) (cocw X)))
F-bw2 : (seqw (tensw (idw X) (copyb X)) (tensw (cocw X) (idw X)))
    = (seqw (tensw (copyw X) (idw X)) (tensw (idw X) (cocb X)))
F-wb = mirror F-bw2
F-wb2 = mirror F-bw
family generator-adjoint  # a generator and its opposed box are linear adjoints
gen-tau : (idw (dom r)) <= (seqb (gen r) (genop r))
gen-gamma : (seqw (genop r) (gen r)) <= (idb (cod r))
gen-tau-rev = mirror gen-gamma
gen-gamma-rev = mirror gen-tau"""


def _objects(sx):
    """The object expression at a number position: `()`, `(dom r)` or `(cod r)`
    if it is a list, else names and naturals joined by `+`."""
    if type(sx) is list:
        return (tuple(atom[0] for atom in sx),) if sx else ()
    return tuple(int(w) if w.isdigit() else w for w in sx.split("+"))


def _pattern(sx):
    """The pattern of a law side's s-expression."""
    if type(sx) is tuple:
        return PVar(sx[0])
    head, args = sx[0][0], sx[1:]
    kind = T.FORMS[head][1][0] if head in T.FORMS else "nat"  # a constant kind takes an arity
    if kind == "term":
        return PBin(head, *map(_pattern, args))
    if kind == "name":
        return PGenVar(args[0][0], head == "genop")
    return PConstM(head, tuple(_objects(a if type(a) is list else a[0]) for a in args))


@functools.cache
def _axioms():
    """The axiom tuple and the same axioms keyed by name, read once from `_LAWS`."""
    ax = []
    text = "".join(("\n" if col == 1 else " ") + line for _, col, line in read_lines(_LAWS))
    for line in text.splitlines()[1:]:
        words = line.split()
        if words[0] == "family":
            family, start = words[1], len(ax)
        elif words[0] == "mirrors":
            ax += [_mirrored(x, x.name + words[1], words[2]) for x in ax[start:]]
        elif words[1] == "=":
            ax.append(_mirrored({x.name: x for x in ax}[words[3]], words[0], family))
        else:  # NAME : LHS = RHS or NAME : LHS <= RHS, then the arrow types
            law, _, arrows = line.partition(" with ")
            tokens = list(T.tokenize(law))
            lhs, pos = T.read_sexpr(tokens, 2)
            rhs = T.read_sexpr(tokens, pos + 1)[0]
            types = re.findall(r"(\w+) : (\S+) -> ([^,\s]+)", arrows)
            ax.append(Axiom(words[0], family, {"=": "eq", "<=": "le"}[tokens[pos][0]],
                            _pattern(lhs), _pattern(rhs),
                            tuple((v, _objects(d), _objects(c)) for v, d, c in types)))
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


def apply_step(t, step, sig=EMPTY_SIGNATURE):
    """Apply one rewrite step to t; raises RewriteError when it is invalid.
    One walk to the position serves the match and the rebuild; the arrow
    types bind the object metavariables the match left unbound."""
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
            if name not in objs | arrow_vars | gens:
                raise RewriteError(f"{name!r} is not a metavariable of axiom {axiom.name}")
    spine = spine_at(t, step.position)
    binding = dict(step.bindings)
    if not match(spine[-1], sig, binding):
        raise RewriteError(
            f"axiom {axiom.name} ({step.direction}) does not match at "
            f"{format_position(step.position)}")
    for name, solve_dom, solve_cod in arrows:
        if isinstance(binding.get(name), Term):
            n, m = typecheck(binding[name], sig)
            if not (solve_dom(n, binding, sig) and solve_cod(m, binding, sig)):
                raise RewriteError(
                    f"arrow {name!r} bound to a term of type {(n, m)} "
                    f"incompatible with its declared type")
    try:
        repl = build(binding, sig)
    except UnboundMetavariable as e:
        raise RewriteError(f"{e}; supply it with an explicit `with` binding") from None
    return replace_at(t, step.position, repl, sig, spine)


# ---------------------------------------------------------------------------
# proof scripts


class ProofScript(Record):
    __slots__ = ("lhs", "rhs", "steps")


class Verdict(Record):
    __slots__ = ("accepted", "step_index", "reason")

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
    out, pos = {}, 0
    while pos < len(tokens):
        tok, _, at = tokens[pos]
        pos += 1
        name, eq, atom = tok.partition("=")
        if not eq:
            raise ParseError(f"bad binding clause {text[at - col:]!r}", line, at)
        if name in out:
            raise ParseError(f"duplicate binding for {name!r}", line, at)
        if atom:
            value = T.natural(atom)
            if value is None:
                value = T.Const(atom) if atom in T.CONSTANT_TYPES else atom
            elif value < 0:
                raise ParseError(f"negative object binding for {name!r}", line, at)
        elif pos < len(tokens) and tokens[pos][0] == "(":
            try:
                sx, pos = T.read_sexpr(tokens, pos)
            except ParseError:
                raise ParseError(f"unbalanced parentheses in binding {name!r}", line, at) from None
            value = T.build_term(sx, sig)
        else:
            raise ParseError(f"empty binding for {name!r}", line, at)
        out[name] = value
    return tuple(out.items())


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
    Each node keeps its type under `sig`, so desugaring reads the claim's
    pass, and an untouched subtree is typed once."""
    try:
        ty1 = typecheck(script.lhs, sig)
        ty2 = typecheck(script.rhs, sig)
    except DiagrelError as e:
        return Verdict(False, -1, f"claim does not typecheck: {e}")
    if ty1 != ty2:
        return Verdict(False, -1, f"claim types differ: {ty1} vs {ty2}")
    cur, goal = desugar(script.lhs, sig), desugar(script.rhs, sig)
    for idx, step in enumerate(script.steps):
        try:
            cur = apply_step(cur, step, sig)
        except DiagrelError as e:
            return Verdict(False, idx, str(e))
    if cur != goal:
        return Verdict(
            False, len(script.steps),
            f"final term {print_term(cur)} differs from goal {print_term(goal)}")
    return Verdict(True, -1, "")


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
    types = typecheck(lhs, sig), typecheck(rhs, sig)  # so the claim compiles as a typed term
    if types[0] != types[1]:  # `Program.check`'s refusal, also when nothing is compiled
        raise DiagrelError("sides typed {} vs {}".format(*types))
    if not trials:
        return True, None
    prog = Program(k, sig.generators)
    prog.check(prog.add(lhs), prog.add(rhs))
    rng = random.Random(seed)
    for _ in range(trials):
        if prog.run(values := prog.draw(rng)) is not None:
            return False, (prog.interpretation(sig, values), prog.witness(0))
    return True, None


# ---------------------------------------------------------------------------
# axiom verification against the relation model


class AxiomReport(Record):
    __slots__ = ("name", "family", "trials", "failures", "counterexample")

    @property
    def ok(self):
        return self.failures == 0


def _instance(axiom, objs, gens, draws):
    """(sig, binding) of `axiom` for the values drawn in a trial: one per object
    metavariable in `objs`, then two per generator metavariable in `gens`; each
    arrow metavariable is bound to a fresh generator of its declared type."""
    binding = {**dict(zip(objs, draws)), **{g: "~" + g for g in gens}}
    arities = iter(draws[len(objs):])
    sig = Signature({"~" + g: (next(arities), next(arities)) for g in gens})
    for name, de, ce in axiom.arrows:
        n = _expr_value(de, binding, sig)
        m = _expr_value(ce, binding, sig)
        sig.generators["~" + name] = (n, m)  # no term is typed under sig yet
        binding[name] = Gen("~" + name)
    return sig, binding


def verify_axiom(axiom, k=2, trials=200, seed=0):
    """Check `axiom` on `trials` random instances at carrier k, each object and
    generator arity drawn from 0..2.  Per distinct drawn values, both sides are
    compiled from the axiom's patterns into one program, which types each node:
    no instance is built (the first counterexample prints one) or typechecked.
    Each trial runs it on the bitmasks it draws.  An instance without generators
    compiles to its checks alone, on constant registers, and draws no bits.  An
    instance that does not compile but for `SizeLimit` (its sides typed apart)
    fails each trial that draws it, with the refusal as its counterexample."""
    check_trials(trials, k)
    rng = random.Random((axiom.name, k, seed).__repr__())
    failures = 0
    counterexample = ""
    objs, _, gens = axiom.variables()
    objs, gens = sorted(objs), sorted(gens)
    instances = {}  # keyed by the drawn values
    (_, build_l, emit_l), (_, build_r, emit_r) = _compiled(axiom.lhs), _compiled(axiom.rhs)
    for _ in range(trials):
        draws = tuple(rng.randint(0, 2) for _ in range(len(objs) + 2 * len(gens)))
        if draws not in instances:
            sig, binding = _instance(axiom, objs, gens, draws)
            prog, error = Program(k, sig.generators), None
            try:
                lhs, rhs = emit_l(binding, sig, prog), emit_r(binding, sig, prog)
                prog.check(lhs, rhs)
                if axiom.kind == "eq":
                    prog.check(rhs, lhs)
            except SizeLimit:
                raise
            except DiagrelError as e:  # a mistyped instance fails each trial that draws it
                error = str(e)
            instances[draws] = sig, binding, prog, error
        sig, binding, prog, error = instances[draws]
        failed = error or prog.run(prog.draw(rng))
        if failed is not None:
            failures += 1
            if not counterexample:
                lhs, rhs = build_l(binding, sig), build_r(binding, sig)
                counterexample = (f"binding={binding} lhs={print_term(lhs)} "
                                  f"rhs={print_term(rhs)} "
                                  + (error or f"witness={prog.witness(failed)}"))
    return AxiomReport(axiom.name, axiom.family, trials, failures, counterexample)


def verify_axioms(k=2, trials=200, seed=0, family=None):
    """Check every axiom, or one family's, against random instances in the relation model."""
    axioms = axiom_db()
    if family is not None:
        if family not in (families := dict.fromkeys(ax.family for ax in axioms)):
            raise RewriteError(f"unknown family {family!r}; known families: {', '.join(families)}")
        axioms = [ax for ax in axioms if ax.family == family]
    return [verify_axiom(ax, k=k, trials=trials, seed=seed) for ax in axioms]


# ---------------------------------------------------------------------------
# spider normal forms


class SpiderError(DiagrelError):
    pass


class SpiderForm(Record):
    # partition: frozenset of frozensets of port labels "inI"/"outJ"
    __slots__ = ("n", "m", "colour", "partition", "closed")
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
