"""Finite powerset boolean hyperdoctrine over finite sets.

Objects are canonical finite sets {0..size-1}; products are strictified by
left-nested base-size index pairing, so projections and pairings are pure
index arithmetic.  A predicate over an object is a bit-vector.  On top of
the generic doctrine structure (substitution, existential and universal
images, equality predicates) this module builds the relational composition
and tensor of predicates, graphs of morphisms, comprehensions, tabulations,
and unique-choice witnesses.
"""

from __future__ import annotations

import functools
import itertools

from .finrel import FinRelation, space_bits
from .terms import DiagrelError, Record, slot_setters


class FinSetObj(Record):
    __slots__ = ("size",)

    def __init__(self, size):
        if size < 0:
            raise DiagrelError("object size must be non-negative")
        _SET_SIZE(self, size)


def prod(X, Y):
    return FinSetObj(X.size * Y.size)


def pair_index(X, Y, x, y):
    return x * Y.size + y


class FinSetMor(Record):
    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom, cod, table):
        if len(table) != dom.size:
            raise DiagrelError("morphism table length differs from domain size")
        if any(not 0 <= v < cod.size for v in table):
            raise DiagrelError("morphism table entry outside codomain")
        _SET_DOM(self, dom)
        _SET_COD(self, cod)
        _SET_TABLE(self, table)

    def __call__(self, x):
        return self.table[x]


def identity(X):
    return FinSetMor(X, X, tuple(range(X.size)))


def compose(f, g):
    """f then g."""
    if f.cod != g.dom:
        raise DiagrelError("morphism composition type mismatch")
    return FinSetMor(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def proj1(X, Y):
    return FinSetMor(prod(X, Y), X, tuple(i // Y.size for i in range(X.size * Y.size)))


def proj2(X, Y):
    return FinSetMor(prod(X, Y), Y, tuple(i % Y.size for i in range(X.size * Y.size)))


def pairing(f, g):
    if f.dom != g.dom:
        raise DiagrelError("pairing domain mismatch")
    return FinSetMor(f.dom, prod(f.cod, g.cod),
                     tuple(pair_index(f.cod, g.cod, f.table[i], g.table[i])
                           for i in range(f.dom.size)))


def product_mor(f, g):
    """f × g on the left-nested product."""
    return pairing(compose(proj1(f.dom, g.dom), f), compose(proj2(f.dom, g.dom), g))


def diagonal(X):
    return pairing(identity(X), identity(X))


def all_morphisms(X, Y):
    """Every function X -> Y, in lexicographic table order."""
    for table in itertools.product(range(Y.size), repeat=X.size):
        yield FinSetMor(X, Y, table)


# ---------------------------------------------------------------------------
# predicates (fibers)


class Predicate(Record):
    __slots__ = ("over", "bits")

    def __init__(self, over, bits):
        if not 0 <= bits < (1 << over.size):
            raise DiagrelError("predicate bit-vector out of range")
        _SET_OVER(self, over)
        _SET_PRED_BITS(self, bits)

    def __eq__(self, other):
        return self.bits == other.bits and self.over.size == other.over.size \
            if type(other) is type(self) else NotImplemented

    __hash__ = Record.__hash__

    def __contains__(self, x):
        return bool(self.bits >> x & 1)

    def members(self):
        return [x for x in range(self.over.size) if x in self]

    @staticmethod
    def from_members(X, members):
        bits = 0
        for x in members:
            if not 0 <= x < X.size:
                raise DiagrelError(f"member {x} outside object of size {X.size}")
            bits |= 1 << x
        return Predicate(X, bits)


(_SET_SIZE,), (_SET_DOM, _SET_COD, _SET_TABLE), (_SET_OVER, _SET_PRED_BITS) = map(
    slot_setters, (FinSetObj, FinSetMor, Predicate))


def top(X):
    return Predicate(X, (1 << X.size) - 1)


def bottom(X):
    return Predicate(X, 0)


def meet(a, b):
    if a.over != b.over:
        raise DiagrelError("meet over different objects")
    return Predicate(a.over, a.bits & b.bits)


def join(a, b):
    if a.over != b.over:
        raise DiagrelError("join over different objects")
    return Predicate(a.over, a.bits | b.bits)


def neg(a):
    return Predicate(a.over, ~a.bits & ((1 << a.over.size) - 1))


def leq(a, b):
    if a.over != b.over:
        raise DiagrelError("comparing predicates over different objects")
    return a.bits | b.bits == b.bits


def all_predicates(X):
    for bits in range(1 << X.size):
        yield Predicate(X, bits)


# ---------------------------------------------------------------------------
# doctrine structure


def subst(f, alpha):
    """Reindexing P_f: preimage of alpha along f."""
    if alpha.over != f.cod:
        raise DiagrelError("subst: predicate not over the codomain")
    bits = 0
    for x, v in enumerate(f.table):
        if alpha.bits >> v & 1:
            bits |= 1 << x
    return Predicate(f.dom, bits)


def exists_along(f, alpha):
    """Left adjoint to subst: direct image."""
    if alpha.over != f.dom:
        raise DiagrelError("exists_along: predicate not over the domain")
    bits = 0
    for x in alpha.members():
        bits |= 1 << f.table[x]
    return Predicate(f.cod, bits)


def forall_along(f, alpha):
    """Right adjoint to subst: the De Morgan dual of the direct image."""
    return neg(exists_along(f, neg(alpha)))


@functools.lru_cache
def equality_pred(X):
    bits = 0
    for x in range(X.size):
        bits |= 1 << pair_index(X, X, x, x)
    return Predicate(prod(X, X), bits)


@functools.lru_cache
def _pairings(X, Y, Z):
    """The pairings p12, p13, p23 of the projections of (X×Y)×Z."""
    XY = prod(X, Y)
    pXY = proj1(XY, Z)
    p1 = compose(pXY, proj1(X, Y))
    p2 = compose(pXY, proj2(X, Y))
    p3 = proj2(XY, Z)
    return pairing(p1, p2), pairing(p1, p3), pairing(p2, p3)


def is_functional(phi, X, Y):
    """Single-valuedness stated doctrine-internally over X×Y×Y."""
    if phi.over != prod(X, Y):
        raise DiagrelError("predicate not over X×Y")
    p12, p13, p23 = _pairings(X, Y, Y)
    return leq(meet(subst(p12, phi), subst(p13, phi)), subst(p23, equality_pred(Y)))


def is_entire(phi, X, Y):
    if phi.over != prod(X, Y):
        raise DiagrelError("predicate not over X×Y")
    return leq(top(X), exists_along(proj1(X, Y), phi))


# ---------------------------------------------------------------------------
# relations built from predicates


def relp_identity(X):
    return equality_pred(X)


def relp_compose(phi, psi, X, Y, Z):
    """Relational composition of phi over X×Y and psi over Y×Z."""
    if phi.over != prod(X, Y) or psi.over != prod(Y, Z):
        raise DiagrelError("relp_compose type mismatch")
    p12, p13, p23 = _pairings(X, Y, Z)
    return exists_along(p13, meet(subst(p12, phi), subst(p23, psi)))


def relp_tensor(phi, psi, X1, Y1, X2, Y2):
    """Parallel composition over (X1×X2)×(Y1×Y2): the meet of phi and psi
    reindexed along the projections onto X1×Y1 and X2×Y2."""
    if phi.over != prod(X1, Y1) or psi.over != prod(X2, Y2):
        raise DiagrelError("relp_tensor type mismatch")
    r1 = product_mor(proj1(X1, X2), proj1(Y1, Y2))
    r2 = product_mor(proj2(X1, X2), proj2(Y1, Y2))
    return meet(subst(r1, phi), subst(r2, psi))


def graph_of(f):
    """The graph predicate over dom×cod, via the equality predicate."""
    return subst(product_mor(f, identity(f.cod)), equality_pred(f.cod))


# ---------------------------------------------------------------------------
# comprehensions, tabulations, unique choice


def comprehension(alpha, max_test_size=3):
    """The subobject classified by alpha: its carrier, the inclusion, and a
    report verifying the universal property and fullness by brute force.
    Composites are enumerated as tables, not morphisms: `product(incl.table,
    repeat=|Y|)` yields the table of h ; incl once for each h : Y -> X_alpha,
    in the order of `all_morphisms(Y, X_alpha)`."""
    X = alpha.over
    members = alpha.members()
    X_alpha = FinSetObj(len(members))
    incl = FinSetMor(X_alpha, X, tuple(members))
    report = {
        "subst_top": subst(incl, alpha) == top(X_alpha),
        "universal": True,
        "fullness": True,
    }
    for ysize in range(max_test_size + 1):
        Y = FinSetObj(ysize)
        for f in all_morphisms(Y, X):
            if subst(f, alpha) != top(Y):
                continue
            composites = itertools.product(incl.table, repeat=ysize)
            if sum(c == f.table for c in composites) != 1:
                report["universal"] = False
    for beta in all_predicates(X):
        composites = itertools.product(beta.members(), repeat=X_alpha.size)
        if any(c == incl.table for c in composites) != leq(alpha, beta):
            report["fullness"] = False
    return X_alpha, incl, report


def tabulation(r):
    """Tabulation of a relation r : X^n -> I as the inclusion of its domain
    of definition, with the two defining equations checked by boolean-matrix
    arithmetic over the heterogeneous finite sets involved."""
    if r.cod_arity != 0:
        raise DiagrelError("tabulation expects a relation into the unit")
    size = r.rows
    members = [row for row in range(size) if r.bits >> (row * r.cols) & 1]
    X_r = FinSetObj(len(members))
    X = FinSetObj(size)
    incl = FinSetMor(X_r, X, tuple(members))
    # i ; i† = id on X_r
    first = all((incl(a) == incl(b)) == (a == b)
                for a in range(X_r.size) for b in range(X_r.size))
    # i† ; (X_r -> I total) = r
    defined = {incl(a) for a in range(X_r.size)}
    second = all((row in defined) == bool(r.bits >> (row * r.cols) & 1)
                 for row in range(size))
    report = {"ii_dagger_id": first, "idagger_bang_r": second}
    return X_r, incl, report


def ruc_witness(phi, X, Y):
    """A choice morphism f with top ≤ P_⟨id,f⟩(phi): the lexicographically
    least selection; None when phi is not entire."""
    if phi.over != prod(X, Y):
        raise DiagrelError("predicate not over X×Y")
    if not is_entire(phi, X, Y):
        return None
    table = []
    for x in range(X.size):
        for y in range(Y.size):
            if pair_index(X, Y, x, y) in phi:
                table.append(y)
                break
    f = FinSetMor(X, Y, tuple(table))
    assert leq(top(X), subst(pairing(identity(X), f), phi))
    return f


# ---------------------------------------------------------------------------
# bridges to the relation model


def predicate_to_relation(phi, k, n, m):
    """View a predicate over X^n × X^m, |X| = k, as a FinRelation."""
    if phi.over.size != space_bits(k, n, m):
        raise DiagrelError(f"predicate over {phi.over.size} elements is not "
                           f"over {k}^{n} × {k}^{m}")
    return FinRelation(k, n, m, phi.bits)


def relation_to_predicate(rel):
    X = FinSetObj(rel.rows)
    Y = FinSetObj(rel.cols)
    return Predicate(prod(X, Y), rel.bits), X, Y


def print_morphism(f):
    return "f: [" + ", ".join(str(v) for v in f.table) + "]"
