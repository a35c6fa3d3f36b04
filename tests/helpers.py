"""Shared test utilities: random well-typed term generation and naive oracles."""

import random

from diagrel import doctrine as D
from diagrel import finrel as F
from diagrel import terms as T


def random_signature(rng, n_gens=3, max_obj=2):
    gens = {}
    for i in range(n_gens):
        gens[f"R{i}"] = (rng.randint(0, max_obj), rng.randint(0, max_obj))
    return T.Signature(gens)


def random_term(rng, sig, n, m, depth):
    """A random well-typed term of type n -> m, including sugar constructors."""
    if depth <= 0:
        return _atom(rng, sig, n, m)
    roll = rng.random()
    if roll < 0.18:
        j = rng.randint(0, 2)
        a = random_term(rng, sig, n, j, depth - 1)
        b = random_term(rng, sig, j, m, depth - 1)
        return (T.SeqW if rng.random() < 0.5 else T.SeqB)(a, b)
    if roll < 0.36 and (n > 0 or m > 0):
        n1 = rng.randint(0, n)
        m1 = rng.randint(0, m)
        a = random_term(rng, sig, n1, m1, depth - 1)
        b = random_term(rng, sig, n - n1, m - m1, depth - 1)
        return (T.TensW if rng.random() < 0.5 else T.TensB)(a, b)
    if roll < 0.52:
        a = random_term(rng, sig, n, m, depth - 1)
        b = random_term(rng, sig, n, m, depth - 1)
        return (T.Meet if rng.random() < 0.5 else T.Join)(a, b)
    if roll < 0.64:
        return T.Dag(random_term(rng, sig, m, n, depth - 1))
    if roll < 0.76:
        return T.Neg(random_term(rng, sig, n, m, depth - 1))
    return _atom(rng, sig, n, m)


def _atom(rng, sig, n, m):
    choices = [T.Top(n, m), T.Bot(n, m)]
    if n == m:
        choices += [T.IdW(n), T.IdB(n)]
    for name, (dn, dm) in sig.generators.items():
        if (dn, dm) == (n, m):
            choices.append(T.Gen(name))
        if (dm, dn) == (n, m):
            choices.append(T.GenOp(name))
    return rng.choice(choices)


WHITE_CONSTS = {
    "copyw": (1, 2),
    "cocw": (2, 1),
    "dscw": (1, 0),
    "codw": (0, 1),
}


def random_connected_white(rng, max_consts=6):
    """A connected diagram built from white (co)monoid constants.

    Grown by whole-boundary composition with layers id ⊗ const ⊗ id where the
    constant consumes at least one wire of the current boundary, which keeps
    the diagram connected.
    """
    kind = rng.choice(["copyw", "cocw", "dscw", "codw"])
    t = T.Const(kind)
    n, m = WHITE_CONSTS[kind]
    used = 1
    while used < max_consts and rng.random() < 0.8:
        grow_right = rng.random() < 0.5
        boundary = m if grow_right else n
        if boundary == 0:
            grow_right = not grow_right
            boundary = m if grow_right else n
            if boundary == 0:
                break
        kinds = ["copyw", "dscw"]
        if boundary >= 2:
            kinds.append("cocw")
        kind = rng.choice(kinds)
        cn, cm = WHITE_CONSTS[kind]
        if grow_right:
            off = rng.randint(0, boundary - cn)
            layer = _layer(T.Const(kind), off, boundary - off - cn)
            t = T.SeqW(t, layer)
            m = m - cn + cm
        else:
            flipped = {"copyw": "cocw", "cocw": "copyw",
                       "dscw": "codw"}[kind]
            fn, fm = WHITE_CONSTS[flipped]
            off = rng.randint(0, boundary - fm)
            layer = _layer(T.Const(flipped), off, boundary - off - fm)
            t = T.SeqW(layer, t)
            n = n - fm + fn
        used += 1
    return t, n, m


def _layer(mid, left, right):
    t = mid
    if left:
        t = T.TensW(T.IdW(left), t)
    if right:
        t = T.TensW(t, T.IdW(right))
    return t


def random_white_fragment(rng, n, m, depth):
    """A random (possibly disconnected) term in the white structural fragment."""
    if depth > 0 and rng.random() < 0.6:
        if rng.random() < 0.5:
            j = rng.randint(0, 3)
            return T.SeqW(random_white_fragment(rng, n, j, depth - 1),
                          random_white_fragment(rng, j, m, depth - 1))
        n1 = rng.randint(0, n)
        m1 = rng.randint(0, m)
        return T.TensW(random_white_fragment(rng, n1, m1, depth - 1),
                       random_white_fragment(rng, n - n1, m - m1, depth - 1))
    choices = []
    if n == m:
        choices.append(T.IdW(n))
    if n == 2 and m == 2:
        choices.append(T.SymW(1, 1))
    for kind, (cn, cm) in WHITE_CONSTS.items():
        if (cn, cm) == (n, m):
            choices.append(T.Const(kind))
    if not choices:
        return T.SeqW(T.discard_w(n), T.codiscard_w(m))
    return rng.choice(choices)


# --- naive finrel oracles -------------------------------------------------

def naive_compose_white(a, b):
    pairs = []
    for xs, ys in a.pairs():
        for ys2, zs in b.pairs():
            if ys == ys2:
                pairs.append((xs, zs))
    return F.FinRelation.from_pairs(a.carrier, a.dom_arity, b.cod_arity, pairs)


def naive_compose_black(a, b):
    k = a.carrier
    bits = 0
    for r in range(a.rows):
        for c in range(b.cols):
            if all(a.bits >> (r * a.cols + y) & 1 or b.bits >> (y * b.cols + c) & 1
                   for y in range(a.cols)):
                bits |= 1 << (r * b.cols + c)
    return F.FinRelation(k, a.dom_arity, b.cod_arity, bits)


def naive_tensor_white(a, b):
    k = a.carrier
    out = []
    for xa, ya in a.pairs():
        for xb, yb in b.pairs():
            out.append((xa + xb, ya + yb))
    return F.FinRelation.from_pairs(k, a.dom_arity + b.dom_arity,
                                    a.cod_arity + b.cod_arity, out)


def naive_tensor_black(a, b):
    k = a.carrier
    cols = a.cols * b.cols
    bits = 0
    for ra in range(a.rows):
        for rb in range(b.rows):
            for ca in range(a.cols):
                for cb in range(b.cols):
                    if (a.bits >> (ra * a.cols + ca) & 1
                            or b.bits >> (rb * b.cols + cb) & 1):
                        bits |= 1 << ((ra * b.rows + rb) * cols + ca * b.cols + cb)
    return F.FinRelation(k, a.dom_arity + b.dom_arity,
                         a.cod_arity + b.cod_arity, bits)


def naive_converse(a):
    return F.FinRelation.from_pairs(
        a.carrier, a.cod_arity, a.dom_arity,
        [(ys, xs) for xs, ys in a.pairs()])


def is_function(a):
    """Direct check that every input row holds exactly one output."""
    row_mask = (1 << a.cols) - 1
    return all((a.bits >> (r * a.cols) & row_mask).bit_count() == 1
               for r in range(a.rows))


def random_relation(rng, k, n, m):
    return F.FinRelation(k, n, m, rng.getrandbits(k ** n * k ** m))


def desugared_evaluate(t, interp):
    """Oracle for `finrel.evaluate`: expand the sugar nodes into the primitive
    calculus first, then evaluate the expansion."""
    return F.evaluate(T.desugar(t, interp.signature), interp)


# --- naive doctrine oracles -----------------------------------------------

def exists_along_formula(f, alpha):
    """Direct image computed through substitution and a projection, as an
    independent cross-check of `doctrine.exists_along`."""
    X, Y = f.dom, f.cod
    pX, pY = D.proj1(X, Y), D.proj2(X, Y)
    graph = D.subst(D.product_mor(f, D.identity(Y)), D.equality_pred(Y))
    return D.exists_along(pY, D.meet(graph, D.subst(pX, alpha)))


def forall_along_fiber(f, alpha):
    """Direct fiber check: y is in the result iff every preimage is in alpha."""
    if alpha.over != f.dom:
        raise T.DiagrelError("forall_along: predicate not over the domain")
    bits = (1 << f.cod.size) - 1
    for x in range(f.dom.size):
        if x not in alpha:
            bits &= ~(1 << f.table[x])
    return D.Predicate(f.cod, bits)
