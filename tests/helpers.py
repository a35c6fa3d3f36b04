"""Shared test utilities: random well-typed term generation and naive oracles."""

import functools
import itertools
import random
import re
import sys

from hypothesis import strategies as st

from diagrel import doctrine as D
from diagrel import finrel as F
from diagrel import rewrite as R
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
        return T.SeqW(T.macro("dscw", n), T.macro("codw", m))
    return rng.choice(choices)


# --- naive finrel oracles -------------------------------------------------

def pairs(rel):
    """The (xs, ys) pairs of a relation, bit by bit in bit order."""
    k = rel.carrier
    for r in range(rel.rows):
        for c in range(rel.cols):
            if rel.bits >> (r * rel.cols + c) & 1:
                yield (F.decode(k, rel.dom_arity, r), F.decode(k, rel.cod_arity, c))


def from_pairs(k, n, m, items):
    """The relation X^n -> X^m at carrier k holding `items`, each a pair of
    tuples encoded by `finrel.encode`; the space is checked before k ** m is
    built or a pair is read."""
    F.space_bits(k, n, m)
    bits = 0
    cols = k ** m
    for xs, ys in items:
        if len(xs) != n or len(ys) != m:
            raise T.DiagrelError(f"pair arity mismatch for relation {n}->{m}")
        bits |= 1 << (F.encode(k, xs) * cols + F.encode(k, ys))
    return F.FinRelation(k, n, m, bits)


def naive_row_masks(bits, nrows, cols):
    """The `nrows` row masks of `cols` bits in `bits`, one shift per row."""
    return [bits >> r * cols & (1 << cols) - 1 for r in range(nrows)]


def naive_compose_white(a, b):
    out = []
    for xs, ys in pairs(a):
        for ys2, zs in pairs(b):
            if ys == ys2:
                out.append((xs, zs))
    return from_pairs(a.carrier, a.dom_arity, b.cod_arity, out)


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
    for xa, ya in pairs(a):
        for xb, yb in pairs(b):
            out.append((xa + xb, ya + yb))
    return from_pairs(k, a.dom_arity + b.dom_arity, a.cod_arity + b.cod_arity, out)


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


def naive_graph(k, n, m, f):
    """The relation X^n -> X^m relating each n-tuple t to the m-tuple f(t),
    by enumerating the tuples and encoding each pair."""
    return from_pairs(
        k, n, m, ((t, f(t)) for t in itertools.product(range(k), repeat=n)))


def naive_converse(a):
    return from_pairs(
        a.carrier, a.cod_arity, a.dom_arity,
        [(ys, xs) for xs, ys in pairs(a)])


def is_function(a):
    """Direct check that every input row holds exactly one output."""
    row_mask = (1 << a.cols) - 1
    return all((a.bits >> (r * a.cols) & row_mask).bit_count() == 1
               for r in range(a.rows))


def linear_adjoint(a):
    """Converse of the complement; both linear adjoints of a in relations."""
    return F.converse(F.complement(a))


def is_map(a):
    """True iff a is total and single-valued (a function): a ; copy equals
    copy ; (a (x) a) and a ; discard equals discard, each lax law and its colax
    converse decided by one equality."""
    k = a.carrier
    copies = F.equal(F.compose_white(a, F.constant("copyw", k, a.cod_arity)),
                     F.compose_white(F.constant("copyw", k, a.dom_arity), F.tensor_white(a, a)))
    return copies and F.equal(F.compose_white(a, F.constant("dscw", k, a.cod_arity)),
                              F.constant("dscw", k, a.dom_arity))


def random_relation(rng, k, n, m):
    return F.FinRelation(k, n, m, rng.getrandbits(k ** n * k ** m))


def naive_evaluate(t, interp):
    """Oracle for `finrel.evaluate`, which compiles a `finrel.Program`:
    one recursive call per node, each node's relation operation applied to
    its children's values, generator-free subterms included."""
    k, ev, cls = interp.carrier, naive_evaluate, type(t)
    if cls is T.Gen:
        return interp.assignment[t.name]
    if cls is T.GenOp:
        return linear_adjoint(interp.assignment[t.name])
    if cls in T.BINARY:
        op = {T.SeqW: F.compose_white, T.SeqB: F.compose_black, T.TensW: F.tensor_white,
              T.TensB: F.tensor_black, T.Meet: F.intersection, T.Join: F.union}[cls]
        return op(ev(t.t, interp), ev(t.u, interp))
    if cls is T.Dag or cls is T.Neg:
        return (F.converse if cls is T.Dag else F.complement)(ev(t.t, interp))
    if cls is T.Const:
        return F.constant(t.kind, k, 1)
    if cls in (T.IdW, T.IdB):
        return F.constant("idw" if cls is T.IdW else "idb", k, t.n)
    if cls in (T.SymW, T.SymB):
        return F.constant("symw" if cls is T.SymW else "symb", k, t.m, t.n)
    if cls in (T.Top, T.Bot):
        return F.constant("top" if cls is T.Top else "bot", k, t.n, t.m)
    raise T.DiagrelError(f"cannot evaluate {t!r}")


def desugared_evaluate(t, interp):
    """Oracle for `finrel.evaluate`: expand the sugar nodes into the primitive
    calculus first, then evaluate the expansion by `naive_evaluate`."""
    return naive_evaluate(T.desugar(t, interp.signature), interp)


_SWITCH = {T.Meet: T.Join, T.Join: T.Meet, T.Top: T.Bot, T.Bot: T.Top, **T.MIRROR}


def mirror(t):
    """The colour switch of a term: white and black heads and constants swap,
    meet with join and top with bot; dag, neg, gen and genop are kept."""
    if type(t) is T.Const:
        return T.Const(T.mirror_head(t.kind))
    return _SWITCH.get(type(t), type(t))(*[
        mirror(v) if isinstance(v, T.Term) else v for v in map(t.__getattribute__, t._fields)])


# --- naive readers and writers of relation text ----------------------------

def naive_parse_interpretation(text, sig):
    """Oracle for `finrel.parse_interpretation`: the token-by-token reader,
    with a `take`/`peek`/`nat` call per token."""
    toks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        for frag in line.replace("{", " { ").replace("}", " } ") \
                        .replace("(", " ( ").replace(")", " ) ") \
                        .replace(";", " ; ").split():
            toks.append((frag, lineno))
    pos = 0

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    def take(expect=None):
        nonlocal pos
        if pos >= len(toks):
            raise T.ParseError("unexpected end of interpretation file"
                               + (f", expected {expect!r}" if expect else ""))
        tok, line = toks[pos]
        if expect is not None and tok != expect:
            raise T.ParseError(f"expected {expect!r}, got {tok!r}", line, 1)
        pos += 1
        return tok, line

    def nat(what):
        # a natural number is ASCII digits, as many as `int` reads; a leading
        # `-` makes it a negative one
        tok, line = take()
        numeral = re.fullmatch(r"-*([0-9]+)", tok)
        if numeral and tok[0] == "-":
            raise T.ParseError(f"{what} must be non-negative", line, 1)
        if not numeral or len(tok) > sys.get_int_max_str_digits():
            raise T.ParseError(f"expected {what}, got {tok!r}", line, 1)
        return int(tok)

    take("carrier")
    k = nat("carrier size")
    assignment = {}
    while peek() is not None:
        take("rel")
        name, line = take()
        if name not in sig.generators:
            raise T.ParseError(f"unknown generator {name!r}", line, 1)
        if name in assignment:
            raise T.ParseError(f"duplicate relation for {name!r}", line, 1)
        n = nat("arity")
        m = nat("coarity")
        if (n, m) != sig.generators[name]:
            raise T.ParseError(
                f"relation {name} declared {n}->{m}, signature says "
                f"{sig.generators[name][0]}->{sig.generators[name][1]}", line, 1)
        take("{")
        block = []
        while peek() != "}":
            take("(")
            xs = []
            while peek() != ";":
                xs.append(nat("tuple entry"))
            take(";")
            ys = []
            while peek() != ")":
                ys.append(nat("tuple entry"))
            take(")")
            if len(xs) != n or len(ys) != m:
                raise T.ParseError(f"tuple arity mismatch in relation {name}", line, 1)
            block.append((tuple(xs), tuple(ys)))
        take("}")
        assignment[name] = from_pairs(k, n, m, block)
    return F.Interpretation(sig, k, assignment)


def naive_print_term(t):
    """The recursive term printer, one Python frame per term level."""
    cls = type(t)
    if cls is T.Const:
        return t.kind
    head, kind, names = T._SYNTAX[cls]
    args = (map(naive_print_term, T.children(t)) if kind == "term"
            else [str(getattr(t, f)) for f in names])
    return f"({head} {' '.join(args)})"


def naive_equal(a, b):
    """Oracle for term `==`: the recursive structural equality, one Python
    frame per term level: one class, and equal fields, subterms compared by
    this function."""
    return type(a) is type(b) and all(
        naive_equal(x, y) if isinstance(x, T.Term) else x == y
        for x, y in zip(map(a.__getattribute__, a._fields), map(b.__getattribute__, b._fields)))


def naive_format_relation(name, rel):
    """Oracle for `finrel.format_relation`: a line per pair of `pairs(rel)`."""
    lines = [f"rel {name} {rel.dom_arity} {rel.cod_arity} {{"]
    for xs, ys in pairs(rel):
        lines.append("  (" + " ".join(map(str, xs)) + " ; " + " ".join(map(str, ys)) + ")")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text, sig):
    """What a reader makes of `text`: the interpretation, or the class,
    message and line of the error it raises."""
    try:
        return parse(text, sig)
    except T.DiagrelError as e:
        return type(e), str(e), getattr(e, "line", None)


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
    rel = from_pairs(k, form.n, form.m, pairs)
    return rel if form.colour == "w" else F.complement(rel)


def naive_fragment_colour(t):
    """The colour of a desugared term in the Frobenius fragment, or the
    SpiderError message of a pre-order scan: the first node outside the
    fragment, else mixed colours."""
    colours = set()
    stack = [(t, ())]
    while stack:
        t, path = stack.pop()
        if type(t) is T.Const:
            colours.add(t.kind[-1])
        elif type(t) in (T.Gen, T.GenOp):
            return f"outside Frobenius fragment: {T.print_term(t)} at {T.format_position(path)}"
        else:  # a primitive head ends in its colour
            colours.add(next(h for h, (cls, _) in T.FORMS.items() if cls is type(t))[-1])
        kids = T.children(t)
        stack += [(kid, path + (i,)) for i, kid in reversed(list(enumerate(kids)))]
    if len(colours) > 1:
        return "mixed colours: term outside either Frobenius fragment"
    return colours.pop() if colours else "w"


# --- naive doctrine oracles -----------------------------------------------

def naive_relp_tensor(phi, psi, X1, Y1, X2, Y2):
    """The tensor of phi over X1×Y1 and psi over X2×Y2, pointwise over
    (X1×X2)×(Y1×Y2)."""
    XX, YY = D.prod(X1, X2), D.prod(Y1, Y2)
    bits = 0
    for x1, x2, y1, y2 in itertools.product(
            range(X1.size), range(X2.size), range(Y1.size), range(Y2.size)):
        if D.pair_index(X1, Y1, x1, y1) in phi and D.pair_index(X2, Y2, x2, y2) in psi:
            row = D.pair_index(X1, X2, x1, x2)
            col = D.pair_index(Y1, Y2, y1, y2)
            bits |= 1 << D.pair_index(XX, YY, row, col)
    return D.Predicate(D.prod(XX, YY), bits)


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


def naive_comprehension(alpha, max_test_size=3):
    """Oracle for `doctrine.comprehension`: every candidate factorization is
    built and composed as a `FinSetMor`."""
    X = alpha.over
    members = alpha.members()
    X_alpha = D.FinSetObj(len(members))
    incl = D.FinSetMor(X_alpha, X, tuple(members))
    report = {
        "subst_top": D.subst(incl, alpha) == D.top(X_alpha),
        "universal": True,
        "fullness": True,
    }
    for ysize in range(max_test_size + 1):
        Y = D.FinSetObj(ysize)
        for f in D.all_morphisms(Y, X):
            if D.subst(f, alpha) != D.top(Y):
                continue
            factorizations = [h for h in D.all_morphisms(Y, X_alpha)
                              if D.compose(h, incl) == f]
            if len(factorizations) != 1:
                report["universal"] = False
    for beta in D.all_predicates(X):
        other_members = beta.members()
        X_beta = D.FinSetObj(len(other_members))
        incl_beta = D.FinSetMor(X_beta, X, tuple(other_members))
        factors = any(D.compose(h, incl_beta) == incl
                      for h in D.all_morphisms(X_alpha, X_beta))
        if factors != D.leq(alpha, beta):
            report["fullness"] = False
    return X_alpha, incl, report


# --- rewrite chains and the naive proof replay -----------------------------

def random_primitive(rng, sig, n, m, depth):
    """A random primitive term of type n -> m (n, m <= 2) in both colours,
    built from identities, symmetries, the (co)monoid constants and the
    generators of `sig` and their opposed boxes."""
    white = rng.random() < 0.5
    seq, tens, ident = (T.SeqW, T.TensW, T.IdW) if white else (T.SeqB, T.TensB, T.IdB)
    atoms = [T.Const(kind if white else kind[:-1] + "b")
             for kind, ty in WHITE_CONSTS.items() if ty == (n, m)]
    for name, (dn, dm) in sorted(sig.generators.items()):
        if (dn, dm) == (n, m):
            atoms.append(T.Gen(name))
        if (dm, dn) == (n, m):
            atoms.append(T.GenOp(name))
    if n == m:
        atoms.append(ident(n))
    if (n, m) == (2, 2):
        atoms.append((T.SymW if white else T.SymB)(1, 1))
    if depth <= 0 and atoms:
        return rng.choice(atoms)
    if depth <= 0 or (rng.random() < 0.5 and n >= 1 and m >= 1):
        if depth <= 0:  # (0, 2) or (2, 0): two one-wire halves
            half = (n // 2, m // 2)
            return tens(random_primitive(rng, sig, *half, 0),
                        random_primitive(rng, sig, *half, 0))
        n1, m1 = rng.randint(0, n), rng.randint(0, m)
        return tens(random_primitive(rng, sig, n1, m1, depth - 1),
                    random_primitive(rng, sig, n - n1, m - m1, depth - 1))
    j = rng.randint(0, 2)
    return seq(random_primitive(rng, sig, n, j, depth - 1),
               random_primitive(rng, sig, j, m, depth - 1))


def term_size(t):
    return 1 + sum(term_size(kid) for kid in T.children(t))


def unit_assoc_rewrites(t, sig, grow):
    """(axiom, direction, result) for every unit or associativity step of
    either colour that applies at the root of t; with `grow`, also the unit
    laws right to left, which insert identities."""
    out = []
    for seq, tens, ident, sfx in ((T.SeqW, T.TensW, T.IdW, ""),
                                  (T.SeqB, T.TensB, T.IdB, "-b")):
        for op, name in ((seq, "seq"), (tens, "tens")):
            if type(t) is op and type(t.t) is op:
                out.append((f"{name}-assoc{sfx}", "l2r", op(t.t.t, op(t.t.u, t.u))))
            if type(t) is op and type(t.u) is op:
                out.append((f"{name}-assoc{sfx}", "r2l", op(op(t.t, t.u.t), t.u.u)))
        if type(t) is seq and type(t.t) is ident:
            out.append((f"seq-unit-l{sfx}", "l2r", t.u))
        if type(t) is seq and type(t.u) is ident:
            out.append((f"seq-unit-r{sfx}", "l2r", t.t))
        if type(t) is tens and t.t == ident(0):
            out.append((f"tens-unit-l{sfx}", "l2r", t.u))
        if type(t) is tens and t.u == ident(0):
            out.append((f"tens-unit-r{sfx}", "l2r", t.t))
        if grow:
            n, m = T.typecheck(t, sig)
            out.append((f"seq-unit-l{sfx}", "r2l", seq(ident(n), t)))
            out.append((f"seq-unit-r{sfx}", "r2l", seq(t, ident(m))))
            out.append((f"tens-unit-l{sfx}", "r2l", tens(ident(0), t)))
            out.append((f"tens-unit-r{sfx}", "r2l", tens(t, ident(0))))
    return out


def random_chain(rng, sig, steps, node_cap=40):
    """A random primitive start term, `steps` valid unit and associativity
    steps from it, and the term they lead to, computed without the kernel."""
    start = term = random_primitive(rng, sig, 1, 1, 3)
    chain = []
    while len(chain) < steps:
        path = rng.choice(positions(term))
        options = unit_assoc_rewrites(naive_subterm_at(term, path), sig,
                                      term_size(term) < node_cap)
        if options:
            axiom, direction, new = rng.choice(options)
            term = naive_splice(term, path, new)
            chain.append(R.Step(axiom, path, direction))
    return start, term, tuple(chain)


def positions(t):
    """All valid positions of t, root first, depth-first."""
    out = [()]
    for i, kid in enumerate(T.children(t)):
        out.extend((i,) + p for p in positions(kid))
    return out


def naive_subterm_at(t, path):
    for i, step in enumerate(path):
        kids = T.children(t)
        if step < 0 or step >= len(kids):
            raise T.InvalidPosition(
                f"no child {step} at {T.format_position(path[:i])} in {T.print_term(t)}")
        t = kids[step]
    return t


def naive_splice(t, path, u):
    if not path:
        return u
    kids = list(T.children(t))
    kids[path[0]] = naive_splice(kids[path[0]], path[1:], u)
    return type(t)(*kids)


@functools.cache
def naive_macro(kind, n):
    """Oracle for `terms.macro`: a white macro built by recursion on the arity,
    a black one as the colour switch (`_negate_prim`) of its white mirror."""
    if kind[-1] == "b":
        return T._negate_prim(naive_macro(T.mirror_head(kind), n), T.EMPTY_SIGNATURE)
    if n == 0:
        return T.IdW(0)
    one = T.Const(kind)
    if n == 1:
        return one
    rest = naive_macro(kind, n - 1)
    if kind in ("dscw", "codw"):
        return T.TensW(one, rest)
    if kind == "copyw":  # first copy, then second copy
        return T.SeqW(T.TensW(one, rest),
                      T.TensW(T.IdW(1), T.TensW(T.SymW(1, n - 1), T.IdW(n - 1))))
    return T.SeqW(T.TensW(T.IdW(1), T.TensW(T.SymW(n - 1, 1), T.IdW(n - 1))),
                  T.TensW(one, rest))


def naive_instantiate(p, binding, sig=T.EMPTY_SIGNATURE):
    """Oracle for `rewrite.instantiate`: the pattern walked afresh on every call."""
    if isinstance(p, R.PVar):
        if p.name not in binding:
            raise R.UnboundMetavariable(f"arrow metavariable {p.name!r} unbound")
        v = binding[p.name]
        if not isinstance(v, T.Term):
            raise R.RewriteError(f"binding for {p.name!r} is not a term")
        return v
    if isinstance(p, R.PGenVar):
        if p.var not in binding:
            raise R.UnboundMetavariable(f"generator metavariable {p.var!r} unbound")
        name = binding[p.var]
        if name not in sig.generators:
            raise R.RewriteError(f"unknown generator {name!r} for metavariable {p.var!r}")
        return T.GenOp(name) if p.op else T.Gen(name)
    if isinstance(p, R.PConstM):
        vals = [R._expr_value(e, binding, sig) for e in p.objs]
        if p.kind in T.CONSTANT_TYPES:
            return naive_macro(p.kind, *vals)
        return T.FORMS[p.kind][0](*vals)
    if isinstance(p, R.PBin):
        return T.FORMS[p.op][0](naive_instantiate(p.l, binding, sig),
                                naive_instantiate(p.r, binding, sig))
    raise R.RewriteError(f"not a pattern: {p!r}")


def naive_match_pattern(p, t, sig=T.EMPTY_SIGNATURE, binding=None):
    """Oracle for `rewrite.match_pattern`: the pattern walked afresh on every
    call, and every constant macro (identities and symmetries too) matched by
    building its instance and comparing it with the candidate."""
    b = dict(binding) if binding else {}
    return b if _naive_match(p, t, sig, b) else None


def _naive_match(p, t, sig, b):
    if isinstance(p, R.PVar):
        if p.name in b:
            return b[p.name] == t
        b[p.name] = t
        return True
    if isinstance(p, R.PGenVar):
        want = T.GenOp if p.op else T.Gen
        if type(t) is not want:
            return False
        if p.var in b:
            return b[p.var] == t.name
        b[p.var] = t.name
        return True
    if isinstance(p, R.PBin):
        if type(t) is not T.FORMS[p.op][0]:
            return False
        return _naive_match(p.l, t.t, sig, b) and _naive_match(p.r, t.u, sig, b)
    if isinstance(p, R.PConstM):
        # Determine the macro arities from the candidate's shape/type, then
        # require the expansion to be syntactically equal to the candidate.
        if p.kind in ("symw", "symb"):
            if type(t) is not T.FORMS[p.kind][0]:
                return False
            targets = (t.m, t.n)
        else:
            try:
                n, m = T.typecheck(t, sig)
            except T.DiagrelError:
                return False
            # the cocopy and codiscard families are indexed by their codomain
            targets = (m if p.kind[:3] in ("coc", "cod") else n),
            if p.kind in ("idw", "idb") and n != m:
                return False
        for expr, val in zip(p.objs, targets):
            if not R._solve_expr(expr, val, b, sig):
                return False
        try:
            return naive_instantiate(p, b, sig) == t
        except R.UnboundMetavariable:
            return False
    raise R.RewriteError(f"not a pattern: {p!r}")


def naive_apply_step(t, step, sig):
    """Oracle for `rewrite.apply_step`: one walk to find the subterm, a full
    typecheck of the old subterm and of the replacement, a second walk to
    splice it in."""
    axiom = R.axiom_by_name(step.axiom)
    if step.direction not in ("l2r", "r2l"):
        raise R.RewriteError(f"bad direction {step.direction!r}")
    if step.direction == "r2l" and axiom.kind == "le":
        raise R.RewriteError(
            f"axiom {axiom.name} is an inequality; r2l would rewrite downward")
    objs, arrows, gens = axiom.variables()
    for name, value in step.bindings:
        if name in objs and type(value) is not int:
            raise R.RewriteError(f"object metavariable {name!r} must be bound to a number")
        if name in arrows and not isinstance(value, T.Term):
            raise R.RewriteError(f"arrow metavariable {name!r} must be bound to a term")
        if name in gens and type(value) is not str:
            raise R.RewriteError(f"generator metavariable {name!r} must be bound to a generator")
        if name not in objs | arrows | gens:
            raise R.RewriteError(f"{name!r} is not a metavariable of axiom {axiom.name}")
    src, dst = (axiom.lhs, axiom.rhs) if step.direction == "l2r" else (axiom.rhs, axiom.lhs)
    sub = naive_subterm_at(t, step.position)
    binding = naive_match_pattern(src, sub, sig, dict(step.bindings))
    if binding is None:
        raise R.RewriteError(
            f"axiom {axiom.name} ({step.direction}) does not match at "
            f"{T.format_position(step.position)}")
    for name, de, ce in axiom.arrows:  # arrow types, in one pass
        v = binding.get(name)
        if not isinstance(v, T.Term):
            continue
        n, m = T.typecheck(v, sig)
        for expr, val in ((de, n), (ce, m)):
            if not R._solve_expr(expr, val, binding, sig):
                raise R.RewriteError(
                    f"arrow {name!r} bound to a term of type {(n, m)} "
                    f"incompatible with its declared type")
    try:
        repl = naive_instantiate(dst, binding, sig)
    except R.UnboundMetavariable as e:
        raise R.RewriteError(f"{e}; supply it with an explicit `with` binding") from None
    old_ty = T.typecheck(sub, sig)
    new_ty = T.typecheck(repl, sig)
    if old_ty != new_ty:
        raise T.TypeMismatch(f"replacement type {new_ty} differs from {old_ty}",
                             step.position)
    return naive_splice(t, tuple(step.position), repl)


def naive_check_proof(script, sig):
    """Oracle for `rewrite.check_proof`, replaying with `naive_apply_step`."""
    try:
        ty1 = T.typecheck(script.lhs, sig)
        ty2 = T.typecheck(script.rhs, sig)
    except T.DiagrelError as e:
        return R.Verdict(False, -1, f"claim does not typecheck: {e}")
    if ty1 != ty2:
        return R.Verdict(False, -1, f"claim types differ: {ty1} vs {ty2}")
    cur = T.desugar(script.lhs, sig)
    goal = T.desugar(script.rhs, sig)
    for idx, step in enumerate(script.steps):
        try:
            cur = naive_apply_step(cur, step, sig)
        except T.DiagrelError as e:
            return R.Verdict(False, idx, str(e))
    if cur != goal:
        return R.Verdict(
            False, len(script.steps),
            f"final term {T.print_term(cur)} differs from goal {T.print_term(goal)}")
    return R.Verdict(True, -1, "")


# --- naive verification and search oracles -------------------------------

def naive_instance(axiom, rng, max_obj=2):
    """A random instance of `axiom`, built afresh: (sig, lhs, rhs, binding)."""
    binding = {}
    objs, arrows, gens = axiom.variables()
    for v in sorted(objs):
        binding[v] = rng.randint(0, max_obj)
    generators = {}
    for g in sorted(gens):
        name = "~" + g
        generators[name] = (rng.randint(0, max_obj), rng.randint(0, max_obj))
        binding[g] = name
    sig_partial = T.Signature(generators)
    for name, de, ce in axiom.arrows:
        n = R._expr_value(de, binding, sig_partial)
        m = R._expr_value(ce, binding, sig_partial)
        generators["~" + name] = (n, m)
        binding[name] = T.Gen("~" + name)
    sig = T.Signature(generators)
    lhs = naive_instantiate(axiom.lhs, binding, sig)
    return sig, lhs, naive_instantiate(axiom.rhs, binding, sig), binding


def random_interpretation(sig, k, rng):
    """Oracle for `finrel.Program.draw`: a random relation per generator, drawn
    in name order, one `getrandbits` call per non-empty space."""
    assignment = {}
    for name, (n, m) in sorted(sig.generators.items()):
        size = F.space_bits(k, n, m)
        assignment[name] = F.FinRelation(k, n, m, rng.getrandbits(size) if size else 0)
    return F.Interpretation(sig, k, assignment)


def naive_verify_axiom(axiom, k=2, trials=200, seed=0, max_obj=2):
    """Oracle for `rewrite.verify_axiom`, its loop before instances were
    memoized and compiled: a fresh instance every trial, evaluated by
    `naive_evaluate`.  Only the verdict of an axiom without arrow or
    generator metavariables is reused, keyed by its object binding."""
    rng = random.Random((axiom.name, k, seed).__repr__())
    failures = 0
    counterexample = ""
    objs, arrows, gens = axiom.variables()
    constant_axiom = not arrows and not gens
    seen = {}
    for _ in range(trials):
        sig, lhs, rhs, binding = naive_instance(axiom, rng, max_obj)
        interp = random_interpretation(sig, k, rng)
        key = tuple(sorted((v, binding[v]) for v in objs))
        if constant_axiom and key in seen:
            failures += seen[key]
            continue
        lv = naive_evaluate(lhs, interp)
        rv = naive_evaluate(rhs, interp)
        bad = not (F.included(lv, rv) and (axiom.kind == "le" or F.included(rv, lv)))
        if constant_axiom:
            seen[key] = bad
        if bad:
            failures += 1
            if not counterexample:
                counterexample = (
                    f"binding={binding} lhs={T.print_term(lhs)} rhs={T.print_term(rhs)} "
                    f"witness={F.inclusion_witness(lv, rv) or F.inclusion_witness(rv, lv)}")
    return R.AxiomReport(axiom.name, axiom.family, trials, failures, counterexample)


def naive_models(theory, k):
    """Oracle for `theory.enumerate_models`: every candidate interpretation in
    lexicographic order, each axiom evaluated by `naive_evaluate`.  Returns
    the models' assignment bits."""
    gens = theory.signature.generators
    names = sorted(gens)
    sizes = [F.space_bits(k, *gens[n]) for n in names]
    models = []
    for masks in itertools.product(*(range(1 << size) for size in sizes)):
        interp = F.Interpretation(theory.signature, k, {
            name: F.FinRelation(k, *gens[name], b) for name, b in zip(names, masks)})
        if all(F.included(naive_evaluate(lhs, interp), naive_evaluate(rhs, interp))
               for _, lhs, rhs in theory.axioms):
            models.append(masks)
    return models


def count_calls(monkeypatch, module, name):
    """Replace `module.name` in every diagrel module that holds it by a
    counting wrapper; returns the one-element list holding the count."""
    orig = getattr(module, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return orig(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("diagrel"):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return count


# --- proof-script text for fuzzing -----------------------------------------

PROOF_PIECES = (
    "prove", "step", "qed", "at", "dir", "with", "l2r", "r2l", "e", "ε", "0",
    "1.0", "0.1.1", "-1", "x", "<=", "#", "(", ")", "(idw 1)", "(idb 1)",
    "(gen R)", "(genop S)", "copyw", "(seqw (idw 1) (gen R))", "(top 1 1)",
    "X=1", "X=0", "X=-1", "X=²", "X=--3", "X=+3", "X=٣", "X=(gen R)", "X=R", "Y=2",
    "a=(gen R)",
    "a=(seqw (gen S) (gen S))", "a=3", "a=", "r=R", "r=Q", "r=1",
    "seq-unit-l", "seq-unit-r-b", "tens-assoc", "copy-as", "eta-copy",
    "gen-tau", "discard-nat", "no-such-axiom",
)


def proof_text():
    """Arbitrary text, and scripts assembled from proof-script pieces with
    mostly well-shaped step lines, so that generated input also reaches the
    bindings and the replay, not only the first checks of the parser."""
    piece = st.sampled_from(PROOF_PIECES) | st.text(max_size=3)
    words = st.lists(piece, max_size=4).map(" ".join)
    step = st.builds(
        "step {} at {} dir {} with {}".format,
        st.sampled_from(["seq-unit-l", "seq-unit-r", "tens-unit-l", "copy-as",
                         "gen-tau", "discard-nat"]) | words,
        st.sampled_from(["e", "0", "1", "0.0", "-1", "9"]) | words,
        st.sampled_from(["l2r", "r2l"]) | words,
        st.lists(st.sampled_from([p for p in PROOF_PIECES if "=" in p]),
                 max_size=3).map(" ".join) | words)
    line = step | st.lists(piece, max_size=10).map(" ".join)
    return st.text(max_size=200) | st.tuples(
        st.sampled_from(["", "prove (idw 1) <= (idw 1)\n",
                         "prove (seqw (idw 1) (gen R)) <= (gen R)\n"]),
        st.lists(line, max_size=6).map("\n".join),
        st.sampled_from(["", "\nqed\n"]),
    ).map("".join)


# --- parser input for fuzzing ----------------------------------------------

TERM_PIECES = (
    "(", ")", ";", "idw", "idb", "symw", "symb", "gen", "genop", "seqw", "seqb",
    "tensw", "tensb", "meet", "join", "dag", "neg", "top", "bot", "copyw", "cocw",
    "dscw", "codw", "copyb", "cocb", "dscb", "codb", "R", "S", "P", "Q",
    "(gen R)", "(idw 1)", "(symb 1 0)", "(top 2 1)",
)
SIG_PIECES = ("sig", ":", "->", "#", "R", "S", ":1", "->1", "sig R : 1 -> 1")
INTERP_PIECES = (
    "carrier", "rel", "R", "S", "Q", "{", "}", "(", ")", ";", "#", "rel R 1 1 {",
    "(0 ; 1)", "(1 0 ; 1)",
)
#: tokens that are no natural number by the numeral rule, though `int` or
#: `str.isdecimal` would read some of them, and one too large for any arity
ODD_NUMERALS = ("--3", "+3", "1_0", "٣")
HUGE_NUMERAL = "99999999999999999999"
THEORY_PIECES = TERM_PIECES + (
    "sig", "axiom", "sig R : 1 -> 1", "axiom a :", ":", "<=", "->", "#",
)


def term_texts(sig):
    """Printed random terms over `sig`, with arities at most 2."""
    return st.builds(
        lambda seed, n, m: T.print_term(random_term(random.Random(seed), sig, n, m, 3)),
        st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(0, 2))


def interpretation_texts(sig):
    """Printed random interpretations of `sig` at carriers 0..3."""
    def text(seed, k):
        rng = random.Random(seed)
        return F.print_interpretation(F.Interpretation(sig, k, {
            name: random_relation(rng, k, n, m)
            for name, (n, m) in sig.generators.items()}))
    return st.builds(text, st.integers(0, 10 ** 6), st.integers(0, 3))


def theory_texts(sig):
    """Theory files over `sig` with up to three well-typed random axioms."""
    def text(seed, count):
        rng = random.Random(seed)
        lines = [f"sig {name} : {n} -> {m}" for name, (n, m) in sig.generators.items()]
        for i in range(count):
            n, m = rng.randint(0, 2), rng.randint(0, 2)
            lhs, rhs = (T.print_term(random_term(rng, sig, n, m, 2)) for _ in "lr")
            lines.append(f"axiom a{i} : {lhs} <= {rhs}")
        return "\n".join(lines) + "\n"
    return st.builds(text, st.integers(0, 10 ** 6), st.integers(0, 3))


def token_text(pieces, valid):
    """Parser input: a text drawn from the strategy `valid` with up to three
    of its space-separated words dropped, replaced by a piece or preceded by
    one, or else pieces alone, each followed by a space or a newline.  A
    piece is one of `pieces`, an integer in -1..3 or a short word without
    digits, so no number exceeds the largest in `valid` or 3."""
    piece = (st.sampled_from(pieces) | st.integers(-1, 3).map(str)
             | st.text(st.characters(blacklist_categories=("Nd",)), max_size=3))

    @st.composite
    def edited(draw):
        words = draw(valid).split(" ")
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(words) - 1))
            edit = draw(st.sampled_from(["drop", "replace", "insert"]))
            if edit == "drop":
                del words[i]
            else:
                words[i:i + (edit == "replace")] = [draw(piece)]
            if not words:
                break
        return " ".join(words)

    soup = st.lists(st.tuples(piece, st.sampled_from([" ", "\n"])), max_size=30).map(
        lambda items: "".join(p + sep for p, sep in items))
    return edited() | soup
