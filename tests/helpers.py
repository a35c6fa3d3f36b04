"""Shared test utilities: random well-typed term generation and naive oracles."""

import random

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
        path = rng.choice(T.positions(term))
        options = unit_assoc_rewrites(naive_subterm_at(term, path), sig,
                                      term_size(term) < node_cap)
        if options:
            axiom, direction, new = rng.choice(options)
            term = naive_splice(term, path, new)
            chain.append(R.Step(axiom, path, direction))
    return start, term, tuple(chain)


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
    return T.with_children(t, kids)


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
    objs = axiom.variables()[0]
    for name, value in step.bindings:
        if name in objs and type(value) is not int:
            raise R.RewriteError(f"object metavariable {name!r} must be bound to a number")
    src, dst = (axiom.lhs, axiom.rhs) if step.direction == "l2r" else (axiom.rhs, axiom.lhs)
    sub = naive_subterm_at(t, step.position)
    binding = R.match_pattern(src, sub, sig, dict(step.bindings))
    if binding is None:
        raise R.RewriteError(
            f"axiom {axiom.name} ({step.direction}) does not match at "
            f"{T.format_position(step.position)}")
    R._infer_arrow_types(axiom, binding, sig)
    try:
        repl = R.instantiate(dst, binding, sig)
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
    return R.Verdict(True)


# --- proof-script text for fuzzing -----------------------------------------

PROOF_PIECES = (
    "prove", "step", "qed", "at", "dir", "with", "l2r", "r2l", "e", "ε", "0",
    "1.0", "0.1.1", "-1", "x", "<=", "#", "(", ")", "(idw 1)", "(idb 1)",
    "(gen R)", "(genop S)", "copyw", "(seqw (idw 1) (gen R))", "(top 1 1)",
    "X=1", "X=0", "X=-1", "X=²", "X=(gen R)", "X=R", "Y=2", "a=(gen R)",
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
