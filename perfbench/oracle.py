"""Independent answers for the benchmark's verdict checks.

Nothing here imports diagrel.  Relations are sets of (xs, ys) tuple pairs
over the carrier {0..k-1}; terms are read by a small s-expression reader of
our own; doctrine images are computed point by point.  The only thing shared
with the program is the documented file and output formats.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# s-expressions


def read_sexpr(text):
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def walk():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok != "(":
            return tok
        items = []
        while toks[pos] != ")":
            items.append(walk())
        pos += 1
        return items

    sx = walk()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return sx


# ---------------------------------------------------------------------------
# pair-set relation semantics


def tuples(k, n):
    return list(itertools.product(range(k), repeat=n))


class PairRel:
    """A relation k^n -> k^m as an explicit set of (xs, ys) pairs."""

    __slots__ = ("k", "n", "m", "pairs")

    def __init__(self, k, n, m, pairs):
        self.k, self.n, self.m, self.pairs = k, n, m, frozenset(pairs)

    def everything(self):
        return {(x, y) for x in tuples(self.k, self.n) for y in tuples(self.k, self.m)}

    def complement(self):
        return PairRel(self.k, self.n, self.m, self.everything() - self.pairs)

    def converse(self):
        return PairRel(self.k, self.m, self.n, {(y, x) for x, y in self.pairs})


def _seq_white(a, b):
    after = {}
    for y, z in b.pairs:
        after.setdefault(y, []).append(z)
    return PairRel(a.k, a.n, b.m, {(x, z) for x, y in a.pairs for z in after.get(y, ())})


def _seq_black(a, b):
    mids = tuples(a.k, a.m)
    return PairRel(a.k, a.n, b.m, {
        (x, z) for x in tuples(a.k, a.n) for z in tuples(a.k, b.m)
        if all((x, y) in a.pairs or (y, z) in b.pairs for y in mids)})


def _tens_white(a, b):
    return PairRel(a.k, a.n + b.n, a.m + b.m, {
        (x1 + x2, y1 + y2) for x1, y1 in a.pairs for x2, y2 in b.pairs})


def _tens_black(a, b):
    k = a.k
    return PairRel(k, a.n + b.n, a.m + b.m, {
        (x1 + x2, y1 + y2)
        for x1 in tuples(k, a.n) for x2 in tuples(k, b.n)
        for y1 in tuples(k, a.m) for y2 in tuples(k, b.m)
        if (x1, y1) in a.pairs or (x2, y2) in b.pairs})


def _identity(k, n):
    return PairRel(k, n, n, {(t, t) for t in tuples(k, n)})


def _constant(kind, k):
    white = {
        "copy": PairRel(k, 1, 2, {((v,), (v, v)) for v in range(k)}),
        "coc": PairRel(k, 2, 1, {((v, v), (v,)) for v in range(k)}),
        "dsc": PairRel(k, 1, 0, {((v,), ()) for v in range(k)}),
        "cod": PairRel(k, 0, 1, {((), (v,)) for v in range(k)}),
    }[kind[:-1]]
    return white if kind.endswith("w") else white.complement()


def eval_sexpr(sx, k, gens):
    """Evaluate a term (full language, sugar included) to a PairRel.
    `gens` maps generator names to PairRel values."""
    if isinstance(sx, str):
        return _constant(sx, k)
    head, args = sx[0], sx[1:]
    if head in ("idw", "idb"):
        r = _identity(k, int(args[0]))
        return r if head == "idw" else r.complement()
    if head in ("symw", "symb"):
        m, n = int(args[0]), int(args[1])
        r = PairRel(k, m + n, n + m, {
            (x + y, y + x) for x in tuples(k, m) for y in tuples(k, n)})
        return r if head == "symw" else r.complement()
    if head == "gen":
        return gens[args[0]]
    if head == "genop":
        return gens[args[0]].complement().converse()
    if head in ("top", "bot"):
        r = PairRel(k, int(args[0]), int(args[1]), ())
        return r.complement() if head == "top" else r
    vals = [eval_sexpr(a, k, gens) for a in args]
    if head == "dag":
        return vals[0].converse()
    if head == "neg":
        return vals[0].complement()
    a, b = vals
    if head == "meet":
        return PairRel(k, a.n, a.m, a.pairs & b.pairs)
    if head == "join":
        return PairRel(k, a.n, a.m, a.pairs | b.pairs)
    return {"seqw": _seq_white, "seqb": _seq_black,
            "tensw": _tens_white, "tensb": _tens_black}[head](a, b)


def bits_to_pairs(k, n, m, bits):
    """Decode the documented bitmask layout: bit row * k^m + col, tuples
    base k with the first coordinate most significant."""
    cols = k ** m
    out = set()
    for idx in range(bits.bit_length()):
        if bits >> idx & 1:
            r, c = divmod(idx, cols)
            out.add((_digits(k, n, r), _digits(k, m, c)))
    return out


def _digits(k, n, v):
    out = []
    for _ in range(n):
        v, d = divmod(v, k)
        out.append(d)
    return tuple(reversed(out))


def parse_relation_output(text):
    """Pairs of an `eval` printout: `rel NAME N M {`, `(xs ; ys)` lines, `}`."""
    lines = text.strip().splitlines()
    head = lines[0].split()
    if head[0] != "rel" or lines[-1].strip() != "}":
        raise ValueError("not a relation printout")
    pairs = set()
    for line in lines[1:-1]:
        left, right = line.strip().strip("()").split(";")
        pairs.add((tuple(map(int, left.split())), tuple(map(int, right.split()))))
    return int(head[2]), int(head[3]), pairs


# ---------------------------------------------------------------------------
# binary-relation properties for the model-search theories


def _reflexive(k, r):
    return all((x, x) in r for x in range(k))


def _transitive(k, r):
    return all((x, z) in r for x, y in r for y2, z in r if y == y2)


def _antisymmetric(k, r):
    return all(x == y for x, y in r if (y, x) in r)


def _total(k, r):
    return all((x, y) in r or (y, x) in r for x in range(k) for y in range(k))


def _symmetric(k, r):
    return all((y, x) in r for x, y in r)


def _irreflexive(k, r):
    return all((x, x) not in r for x in range(k))


PROPERTIES = {
    "reflexive": _reflexive,
    "transitive": _transitive,
    "antisymmetric": _antisymmetric,
    "total": _total,
    "symmetric": _symmetric,
    "irreflexive": _irreflexive,
}


def binary_models(k, properties):
    """Every relation on {0..k-1} (as a frozenset of (x, y) pairs) that has
    all the named properties."""
    cells = [(x, y) for x in range(k) for y in range(k)]
    out = set()
    for mask in range(1 << len(cells)):
        r = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        if all(PROPERTIES[p](k, r) for p in properties):
            out.add(r)
    return out


# ---------------------------------------------------------------------------
# powerset doctrine, point by point (sets are bit-vectors over {0..size-1})


def direct_image(table, a):
    out = 0
    for x, y in enumerate(table):
        if a >> x & 1:
            out |= 1 << y
    return out


def universal_image(table, ysize, a):
    """y is in the image iff every x with f(x) = y lies in a."""
    out = (1 << ysize) - 1
    for x, y in enumerate(table):
        if not a >> x & 1:
            out &= ~(1 << y)
    return out


def preimage(table, b):
    out = 0
    for x, y in enumerate(table):
        if b >> y & 1:
            out |= 1 << x
    return out


def choice_and_functional(phi, xsize, ysize):
    """(least-selection table or None when phi is not entire, single-valued?)
    for a predicate over X×Y indexed x * |Y| + y."""
    table = []
    functional = True
    for x in range(xsize):
        ys = [y for y in range(ysize) if phi >> (x * ysize + y) & 1]
        if len(ys) > 1:
            functional = False
        table.append(ys[0] if ys else None)
    entire = all(y is not None for y in table)
    return (table if entire else None), functional


def pred_compose(phi, psi, xs, ys, zs):
    """Relational composition of predicates over X×Y and Y×Z."""
    out = 0
    for x in range(xs):
        for z in range(zs):
            if any(phi >> (x * ys + y) & 1 and psi >> (y * zs + z) & 1 for y in range(ys)):
                out |= 1 << (x * zs + z)
    return out
