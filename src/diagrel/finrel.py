"""Finite relations over a carrier {0..k-1} and evaluation of terms.

A relation X^n -> X^m is stored as an integer bitmask over the k^n * k^m
pairs of tuples.  Tuples are encoded base-k with the *first* coordinate most
significant, and the pair (row, col) indexes bit row * k^m + col.

Only the white (cartesian) half has kernels of its own: composition is the
usual relational composition and the tensor is conjunctive.  The black half
is computed as their De Morgan dual: R ;b S = ~(~R ; ~S) (a universally
quantified disjunction), the black tensor likewise (disjunctive), and each
black constant is the complement of its white mirror.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .terms import (
    Bot, Const, Dag, DiagrelError, Gen, GenOp, IdB, IdW, Join, Meet, Neg,
    ParseError, SeqB, SeqW, Signature, SymB, SymW, TensB, TensW, Top, typecheck,
)

MAX_BITS = 2 ** 30


class SizeLimit(DiagrelError):
    pass


def space_bits(k, n, m):
    """The bit count k^n * k^m of a relation X^n -> X^m, or SizeLimit above
    MAX_BITS; for k >= 2 the exponent decides first, so no huge power is built."""
    if k < 0:
        raise DiagrelError("carrier size must be non-negative")
    if k > 1 and (n + m) * (k.bit_length() - 1) > MAX_BITS.bit_length() \
            or (size := (k ** n) * (k ** m)) > MAX_BITS:
        raise SizeLimit(f"relation space {k}^{n + m} exceeds {MAX_BITS} bits")
    return size


def encode(k, tup):
    """Base-k encode, first coordinate most significant."""
    v = 0
    for x in tup:
        if not 0 <= x < k:
            raise DiagrelError(f"value {x} outside carrier 0..{k - 1}")
        v = v * k + x
    return v


def decode(k, arity, v):
    out = []
    for _ in range(arity):
        out.append(v % k)
        v //= k
    return tuple(reversed(out))


@dataclass(frozen=True)
class FinRelation:
    carrier: int
    dom_arity: int
    cod_arity: int
    bits: int

    def __post_init__(self):
        size = space_bits(self.carrier, self.dom_arity, self.cod_arity)
        if not 0 <= self.bits < (1 << size):
            raise DiagrelError("bitmask out of range for relation space")

    @property
    def rows(self):
        return self.carrier ** self.dom_arity

    @property
    def cols(self):
        return self.carrier ** self.cod_arity

    def has(self, xs, ys):
        k = self.carrier
        return bool(self.bits >> (encode(k, xs) * self.cols + encode(k, ys)) & 1)

    def pairs(self):
        k = self.carrier
        for r in range(self.rows):
            for c in range(self.cols):
                if self.bits >> (r * self.cols + c) & 1:
                    yield (decode(k, self.dom_arity, r), decode(k, self.cod_arity, c))

    @staticmethod
    def from_pairs(k, n, m, pairs):
        bits = 0
        cols = k ** m
        for xs, ys in pairs:
            if len(xs) != n or len(ys) != m:
                raise DiagrelError(f"pair arity mismatch for relation {n}->{m}")
            bits |= 1 << (encode(k, xs) * cols + encode(k, ys))
        return FinRelation(k, n, m, bits)

    @staticmethod
    def empty(k, n, m):
        return FinRelation(k, n, m, 0)

    @staticmethod
    def full(k, n, m):
        return FinRelation(k, n, m, (1 << space_bits(k, n, m)) - 1)


def _check_same_space(a, b):
    if (a.carrier, a.dom_arity, a.cod_arity) != (b.carrier, b.dom_arity, b.cod_arity):
        raise DiagrelError("relations live in different spaces")


def complement(a):
    size = a.rows * a.cols
    return FinRelation(a.carrier, a.dom_arity, a.cod_arity, ~a.bits & ((1 << size) - 1))


def converse(a):
    rows = _row_masks(a)
    out = []
    for c in range(a.cols):
        col = 0
        for r in range(a.rows):
            col |= (rows[r] >> c & 1) << r
        out.append(col)
    return FinRelation(a.carrier, a.cod_arity, a.dom_arity, _join_rows(out, a.rows))


def union(a, b):
    _check_same_space(a, b)
    return FinRelation(a.carrier, a.dom_arity, a.cod_arity, a.bits | b.bits)


def intersection(a, b):
    _check_same_space(a, b)
    return FinRelation(a.carrier, a.dom_arity, a.cod_arity, a.bits & b.bits)


def included(a, b):
    _check_same_space(a, b)
    return a.bits | b.bits == b.bits


def equal(a, b):
    _check_same_space(a, b)
    return a.bits == b.bits


def inclusion_witness(a, b):
    """A pair of tuples in a but not b, or None if a is included in b."""
    _check_same_space(a, b)
    extra = a.bits & ~b.bits
    if not extra:
        return None
    idx = (extra & -extra).bit_length() - 1
    r, c = divmod(idx, a.cols)
    k = a.carrier
    return (decode(k, a.dom_arity, r), decode(k, a.cod_arity, c))


def _row_masks(a):
    """Split the bitmask into per-row masks by halving, so the cost stays
    near-linear in the total bit count even for thousands of rows."""
    cols = a.cols

    def split(bits, nrows):
        if nrows <= 1:
            return [bits] if nrows else []
        half = nrows // 2
        cut = half * cols
        return split(bits & ((1 << cut) - 1), half) + split(bits >> cut, nrows - half)

    return split(a.bits, a.rows)


def _join_rows(rows, cols):
    """Inverse of _row_masks, also by halving."""
    if not rows:
        return 0
    width = cols
    while len(rows) > 1:
        joined = [rows[i] | (rows[i + 1] << width) for i in range(0, len(rows) - 1, 2)]
        if len(rows) % 2:
            joined.append(rows[-1])
        rows = joined
        width *= 2
    return rows[0]


def compose_white(a, b):
    """{(x,z) | exists y. a(x,y) and b(y,z)}."""
    if a.carrier != b.carrier or a.cod_arity != b.dom_arity:
        raise DiagrelError("composition type mismatch")
    space_bits(a.carrier, a.dom_arity, b.cod_arity)
    b_rows = _row_masks(b)
    out_rows = []
    for row in _row_masks(a):
        out = 0
        y = row
        while y:
            low = y & -y
            out |= b_rows[low.bit_length() - 1]
            y ^= low
        out_rows.append(out)
    return FinRelation(a.carrier, a.dom_arity, b.cod_arity,
                       _join_rows(out_rows, b.cols))


def compose_black(a, b):
    """{(x,z) | forall y. a(x,y) or b(y,z)}: the De Morgan dual of the
    white composition."""
    return complement(compose_white(complement(a), complement(b)))


def tensor_white(a, b):
    """Conjunctive tensor, by bitmask arithmetic: restride b's rows to the
    result's column width, then for each row of a multiply by the spread of
    its column mask (shifted copies land in disjoint blocks, so no carries)."""
    if a.carrier != b.carrier:
        raise DiagrelError("tensor carrier mismatch")
    k = a.carrier
    n, m = a.dom_arity + b.dom_arity, a.cod_arity + b.cod_arity
    space_bits(k, n, m)
    acols, bcols = a.cols, b.cols
    brows = b.rows
    tot = acols * bcols
    restrided = _join_rows(_row_masks(b), tot)
    out_blocks = []
    for row in _row_masks(a):
        spread = 0
        while row:
            low = row & -row
            spread |= 1 << ((low.bit_length() - 1) * bcols)
            row ^= low
        out_blocks.append(spread * restrided if spread else 0)
    return FinRelation(k, n, m, _join_rows(out_blocks, brows * tot))


def tensor_black(a, b):
    """Disjunctive tensor: the De Morgan dual of the conjunctive one."""
    return complement(tensor_white(complement(a), complement(b)))


# ---------------------------------------------------------------------------
# constants


@functools.lru_cache(maxsize=None)
def identity_white(k, n=1):
    return FinRelation.from_pairs(
        k, n, n, ((t, t) for t in itertools.product(range(k), repeat=n)))


@functools.lru_cache(maxsize=None)
def symmetry_white(k, m=1, n=1):
    def gen():
        for x in itertools.product(range(k), repeat=m):
            for y in itertools.product(range(k), repeat=n):
                yield (x + y, y + x)
    return FinRelation.from_pairs(k, m + n, n + m, gen())


@functools.lru_cache(maxsize=None)
def copy_white(k, n=1):
    return FinRelation.from_pairs(
        k, n, 2 * n, ((t, t + t) for t in itertools.product(range(k), repeat=n)))


@functools.lru_cache(maxsize=None)
def cocopy_white(k, n=1):
    return converse(copy_white(k, n))


@functools.lru_cache(maxsize=None)
def discard_white(k, n=1):
    return FinRelation.from_pairs(
        k, n, 0, ((t, ()) for t in itertools.product(range(k), repeat=n)))


@functools.lru_cache(maxsize=None)
def codiscard_white(k, n=1):
    return converse(discard_white(k, n))


def _black(white):
    """The black constant mirroring `white`: its complement, cached."""
    @functools.lru_cache(maxsize=None)
    def black(k, *arities):
        return complement(white(k, *arities))
    return black


identity_black = _black(identity_white)
symmetry_black = _black(symmetry_white)
copy_black = _black(copy_white)
cocopy_black = _black(cocopy_white)
discard_black = _black(discard_white)
codiscard_black = _black(codiscard_white)


_CONSTANTS = {
    "copyw": copy_white,
    "cocw": cocopy_white,
    "dscw": discard_white,
    "codw": codiscard_white,
    "copyb": copy_black,
    "cocb": cocopy_black,
    "dscb": discard_black,
    "codb": codiscard_black,
}


def constant_rel(kind, k):
    """The unary relation-model constant named `kind` over carrier size k."""
    try:
        return _CONSTANTS[kind](k)
    except KeyError:
        raise DiagrelError(f"unknown constant {kind!r}") from None


def linear_adjoint(a):
    """Converse of the complement; both linear adjoints of a in relations."""
    return converse(complement(a))


def is_map(a):
    """True iff a is total and single-valued (a function)."""
    k = a.carrier
    lax_copy = included(
        compose_white(a, copy_white(k, a.cod_arity)),
        compose_white(copy_white(k, a.dom_arity), tensor_white(a, a)),
    )
    lax_discard = included(
        compose_white(a, discard_white(k, a.cod_arity)),
        discard_white(k, a.dom_arity),
    )
    colax_copy = included(
        compose_white(copy_white(k, a.dom_arity), tensor_white(a, a)),
        compose_white(a, copy_white(k, a.cod_arity)),
    )
    colax_discard = included(
        discard_white(k, a.dom_arity),
        compose_white(a, discard_white(k, a.cod_arity)),
    )
    return lax_copy and lax_discard and colax_copy and colax_discard


# ---------------------------------------------------------------------------
# interpretations and evaluation


@dataclass(frozen=True)
class Interpretation:
    signature: Signature
    carrier: int
    assignment: dict

    def __post_init__(self):
        if self.carrier < 0:
            raise DiagrelError("carrier size must be non-negative")
        for name, (n, m) in self.signature.generators.items():
            rel = self.assignment.get(name)
            if rel is None:
                raise DiagrelError(f"no relation assigned to generator {name!r}")
            if (rel.carrier, rel.dom_arity, rel.cod_arity) != (self.carrier, n, m):
                raise DiagrelError(f"relation for {name!r} has wrong shape")


def evaluate(t, interp, _cache=None):
    """Evaluate a term in the relation model given by `interp`.  The derived
    constructors are evaluated directly, as the Boolean operations and the
    converse they denote in relations."""
    typecheck(t, interp.signature)
    return _eval(t, interp, {} if _cache is None else _cache)


def _eval(t, interp, cache):
    # keyed by the term itself (terms are frozen dataclasses): structurally
    # equal subterms evaluate once per cache, also across the sides of an axiom
    got = cache.get(t)
    if got is None:
        got = cache[t] = _eval_raw(t, interp, cache)
    return got


def _eval_raw(t, interp, cache):
    # kernels are called by their module-level names, which perfbench wraps
    k = interp.carrier
    cls = type(t)
    if cls is Gen:
        return interp.assignment[t.name]
    if cls is SeqW:
        return compose_white(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is SeqB:
        return compose_black(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is TensW:
        return tensor_white(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is TensB:
        return tensor_black(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is Meet:
        return intersection(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is Join:
        return union(_eval(t.t, interp, cache), _eval(t.u, interp, cache))
    if cls is Dag:
        return converse(_eval(t.t, interp, cache))
    if cls is Neg:
        return complement(_eval(t.t, interp, cache))
    if cls is Const:
        return constant_rel(t.kind, k)
    if cls is IdW:
        return identity_white(k, t.n)
    if cls is IdB:
        return identity_black(k, t.n)
    if cls is SymW:
        return symmetry_white(k, t.m, t.n)
    if cls is SymB:
        return symmetry_black(k, t.m, t.n)
    if cls is GenOp:
        return linear_adjoint(interp.assignment[t.name])
    if cls is Top:
        return FinRelation.full(k, t.n, t.m)
    if cls is Bot:
        return FinRelation.empty(k, t.n, t.m)
    raise DiagrelError(f"cannot evaluate {t!r}")


# ---------------------------------------------------------------------------
# interpretation files


def parse_interpretation(text, sig):
    """Parse an interpretation file:

        carrier K
        rel NAME N M { (t1 .. tN ; u1 .. uM) ... }
    """
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
            raise ParseError(f"unexpected end of interpretation file"
                             + (f", expected {expect!r}" if expect else ""))
        tok, line = toks[pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", line, 1)
        pos += 1
        return tok, line

    def nat(what):
        tok, line = take()
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", line, 1) from None
        if v < 0:
            raise ParseError(f"{what} must be non-negative", line, 1)
        return v

    take("carrier")
    k = nat("carrier size")
    assignment = {}
    while peek() is not None:
        take("rel")
        name, line = take()
        if name not in sig.generators:
            raise ParseError(f"unknown generator {name!r}", line, 1)
        if name in assignment:
            raise ParseError(f"duplicate relation for {name!r}", line, 1)
        n = nat("arity")
        m = nat("coarity")
        if (n, m) != sig.generators[name]:
            raise ParseError(
                f"relation {name} declared {n}->{m}, signature says "
                f"{sig.generators[name][0]}->{sig.generators[name][1]}", line, 1)
        take("{")
        pairs = []
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
                raise ParseError(f"tuple arity mismatch in relation {name}", line, 1)
            pairs.append((tuple(xs), tuple(ys)))
        take("}")
        assignment[name] = FinRelation.from_pairs(k, n, m, pairs)
    return Interpretation(sig, k, assignment)


def print_interpretation(interp):
    out = [f"carrier {interp.carrier}"]
    for name in sorted(interp.assignment):
        rel = interp.assignment[name]
        out.append(f"rel {name} {rel.dom_arity} {rel.cod_arity} {{")
        for xs, ys in rel.pairs():
            left = " ".join(str(x) for x in xs)
            right = " ".join(str(y) for y in ys)
            out.append(f"  ({left} ; {right})")
        out.append("}")
    return "\n".join(out) + "\n"
