"""Finite relations over a carrier {0..k-1} and evaluation of terms.

A relation X^n -> X^m is stored as an integer bitmask over the k^n * k^m
pairs of tuples.  Tuples are encoded base-k with the *first* coordinate most
significant, and the pair (row, col) indexes bit row * k^m + col.

Only the white (cartesian) half has kernels of its own: composition is the
usual relational composition and the tensor is conjunctive.  The black half
is computed as their De Morgan dual: R ;b S = ~(~R ; ~S) (a universally
quantified disjunction), the black tensor likewise (disjunctive), and each
black constant is the complement of its white mirror, in the one builder of
the constants, `constant`.  A black kernel XORs
the raw bitmasks with their spaces' full masks around the white loop, so it
builds one relation, not four.  `evaluate` typechecks a term, then evaluates
it through `evaluate_typed`, the entry for callers that already hold terms
typechecked under a signature that types each generator as its relation.
Evaluation is compositional and keeps no state: `evaluate_typed` applies each
node's kernel to its children's values, one call per node, and hashes no
term.  Only the constants, graphs of index maps, are cached per head, carrier
and arity, in the one cache of `constant`, which `size_guard` empties when it
changes MAX_BITS.
"""

from __future__ import annotations

import contextlib
import functools

from .terms import (
    MAX_ARITY, Bot, Const, Dag, DiagrelError, Gen, GenOp, IdB, IdW, Join, Meet, Neg,
    ParseError, Record, SeqB, SeqW, SymB, SymW, TensB, TensW, Top, mirror_head,
    read_lines, read_nat, slot_setters, typecheck,
)

MAX_BITS = 2 ** 30


class SizeLimit(DiagrelError):
    pass


def space_bits(k, n, m):
    """The bit count k^n * k^m of a relation X^n -> X^m, or SizeLimit above
    MAX_BITS; for k >= 2 the exponent decides first, so no huge power is built.
    The total arity n + m is bounded by MAX_ARITY too: at carriers 0 and 1 the
    bit count is at most 1 at any arity."""
    if k < 0:
        raise DiagrelError("carrier size must be non-negative")
    if k > 1 and (n + m) * (k.bit_length() - 1) > MAX_BITS.bit_length() \
            or (size := (k ** n) * (k ** m)) > MAX_BITS:
        raise SizeLimit(f"relation space {k}^{n + m} exceeds {MAX_BITS} bits")
    if n + m > MAX_ARITY:
        raise SizeLimit(f"relation arity {n + m} exceeds {MAX_ARITY}")
    return size


@contextlib.contextmanager
def size_guard(bits):
    """Run a block under the size guard MAX_BITS = `bits` (None keeps it), then
    restore the old guard, also on an exception; each change empties the caches."""
    saved = MAX_BITS
    _set_guard(saved if bits is None else bits)
    try:
        yield
    finally:
        _set_guard(saved)


def _set_guard(bits):
    global MAX_BITS
    if bits != MAX_BITS:
        MAX_BITS = bits
        for value in list(globals().values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


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


class FinRelation(Record):
    __slots__ = ("carrier", "dom_arity", "cod_arity", "bits")

    def __init__(self, carrier, dom_arity, cod_arity, bits):
        size = space_bits(carrier, dom_arity, cod_arity)
        if bits < 0 or bits.bit_length() > size:
            raise DiagrelError("bitmask out of range for relation space")
        _SET_CARRIER(self, carrier)
        _SET_DOM(self, dom_arity)
        _SET_COD(self, cod_arity)
        _SET_BITS(self, bits)

    @property
    def rows(self):
        return self.carrier ** self.dom_arity

    @property
    def cols(self):
        return self.carrier ** self.cod_arity

    @property
    def ones(self):
        return (1 << space_bits(self.carrier, self.dom_arity, self.cod_arity)) - 1

    def has(self, xs, ys):
        k, n, m = self.carrier, self.dom_arity, self.cod_arity
        if len(xs) != n or len(ys) != m:
            raise DiagrelError(f"pair arity mismatch for relation {n}->{m}")
        return bool(self.bits >> (encode(k, xs) * self.cols + encode(k, ys)) & 1)

    @staticmethod
    def from_pairs(k, n, m, pairs):
        space_bits(k, n, m)  # before k ** m is built or a pair is read
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
    # no mask from `ones`: the relation built checks the space, once
    return FinRelation(a.carrier, a.dom_arity, a.cod_arity, a.bits ^ (1 << a.rows * a.cols) - 1)


def converse(a):
    rows = _row_masks(a.bits, a.rows, a.cols)
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


def _row_masks(bits, nrows, cols):
    """Split `bits` into `nrows` row masks of `cols` bits by halving, so the
    cost stays near-linear in the total bit count even for thousands of rows."""
    def split(bits, nrows):
        if nrows <= 1:
            return [bits] if nrows else []
        half = nrows // 2
        cut = half * cols
        return split(bits & ((1 << cut) - 1), half) + split(bits >> cut, nrows - half)

    return split(bits, nrows)


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


def _compose_bits(a, b, black=False):
    """The bits of the relational composition of a and b, or with `black` of
    its De Morgan dual ~(~a ; ~b), on raw bitmasks XORed with full masks."""
    abits, bbits = (a.bits ^ a.ones, b.bits ^ b.ones) if black else (a.bits, b.bits)
    if a.carrier != b.carrier or a.cod_arity != b.dom_arity:
        raise DiagrelError("composition type mismatch")
    size = space_bits(a.carrier, a.dom_arity, b.cod_arity)
    b_rows = _row_masks(bbits, b.rows, b.cols)
    out_rows = []
    for row in _row_masks(abits, a.rows, a.cols):
        out = 0
        while row:
            low = row & -row
            out |= b_rows[low.bit_length() - 1]
            row ^= low
        out_rows.append(out)
    return _join_rows(out_rows, b.cols) ^ ((1 << size) - 1 if black else 0)


def compose_white(a, b):
    """{(x,z) | exists y. a(x,y) and b(y,z)}."""
    return FinRelation(a.carrier, a.dom_arity, b.cod_arity, _compose_bits(a, b))


def compose_black(a, b):
    """{(x,z) | forall y. a(x,y) or b(y,z)}: the De Morgan dual ~(~a ; ~b) of
    the white composition, on complemented raw bitmasks."""
    return FinRelation(a.carrier, a.dom_arity, b.cod_arity, _compose_bits(a, b, True))


def _tensor_bits(a, b, black=False):
    """The bits of the conjunctive tensor of a and b, or with `black` of its
    De Morgan dual ~(~a * ~b), by bitmask arithmetic: restride b's rows to the
    result's column width, then for each row of a multiply by the spread of
    its column mask (shifted copies land in disjoint blocks, so no carries)."""
    abits, bbits = (a.bits ^ a.ones, b.bits ^ b.ones) if black else (a.bits, b.bits)
    if a.carrier != b.carrier:
        raise DiagrelError("tensor carrier mismatch")
    size = space_bits(a.carrier, a.dom_arity + b.dom_arity, a.cod_arity + b.cod_arity)
    bcols, brows = b.cols, b.rows
    tot = a.cols * bcols
    restrided = _join_rows(_row_masks(bbits, brows, bcols), tot)
    out_blocks = []
    for row in _row_masks(abits, a.rows, a.cols):
        spread = 0
        while row:
            low = row & -row
            spread |= 1 << ((low.bit_length() - 1) * bcols)
            row ^= low
        out_blocks.append(spread * restrided if spread else 0)
    return _join_rows(out_blocks, brows * tot) ^ ((1 << size) - 1 if black else 0)


def tensor_white(a, b):
    """Conjunctive tensor."""
    return FinRelation(a.carrier, a.dom_arity + b.dom_arity, a.cod_arity + b.cod_arity,
                       _tensor_bits(a, b))


def tensor_black(a, b):
    """Disjunctive tensor: the De Morgan dual ~(~a * ~b) of the conjunctive
    one, on complemented raw bitmasks."""
    return FinRelation(a.carrier, a.dom_arity + b.dom_arity, a.cod_arity + b.cod_arity,
                       _tensor_bits(a, b, True))


# ---------------------------------------------------------------------------
# constants


def _graph(k, n, m, f):
    """The relation X^n -> X^m relating each row index r to the column index
    f(r), the graph of a map on the base-k encodings of tuples."""
    space_bits(k, n, m)  # before the k^n rows are walked
    return FinRelation(k, n, m, _join_rows([1 << f(r) for r in range(k ** n)], k ** m))


# white head -> its (dom, cod, index map) at carrier k and the given arities;
# each map is called after `_graph`'s size check, so no huge power is built
_GRAPHS = {
    "idw": lambda k, n: (n, n, lambda r: r),
    # row (x, y), with x of m and y of n coordinates, goes to column (y, x)
    "symw": lambda k, m, n: (m + n, n + m, lambda r: r % k ** n * k ** m + r // k ** n),
    "copyw": lambda k, n: (n, 2 * n, lambda r: r * k ** n + r),
    "dscw": lambda k, n: (n, 0, lambda r: 0),
}


@functools.cache
def constant(head, k, *arities):
    """The constant `head` (a form head `idw`, `symw`, their black mirrors, or
    a constant kind) at carrier k and the arities of its term: a white one is
    the graph of its index map, cocopy and codiscard are the converses of copy
    and discard, and a black one is the complement of its white mirror."""
    if head[-1] == "b":
        return complement(constant(mirror_head(head), k, *arities))
    if head in ("cocw", "codw"):
        return converse(constant("copyw" if head == "cocw" else "dscw", k, *arities))
    n, m, f = _GRAPHS[head](k, *arities)
    return _graph(k, n, m, f)


def linear_adjoint(a):
    """Converse of the complement; both linear adjoints of a in relations."""
    return converse(complement(a))


def is_map(a):
    """True iff a is total and single-valued (a function): a ; copy equals
    copy ; (a (x) a) and a ; discard equals discard, each lax law and its colax
    converse decided by one equality."""
    k = a.carrier
    copies = equal(compose_white(a, constant("copyw", k, a.cod_arity)),
                   compose_white(constant("copyw", k, a.dom_arity), tensor_white(a, a)))
    return copies and equal(compose_white(a, constant("dscw", k, a.cod_arity)),
                            constant("dscw", k, a.dom_arity))


# ---------------------------------------------------------------------------
# interpretations and evaluation


class Interpretation(Record):
    __slots__ = ("signature", "carrier", "assignment")

    def __init__(self, signature, carrier, assignment):
        if carrier < 0:
            raise DiagrelError("carrier size must be non-negative")
        for name, (n, m) in signature.generators.items():
            rel = assignment.get(name)
            if rel is None:
                raise DiagrelError(f"no relation assigned to generator {name!r}")
            if (rel.carrier, rel.dom_arity, rel.cod_arity) != (carrier, n, m):
                raise DiagrelError(f"relation for {name!r} has wrong shape")
        _SET_SIGNATURE(self, signature)
        _SET_CARRIER_I(self, carrier)
        _SET_ASSIGNMENT(self, assignment)


(_SET_CARRIER, _SET_DOM, _SET_COD, _SET_BITS), (_SET_SIGNATURE, _SET_CARRIER_I, _SET_ASSIGNMENT) \
    = map(slot_setters, (FinRelation, Interpretation))


def evaluate(t, interp):
    """Typecheck a term under `interp.signature`, then evaluate it in the
    relation model.  The derived constructors are evaluated directly, as the
    Boolean operations and the converse they denote in relations."""
    typecheck(t, interp.signature)
    return evaluate_typed(t, interp)


def evaluate_typed(t, interp):
    """`evaluate` without the typecheck: `t` must typecheck under a signature
    giving each generator the type of its relation in `interp`."""
    # kernels are called by their module-level names, which perfbench wraps
    k = interp.carrier
    ev = evaluate_typed
    cls = type(t)
    if cls is Gen:
        return interp.assignment[t.name]
    if cls is SeqW:
        return compose_white(ev(t.t, interp), ev(t.u, interp))
    if cls is SeqB:
        return compose_black(ev(t.t, interp), ev(t.u, interp))
    if cls is TensW:
        return tensor_white(ev(t.t, interp), ev(t.u, interp))
    if cls is TensB:
        return tensor_black(ev(t.t, interp), ev(t.u, interp))
    if cls is Meet:
        return intersection(ev(t.t, interp), ev(t.u, interp))
    if cls is Join:
        return union(ev(t.t, interp), ev(t.u, interp))
    if cls is Dag:
        return converse(ev(t.t, interp))
    if cls is Neg:
        return complement(ev(t.t, interp))
    if cls is Const:
        return constant(t.kind, k, 1)
    if cls is IdW:
        return constant("idw", k, t.n)
    if cls is IdB:
        return constant("idb", k, t.n)
    if cls is SymW:
        return constant("symw", k, t.m, t.n)
    if cls is SymB:
        return constant("symb", k, t.m, t.n)
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
    """Parse an interpretation file (see `terms` for the format)."""
    text = text.replace("{", " { ").replace("}", " } ").replace("(", " ( ") \
        .replace(")", " ) ").replace(";", " ; ")
    toks, lines = [], []
    for lineno, _, line in read_lines(text):
        toks += (frags := line.split())
        lines += [lineno] * len(frags)
    toks.append("")

    def take(pos, expect=None):
        tok = toks[pos]
        if not tok:
            raise ParseError(f"unexpected end of interpretation file"
                             + (f", expected {expect!r}" if expect else ""))
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", lines[pos], 1)
        return tok

    def nat(pos, what):
        return read_nat(take(pos), what, lines[pos], 1)

    take(0, "carrier")
    k = nat(1, "carrier size")
    assignment = {}
    entry_values = {}  # each distinct tuple entry is read once
    pos = 2
    while toks[pos]:
        take(pos, "rel")
        name, line = take(pos + 1), lines[pos + 1]
        if name not in sig.generators:
            raise ParseError(f"unknown generator {name!r}", line, 1)
        if name in assignment:
            raise ParseError(f"duplicate relation for {name!r}", line, 1)
        n, m = nat(pos + 2, "arity"), nat(pos + 3, "coarity")
        if (n, m) != sig.generators[name]:
            raise ParseError(f"relation {name} declared {n}->{m}, signature says "
                             "{}->{}".format(*sig.generators[name]), line, 1)
        take(pos + 4, "{")
        pos += 5
        pairs = []
        while (tok := toks[pos]) != "}":
            if tok != "(":
                take(pos, "(")
            pair = [[], []]
            for entries, stop in zip(pair, ";)"):
                pos += 1
                while (tok := toks[pos]) != stop:
                    if tok not in entry_values:
                        entry_values[tok] = nat(pos, "tuple entry")
                    entries.append(entry_values[tok])
                    pos += 1
            pos += 1
            if len(pair[0]) != n or len(pair[1]) != m:
                raise ParseError(f"tuple arity mismatch in relation {name}", line, 1)
            pairs.append(pair)
        pos += 1
        assignment[name] = FinRelation.from_pairs(k, n, m, pairs)
    return Interpretation(sig, k, assignment)


def format_relation(name, rel):
    """The `rel NAME N M { ... }` block of a relation: one `(xs ; ys)` line per
    pair in bit order (rows, then columns, ascending), each label built once."""
    rows = [" ".join(map(str, decode(rel.carrier, rel.dom_arity, r))) for r in range(rel.rows)]
    cols = [" ".join(map(str, decode(rel.carrier, rel.cod_arity, c))) for c in range(rel.cols)]
    out = [f"rel {name} {rel.dom_arity} {rel.cod_arity} {{\n"]
    for row, mask in zip(rows, _row_masks(rel.bits, len(rows), len(cols))):
        while mask:
            low = mask & -mask
            out.append(f"  ({row} ; {cols[low.bit_length() - 1]})\n")
            mask ^= low
    return "".join(out) + "}\n"


def print_interpretation(interp):
    return f"carrier {interp.carrier}\n" + "".join(
        format_relation(*item) for item in sorted(interp.assignment.items()))
