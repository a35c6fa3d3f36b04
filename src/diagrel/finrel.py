"""Finite relations over a carrier {0..k-1} and evaluation of terms.

A relation X^n -> X^m is stored as an integer bitmask over the k^n * k^m
pairs of tuples.  Tuples are encoded base-k with the *first* coordinate most
significant, and the pair (row, col) indexes bit row * k^m + col.

Only the white (cartesian) half has kernels of its own: composition is the
usual relational composition and the tensor is conjunctive.  The black half
is computed as their De Morgan dual: R ;b S = ~(~R ; ~S) (a universally
quantified disjunction), the black tensor likewise (disjunctive), and each
black constant is the complement of its white mirror, in the one builder of
the constants, `constant`.  The kernels work on raw bitmasks: `_kernel` types
a node by `terms.node_type`, the rule `typecheck` types by, and fixes its kernel
to the operands' row counts and full masks; a black one XORs with those masks
around the white loop.  They split a bitmask into row masks and join rows back
by direct shifts for a block of up to SHIFT_ROWS rows, and halve a wider one.
`compose_white` and the other relation operations wrap them.  `evaluate`
typechecks a term, which costs one slot read on a term already typed under the
interpretation's signature, then compiles it into a `Program` and runs that
once; the proof spotcheck compiles a term, and axiom verification an instance
straight from its axiom's patterns, once and runs it per interpretation.
Model search compiles its axioms once and runs them bit-sliced (`Lanes`), a
chunk of candidates per run, through lane kernels (`_lane_kernel`) typed as
`_kernel` types.  No program is cached.  Each kernel is cached per class,
carrier and operand arities (`_kernel`, `_lane_kernel`), and each constant per
head, carrier and arities (`constant`); all passed their space check under the
current guard, so `size_guard` empties them when it changes MAX_BITS.
"""

from __future__ import annotations

import contextlib
import functools
from operator import and_, invert, or_

from .terms import (
    BINARY, FORMS, MAX_ARITY, UNARY, Const, Dag, DiagrelError, Gen, GenOp, Join, Meet, Neg,
    ParseError, Record, SeqB, SeqW, TensB, TensW, mirror_head, natural, node_type, read_lines,
    read_nat, slot_setters, typecheck,
)

MAX_BITS = 2 ** 30
# the widest block of rows that _row_masks and _join_rows split and join by direct
# shifts: the narrowest that times as 32 or 64 on the 81-row tensors of perfbench's
# kernel grid and in verify-axioms at k = 2 (4 is slower on both)
SHIFT_ROWS = 16
# the most bytes one register of a `Lanes` run may take, about 8 + lanes / 8 per pair
LANE_BYTES = 2 ** 22


class SizeLimit(DiagrelError):
    pass


def space_bits(k, n, m):
    """The bit count k^n * k^m of a relation X^n -> X^m, or SizeLimit above
    MAX_BITS; for k >= 2 the exponent decides first, so no huge power is built.
    The total arity n + m is bounded by MAX_ARITY too: at carriers 0 and 1 the
    bit count is at most 1 at any arity."""
    if k < 0:
        raise DiagrelError("carrier size must be non-negative")
    if n < 0 or m < 0:
        raise DiagrelError(f"negative arity {min(n, m)}")
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

    def has(self, xs, ys):
        k, n, m = self.carrier, self.dom_arity, self.cod_arity
        if len(xs) != n or len(ys) != m:
            raise DiagrelError(f"pair arity mismatch for relation {n}->{m}")
        return bool(self.bits >> (encode(k, xs) * self.cols + encode(k, ys)) & 1)

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
    return _apply(Dag, a, a)


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
    """Split `bits` into `nrows` row masks of `cols` bits: a block of up to
    SHIFT_ROWS rows by one shift per row, a wider one by halving, so the cost
    stays near-linear in the total bit count even for thousands of rows."""
    if nrows <= SHIFT_ROWS:
        mask = (1 << cols) - 1
        return [bits >> r * cols & mask for r in range(nrows)]
    half = nrows // 2
    low, high = bits & ((1 << half * cols) - 1), bits >> half * cols
    return _row_masks(low, half, cols) + _row_masks(high, nrows - half, cols)


def _join_rows(rows, cols):
    """Inverse of _row_masks, with the same blocks: shift-or, or halving."""
    if len(rows) <= SHIFT_ROWS:
        bits = 0
        for row in reversed(rows):
            bits = bits << cols | row
        return bits
    half = len(rows) // 2
    return _join_rows(rows[:half], cols) | _join_rows(rows[half:], cols) << half * cols


def _compose_bits(x, y, rows, mid, cols):
    """The relational composition of the bitmasks x (rows by mid) and y (mid
    by cols): each row of x ORs together the rows of y its bits select."""
    y_rows = _row_masks(y, mid, cols)
    out_rows = []
    for row in _row_masks(x, rows, mid):
        out = 0
        while row:
            low = row & -row
            out |= y_rows[low.bit_length() - 1]
            row ^= low
        out_rows.append(out)
    return _join_rows(out_rows, cols)


def _tensor_bits(x, y, arows, acols, brows, bcols):
    """The conjunctive tensor of the bitmasks x (arows by acols) and y (brows
    by bcols): restride y's rows to the result's column width, then for each
    row of x multiply by the spread of its column mask (shifted copies land in
    disjoint blocks, so no carries)."""
    tot = acols * bcols
    restrided = _join_rows(_row_masks(y, brows, bcols), tot)
    out_blocks = []
    for row in _row_masks(x, arows, acols):
        spread = 0
        while row:
            low = row & -row
            spread |= 1 << ((low.bit_length() - 1) * bcols)
            row ^= low
        out_blocks.append(spread * restrided if spread else 0)
    return _join_rows(out_blocks, brows * tot)


def _converse_bits(x, rows, cols):
    """The transpose of the bitmask x, `rows` rows of `cols` bits."""
    masks = _row_masks(x, rows, cols)
    out = []
    for c in range(cols):
        col = 0
        for r in range(rows):
            col |= (masks[r] >> c & 1) << r
        out.append(col)
    return _join_rows(out, rows)


@functools.cache
def _kernel(cls, k, s, t):
    """The type `terms.node_type` gives a node of class `cls` over operands
    typed s and t (t is s for a unary node), its space checked at carrier k,
    and its kernel on raw bitmasks, fixed to the operands' row counts and full masks:
    a black node is the De Morgan dual ~(~x op ~y) of its white mirror, and
    `GenOp` the converse of the complement of its generator, its linear adjoint."""
    out = node_type(cls, s, t)
    size = space_bits(k, *out)
    if cls is Meet or cls is Join:
        return out, int.__and__ if cls is Meet else int.__or__
    rows, mid, brows, cols = (k ** arity for arity in (*s, *t))
    black = cls is SeqB or cls is TensB
    full = (1 << size) - 1 if black or cls is Neg or cls is GenOp else 0
    fa, fb = ((1 << rows * mid) - 1, (1 << brows * cols) - 1) if black else (0, 0)
    if cls is Neg:
        return out, lambda x, _: x ^ full
    if cls is Dag or cls is GenOp:
        return out, lambda x, _: _converse_bits(x ^ full, rows, mid)
    if cls is SeqW or cls is SeqB:
        return out, lambda x, y: _compose_bits(x ^ fa, y ^ fb, rows, mid, cols) ^ full
    return out, lambda x, y: _tensor_bits(x ^ fa, y ^ fb, rows, mid, brows, cols) ^ full


@functools.cache
def _lane_kernel(cls, k, s, t):
    """The type `_kernel` gives a node of class `cls` over operands typed s and
    t, and its kernel on lane registers, each a list of one integer per pair
    with one bit per candidate, and the all-lanes mask: white composition ORs
    over the middle index the ANDs of its operands' pairs, the white tensor ANDs
    one pair of each operand, converse permutes the pairs, `neg` XORs with the
    all-lanes mask, `GenOp` is the converse of the complement, and a black node
    the De Morgan dual ~(~x op ~y) of its white mirror."""
    out = _kernel(cls, k, s, t)[0]
    if cls is Meet or cls is Join:
        return out, lambda xs, ys, _: list(map(and_ if cls is Meet else or_, xs, ys))
    rows, mid, brows, cols = (k ** arity for arity in (*s, *t))
    if cls is Neg:
        return out, lambda xs, _, full: [x ^ full for x in xs]
    if cls is Dag or cls is GenOp:
        perm = [r * mid + c for c in range(mid) for r in range(rows)]
        if cls is Dag:
            return out, lambda xs, _, full: [xs[i] for i in perm]
        return out, lambda xs, _, full: [xs[i] ^ full for i in perm]
    if cls is SeqW or cls is SeqB:
        def white(xs, ys):
            ycols = [ys[c::cols] for c in range(cols)]
            return [functools.reduce(or_, map(and_, xrow, ycol), 0)
                    for xrow in [xs[r * mid:r * mid + mid] for r in range(rows)]
                    for ycol in ycols]
    else:
        pairs = [(r * mid + c, q * cols + d) for r in range(rows) for q in range(brows)
                 for c in range(mid) for d in range(cols)]

        def white(xs, ys):
            return [xs[i] & ys[j] for i, j in pairs]
    if cls is SeqW or cls is TensW:
        return out, lambda xs, ys, _: white(xs, ys)
    return out, lambda xs, ys, full: [
        z ^ full for z in white([x ^ full for x in xs], [y ^ full for y in ys])]


def _apply(cls, a, b):
    """A node of class `cls` over the relations a and b (b is a for a unary
    node), by the kernel a program runs; a black one checks the spaces of its
    operands first, as ~(~a op ~b) builds them."""
    k, s, t = a.carrier, (a.dom_arity, a.cod_arity), (b.dom_arity, b.cod_arity)
    if cls is SeqB or cls is TensB:
        space_bits(k, *s), space_bits(k, *t)
    if k != b.carrier:
        raise DiagrelError("relations on different carriers")
    (n, m), op = _kernel(cls, k, s, t)
    return FinRelation(k, n, m, op(a.bits, b.bits))


def compose_white(a, b):
    """{(x,z) | exists y. a(x,y) and b(y,z)}."""
    return _apply(SeqW, a, b)


def compose_black(a, b):
    """{(x,z) | forall y. a(x,y) or b(y,z)}: the De Morgan dual ~(~a ; ~b) of
    the white composition, on complemented raw bitmasks."""
    return _apply(SeqB, a, b)


def tensor_white(a, b):
    """Conjunctive tensor."""
    return _apply(TensW, a, b)


def tensor_black(a, b):
    """Disjunctive tensor: the De Morgan dual ~(~a * ~b) of the conjunctive
    one, on complemented raw bitmasks."""
    return _apply(TensB, a, b)


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
    """The constant `head` (a form head `idw`, `symw`, their black mirrors, `top`,
    `bot`, or a constant kind at n for its n-ary `terms.macro`) at carrier k and
    its arities: a white one is the graph of its index map, cocopy and codiscard
    are the converses of copy and discard, a black one the complement of its mirror."""
    if min(arities) < 0:  # the two arities of a symmetry sum to its dom and cod
        raise DiagrelError(f"negative arity {min(arities)}")
    if head == "top" or head == "bot":
        return FinRelation(k, *arities, (1 << space_bits(k, *arities)) - 1 if head == "top" else 0)
    if head[-1] == "b":
        return complement(constant(mirror_head(head), k, *arities))
    if head in ("cocw", "codw"):
        return converse(constant("copyw" if head == "cocw" else "dscw", k, *arities))
    n, m, f = _GRAPHS[head](k, *arities)
    return _graph(k, n, m, f)


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
    prog = Program(interp.carrier, interp.signature.generators)
    reg = prog.add(t)
    prog.run([interp.assignment[name].bits for name in prog.names])
    return prog.relation(reg)


# a leaf class with natural-number fields -> the head of the constant it denotes
_HEADS = {cls: head for head, (cls, kinds) in FORMS.items() if kinds[0] == "nat"}
_AFTER = object()  # `Program.add`'s stack marker: the node below it is compiled next


class Program:
    """Terms compiled at carrier k into one post-order list of instructions
    over raw bitmask registers, first the generators' (`generators` maps each
    name to its arities) in name order, in which the program draws, loads and
    reads them back.  `add` compiles a term by `node` and `constant`, which also
    compile one that is never built, from patterns.  A node of the same class over
    the same registers, or a constant of the same head and arities, reuses a register;
    a node with no generator below it is computed as it is compiled, so only nodes
    that read a generator become instructions.  A program lives for one call."""

    def __init__(self, k, generators):
        self.k, self.names, self.code, self.checks = k, sorted(generators), [], []
        self.shapes = [generators[name] for name in self.names]
        self.sizes = [space_bits(k, n, m) for n, m in self.shapes]
        self.regs, self.live = [0] * len(self.shapes), set(range(len(self.shapes)))
        # a register by class and operand registers, by generator, or by head and arities
        self.numbers = {(Gen, name): reg for reg, name in enumerate(self.names)}

    def add(self, t):
        """Compile t from an explicit stack, each node after its operands; its register."""
        out, todo = [], [t]
        while todo:
            t = todo.pop()
            cls = type(t)
            if cls in BINARY or cls in UNARY:
                todo += (t, _AFTER, t.u, t.t) if cls in BINARY else (t, _AFTER, t.t)
            elif t is _AFTER:  # the node below it, after its operands, whose registers end `out`
                cls, b = type(todo.pop()), out.pop()
                out.append(self.node(cls, out.pop() if cls in BINARY else b, b))
            elif cls is Gen or cls is GenOp:  # an opposed box is a node over its generator
                if (reg := self.numbers.get((Gen, t.name))) is None:
                    raise DiagrelError(f"unknown generator {t.name!r}")
                out.append(reg if cls is Gen else self.node(GenOp, reg, reg))
            elif cls is Const:
                out.append(self.constant(t.kind, 1))
            elif cls in _HEADS:  # a leaf whose fields are the arities of the constant it denotes
                out.append(self.constant(_HEADS[cls], *(getattr(t, f) for f in t._fields)))
            else:
                raise DiagrelError(f"not a term: {t!r}")
        return out[0]

    def node(self, cls, a, b):
        """The register of a node of class `cls` over the registers a and b (b is a
        for a unary node), typed and its space checked by `_kernel`."""
        reg = self.numbers.get(key := (cls, a, b))
        if reg is None:
            shape, op = _kernel(cls, self.k, self.shapes[a], self.shapes[b])
            reg = self.numbers[key] = len(self.regs)
            if a in self.live or b in self.live:
                self.live.add(reg)
                self.code.append((op, reg, a, b))
            self.regs.append(0 if reg in self.live else op(self.regs[a], self.regs[b]))
            self.shapes.append(shape)
        return reg

    def constant(self, head, *arities):
        """The register of `constant(head, k, *arities)`, one lookup of its cache."""
        reg = self.numbers.get(key := (head, arities))
        if reg is None:
            rel = constant(head, self.k, *arities)
            reg = self.numbers[key] = len(self.regs)
            self.regs.append(rel.bits)
            self.shapes.append((rel.dom_arity, rel.cod_arity))
        return reg

    def check(self, lhs, rhs):
        """Append the check that register lhs, of rhs's type, is included in rhs."""
        if self.shapes[lhs] != self.shapes[rhs]:
            raise DiagrelError(f"sides typed {self.shapes[lhs]} vs {self.shapes[rhs]}")
        self.code.append((None, len(self.checks), lhs, rhs))
        self.checks.append((lhs, rhs))

    def draw(self, rng):
        """Random bitmasks for the generators: one `rng.getrandbits` call each."""
        return [rng.getrandbits(size) for size in self.sizes]

    def run(self, values):
        """Load the generators' bitmasks `values`, in register order, and run:
        the index of the first check that fails, or None."""
        regs = self.regs
        regs[:len(values)] = values
        for op, dst, a, b in self.code:
            if op is not None:
                regs[dst] = op(regs[a], regs[b])
            elif regs[a] & ~regs[b]:
                return dst
        return None

    def relation(self, reg):
        return FinRelation(self.k, *self.shapes[reg], self.regs[reg])

    def interpretation(self, sig):
        """The generators' bitmasks of the last run as an interpretation of sig."""
        return Interpretation(sig, self.k, {
            name: self.relation(reg) for reg, name in enumerate(self.names)})

    def witness(self, i):
        """The counterexample pair of check i, which failed in the last run."""
        return inclusion_witness(*map(self.relation, self.checks[i]))


class Lanes:
    """A `Program` run bit-sliced over a chunk of 2^width candidates.  A lane
    register holds one integer per pair of its relation, whose bit c is that
    pair in candidate c of the chunk.  Candidate c of chunk h is numbered
    h * 2^width + c, which reads, most significant first, the generators' masks
    in register order; its bit i < width is the truth table `tables[i]`, and a
    bit i >= width is all-zeros or all-ones within the chunk.  A lane register
    of P pairs takes about P * (8 + 2^width / 8) bytes.  `compile` translates
    the program's instructions from a given one on, and `run` runs a
    translation over the lanes still alive."""

    def __init__(self, prog, width):
        self.prog, self.width, self.full = prog, width, (1 << (1 << width)) - 1
        self.regs = dict.fromkeys(range(len(prog.sizes)))  # by register number
        self.tables, self.fields = [0] * width, []
        shift = sum(prog.sizes)
        for size in prog.sizes:  # each generator's candidate bits: its shift and mask
            shift -= size
            self.fields.append((shift, (1 << size) - 1))
        table = self.full  # table i + 1 XOR itself shifted down by 2^i is table i:
        for i in reversed(range(width)):  # lanes c and c + 2^i differ in bit i + 1 iff c has bit i
            table ^= table >> (1 << i)
            self.tables[i] = table

    def load(self, chunk):
        """Load the generators' lanes of the given chunk; its all-lanes mask."""
        tables, width, full = self.tables, self.width, self.full
        for reg, (shift, mask) in enumerate(self.fields):
            self.regs[reg] = [tables[i] if i < width else full if chunk >> i - width & 1 else 0
                              for i in range(shift, shift + mask.bit_length())]
        return full

    def compile(self, start):
        """The lane code of the program's instructions from `start` on: a node by
        its `_lane_kernel` and a check as it is.  Each register folded without
        generators that it reads is broadcast once, every pair all-zeros or
        all-ones.  None if a register it adds would take more than LANE_BYTES, or
        if it reads one that only scalar code computes."""
        prog, regs, new = self.prog, self.regs, {}  # an added register -> its folded bits, or None
        classes = {reg: key[0] for key, reg in prog.numbers.items()}
        code = []
        for op, dst, a, b in prog.code[start:]:
            for reg in (a, b):
                if reg not in regs and reg not in new:
                    if reg in prog.live:
                        return None
                    new[reg] = prog.regs[reg]
            if op is not None:
                new[dst] = None
                op = _lane_kernel(classes[dst], prog.k, prog.shapes[a], prog.shapes[b])[1]
            code.append((op, dst, a, b))
        most = LANE_BYTES // (8 + (1 << self.width) // 8)  # the pairs of one register
        if any(prog.k ** sum(prog.shapes[reg]) > most for reg in new):
            return None
        for reg, bits in new.items():
            regs[reg] = bits if bits is None else [
                self.full if c == "1" else 0
                for c in bin(bits | 1 << prog.k ** sum(prog.shapes[reg]))[:2:-1]]
        return code

    def run(self, code, alive):
        """Run lane code over the lanes set in `alive`: those whose checks all hold."""
        regs, full = self.regs, self.full
        for op, dst, a, b in code:
            if op is not None:
                regs[dst] = op(regs[a], regs[b], full)
            else:  # the lanes where some pair is in lhs but not in rhs fail
                alive &= ~functools.reduce(or_, map(and_, regs[a], map(invert, regs[b])), 0)
        return alive

    def candidates(self, chunk, alive):
        """Each lane set in alive, in ascending order, with the generators'
        bitmasks of its candidate, in register order."""
        base, fields = chunk << self.width, self.fields
        while alive:
            low = alive & -alive
            alive ^= low
            lane = low.bit_length() - 1
            yield lane, [(base | lane) >> shift & mask for shift, mask in fields]

    def interpretation(self, sig, masks):
        """A candidate's bitmasks, loaded into the program's generator registers,
        as an interpretation of sig."""
        self.prog.regs[:len(masks)] = masks
        return self.prog.interpretation(sig)


# ---------------------------------------------------------------------------
# interpretation files


def parse_interpretation(text, sig):
    """Parse an interpretation file (see `terms` for the format): its tokens by
    one `split`, then each block by strided slices.  A block's pairs, of
    w = n + m + 3 tokens each, must hold `(`, `;` and `)` at fixed offsets and
    natural numbers inside the carrier between them; each distinct row and
    column label is then encoded once.  Any other block is read again token by
    token, in file order, only to raise the error of a token reader."""
    if "#" in text:  # cut each line at its comment, at every boundary `read_lines` knows
        text = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    text = text.replace("{", " { ").replace("}", " } ").replace("(", " ( ") \
        .replace(")", " ) ").replace(";", " ; ")
    toks = text.split() + ["", "}"]  # "" ends the file; the "}" after it ends a block search

    def line(pos):  # the line of toks[pos], found only for an error
        return [lineno for lineno, _, code in read_lines(text) for _ in code.split()][pos]

    def take(pos, expect=None):
        tok = toks[pos]
        if not tok:
            raise ParseError(f"unexpected end of interpretation file"
                             + (f", expected {expect!r}" if expect else ""))
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, got {tok!r}", line(pos), 1)
        return tok

    def nat(pos, what):
        v = natural(take(pos))
        return v if v is not None and v >= 0 else read_nat(toks[pos], what, line(pos), 1)

    take(0, "carrier")
    k = nat(1, "carrier size")
    assignment = {}
    pos = 2
    while toks[pos]:
        take(pos, "rel")
        name, pos = take(pos + 1), pos + 1  # errors on the block are reported at its name
        if name not in sig.generators:
            raise ParseError(f"unknown generator {name!r}", line(pos), 1)
        if name in assignment:
            raise ParseError(f"duplicate relation for {name!r}", line(pos), 1)
        n, m = nat(pos + 1, "arity"), nat(pos + 2, "coarity")
        if (n, m) != sig.generators[name]:
            raise ParseError(f"relation {name} declared {n}->{m}, signature says "
                             "{}->{}".format(*sig.generators[name]), line(pos), 1)
        take(pos + 3, "{")
        start, end, w = pos + 4, toks.index("}", pos + 4), n + m + 3
        count, rest = divmod(end - start, w)
        rows = list(zip(*(toks[start + 1 + i:end:w] for i in range(n)))) or [()] * count
        cols = list(zip(*(toks[start + n + 2 + j:end:w] for j in range(m)))) or [()] * count
        labels = {*rows, *cols}
        value = {tok: natural(tok) for label in labels for tok in label}
        if rest or [toks[i:end:w] for i in (start, start + n + 1, start + w - 1)] \
                != [[c] * count for c in "(;)"] \
                or not all(v is not None and 0 <= v < k for v in value.values()):
            i, values = start, []  # read the pairs in file order, then their values: it raises
            while toks[i] != "}":
                take(i, "(")
                pair = [[], []]
                for entries, stop in zip(pair, ";)"):
                    i += 1
                    while toks[i] != stop:
                        entries.append(nat(i, "tuple entry"))
                        i += 1
                i += 1
                if len(pair[0]) != n or len(pair[1]) != m:
                    raise ParseError(f"tuple arity mismatch in relation {name}", line(pos), 1)
                values += pair[0] + pair[1]
            space_bits(k, n, m)
            encode(k, values)  # at the first value outside the carrier
        space_bits(k, n, m)  # before k ** m is built
        width, bits = k ** m, 0
        at = {label: encode(k, map(value.get, label)) for label in labels}
        for row, col in zip(rows, cols):
            bits |= 1 << at[row] * width + at[col]
        assignment[name] = FinRelation(k, n, m, bits)
        pos = end + 1
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
