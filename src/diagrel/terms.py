"""Diagram terms over a monoidal signature: AST, parsing, typing, desugaring.

Terms are immutable trees.  The primitive calculus has two colours (white
and black) of identities, symmetries, (co)monoid constants, sequential
composition and tensor, plus generator boxes and their opposed boxes.
Derived constructors (dagger, negation, meet, join, top, bottom) are sugar
nodes.  `finrel.evaluate` evaluates them directly; `desugar` expands them
into the primitive calculus for the proof kernel (`rewrite.check_proof`,
`rewrite.spider_normalize`) and for `diagrel desugar`.

The s-expression syntax is declared once, in `FORMS`: each head with its
node class and argument kinds.  The eight constants are bare atoms.  The
colour switch is declared once, in `MIRROR`; a constant's mirror flips the
last letter of its kind.  The black arity-indexed macros are computed as
the De Morgan dual of the white ones: each is the colour switch
(`_negate_prim`) of its white mirror.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields


class DiagrelError(Exception):
    pass


class ParseError(DiagrelError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{line}:{col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


class TypeMismatch(DiagrelError):
    def __init__(self, msg, position=()):
        super().__init__(f"at {format_position(position)}: {msg}")
        self.position = tuple(position)


class InvalidPosition(DiagrelError):
    pass


def format_position(path):
    return ".".join(str(i) for i in path) if path else "ε"


@dataclass(frozen=True)
class Signature:
    """Map from generator names to (arity, coarity)."""

    generators: dict

    def __post_init__(self):
        for name, (n, m) in self.generators.items():
            if n < 0 or m < 0:
                raise DiagrelError(f"generator {name}: negative arity")

    def type_of(self, name):
        try:
            return self.generators[name]
        except KeyError:
            raise DiagrelError(f"unknown generator {name!r}") from None

    @staticmethod
    def parse(text):
        """Parse `sig NAME : N -> M` lines; blank lines and # comments allowed."""
        gens = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(":", " : ").replace("->", " -> ").split()
            if len(parts) != 6 or parts[0] != "sig" or parts[2] != ":" or parts[4] != "->":
                raise ParseError(f"bad signature line: {raw.strip()!r}", lineno, 1)
            name = parts[1]
            if name in gens:
                raise ParseError(f"duplicate generator {name!r}", lineno, 1)
            try:
                gens[name] = (int(parts[3]), int(parts[5]))
            except ValueError:
                raise ParseError(f"bad arity in: {raw.strip()!r}", lineno, 1) from None
        return Signature(gens)


EMPTY_SIGNATURE = Signature({})


# ---------------------------------------------------------------------------
# AST


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class IdW(Term):
    n: int


@dataclass(frozen=True)
class IdB(Term):
    n: int


@dataclass(frozen=True)
class SymW(Term):
    m: int
    n: int


@dataclass(frozen=True)
class SymB(Term):
    m: int
    n: int


@dataclass(frozen=True)
class Gen(Term):
    name: str


@dataclass(frozen=True)
class GenOp(Term):
    name: str


#: atom name -> (dom, cod) for the eight unary (co)monoid constants; a
#: black constant has the type of its white mirror
CONSTANT_TYPES = {
    "copyw": (1, 2),
    "dscw": (1, 0),
    "cocw": (2, 1),
    "codw": (0, 1),
}
CONSTANT_TYPES.update({kind[:-1] + "b": ty for kind, ty in CONSTANT_TYPES.items()})


@dataclass(frozen=True)
class Const(Term):
    kind: str

    def __post_init__(self):
        if self.kind not in CONSTANT_TYPES:
            raise DiagrelError(f"unknown constant {self.kind!r}")


@dataclass(frozen=True)
class SeqW(Term):
    t: Term
    u: Term


@dataclass(frozen=True)
class SeqB(Term):
    t: Term
    u: Term


@dataclass(frozen=True)
class TensW(Term):
    t: Term
    u: Term


@dataclass(frozen=True)
class TensB(Term):
    t: Term
    u: Term


# sugar nodes


@dataclass(frozen=True)
class Dag(Term):
    t: Term


@dataclass(frozen=True)
class Neg(Term):
    t: Term


@dataclass(frozen=True)
class Meet(Term):
    t: Term
    u: Term


@dataclass(frozen=True)
class Join(Term):
    t: Term
    u: Term


@dataclass(frozen=True)
class Top(Term):
    n: int
    m: int


@dataclass(frozen=True)
class Bot(Term):
    n: int
    m: int


#: head -> (node class, argument kinds), each kind "nat", "name" (of a
#: generator) or "term", one kind for all arguments of a form; the class's
#: fields take the arguments in order, and subterms are in fields t and u
FORMS = {
    "idw": (IdW, ("nat",)),
    "idb": (IdB, ("nat",)),
    "symw": (SymW, ("nat", "nat")),
    "symb": (SymB, ("nat", "nat")),
    "gen": (Gen, ("name",)),
    "genop": (GenOp, ("name",)),
    "seqw": (SeqW, ("term", "term")),
    "seqb": (SeqB, ("term", "term")),
    "tensw": (TensW, ("term", "term")),
    "tensb": (TensB, ("term", "term")),
    "meet": (Meet, ("term", "term")),
    "join": (Join, ("term", "term")),
    "dag": (Dag, ("term",)),
    "neg": (Neg, ("term",)),
    "top": (Top, ("nat", "nat")),
    "bot": (Bot, ("nat", "nat")),
}

#: the colour switch of the primitive classes; a constant's flips its last letter
MIRROR = {IdW: IdB, SymW: SymB, SeqW: SeqB, TensW: TensB}
MIRROR.update({black: white for white, black in MIRROR.items()})

BINARY = tuple(cls for cls, kinds in FORMS.values() if kinds == ("term", "term"))
UNARY = tuple(cls for cls, kinds in FORMS.values() if kinds == ("term",))

# node class -> (head, argument kind, field names), looked up once here
_SYNTAX = {cls: (head, kinds[0], tuple(f.name for f in fields(cls)))
           for head, (cls, kinds) in FORMS.items()}

# convenience aliases used throughout
CopyW = Const("copyw")
DiscardW = Const("dscw")
CocopyW = Const("cocw")
CodiscardW = Const("codw")
CopyB = Const("copyb")
DiscardB = Const("dscb")
CocopyB = Const("cocb")
CodiscardB = Const("codb")


def children(t):
    cls = type(t)
    return (t.t, t.u) if cls in BINARY else (t.t,) if cls in UNARY else ()


def with_children(t, kids):
    return type(t)(*kids) if kids else t


def spine_at(t, path):
    """The nodes from the root of t down to its subterm at `path`."""
    spine = [t]
    for i, step in enumerate(path):
        kids = children(t)
        if step < 0 or step >= len(kids):
            raise InvalidPosition(
                f"no child {step} at {format_position(path[:i])} in {print_term(t)}"
            )
        t = kids[step]
        spine.append(t)
    return spine


def subterm_at(t, path):
    return spine_at(t, path)[-1]


def replace_at(t, path, u, sig, types=None, spine=None):
    """Replace the subterm at `path` by `u`, which must have the same type
    under `sig` as the subterm it replaces, so the result stays well-typed.
    `types` is a `typecheck` memo; `spine` is `spine_at(t, path)` if the
    caller has it.  The result shares every subtree off the spine with t."""
    spine = spine or spine_at(t, path)
    old_ty = typecheck(spine[-1], sig, types=types)
    new_ty = typecheck(u, sig, types=types)
    if old_ty != new_ty:
        raise TypeMismatch(f"replacement type {new_ty} differs from {old_ty}", path)
    for node, step in zip(reversed(spine[:-1]), reversed(path)):
        kids = list(children(node))
        kids[step] = u
        u = with_children(node, kids)
    return u


def positions(t):
    """All valid positions of t, root first, depth-first."""
    out = [()]
    for i, kid in enumerate(children(t)):
        out.extend((i,) + p for p in positions(kid))
    return out


# ---------------------------------------------------------------------------
# typing


def typecheck(t, sig, _path=(), types=None):
    """Return (dom, cod) or raise TypeMismatch / unknown generator.

    `types` is an optional memo for one `sig`, from `id(node)` to `(type,
    node)`: each entry keeps its node alive, so no id is reused while the
    memo lives.  Recursion goes through this module-level name."""
    hit = types and types.get(id(t))
    if hit:
        return hit[0]
    cls = type(t)
    if cls is SeqW or cls is SeqB:
        n1, m1 = typecheck(t.t, sig, _path + (0,), types)
        n2, m2 = typecheck(t.u, sig, _path + (1,), types)
        if m1 != n2:
            raise TypeMismatch(f"cod {m1} ≠ dom {n2}", _path)
        ty = (n1, m2)
    elif cls is TensW or cls is TensB:
        n1, m1 = typecheck(t.t, sig, _path + (0,), types)
        n2, m2 = typecheck(t.u, sig, _path + (1,), types)
        ty = (n1 + n2, m1 + m2)
    elif cls is Gen or cls is GenOp:
        n, m = sig.type_of(t.name)
        ty = (n, m) if cls is Gen else (m, n)
    elif cls is Const:
        ty = CONSTANT_TYPES[t.kind]
    elif cls is IdW or cls is IdB:
        if t.n < 0:
            raise TypeMismatch("negative identity arity", _path)
        ty = (t.n, t.n)
    elif cls is SymW or cls is SymB:
        if t.m < 0 or t.n < 0:
            raise TypeMismatch("negative symmetry arity", _path)
        ty = (t.m + t.n, t.n + t.m)
    elif cls is Meet or cls is Join:
        ty = typecheck(t.t, sig, _path + (0,), types)
        ty2 = typecheck(t.u, sig, _path + (1,), types)
        if ty != ty2:
            raise TypeMismatch(f"branch types {ty} ≠ {ty2}", _path)
    elif cls is Dag or cls is Neg:
        n, m = typecheck(t.t, sig, _path + (0,), types)
        ty = (m, n) if cls is Dag else (n, m)
    elif cls is Top or cls is Bot:
        if t.n < 0 or t.m < 0:
            raise TypeMismatch("negative arity", _path)
        ty = (t.n, t.m)
    else:
        raise DiagrelError(f"not a term: {t!r}")
    if types is not None:
        types[id(t)] = (ty, t)
    return ty


# ---------------------------------------------------------------------------
# printing / parsing


def print_term(t):
    cls = type(t)
    if cls is Const:
        return t.kind
    if cls not in _SYNTAX:
        raise DiagrelError(f"not a term: {t!r}")
    head, kind, names = _SYNTAX[cls]
    args = (map(print_term, children(t)) if kind == "term"
            else [str(getattr(t, f)) for f in names])
    return f"({head} {' '.join(args)})"


def _tokenize(text):
    """Yield (token, line, col); tokens are '(', ')' and atoms."""
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col)
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < len(text) and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield (text[start:i], line, startcol)


def _read_sexpr(tokens, pos):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input (unbalanced parenthesis?)")
    tok, line, col = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unbalanced parenthesis", line, col)
            if tokens[pos][0] == ")":
                return items, pos + 1
            item, pos = _read_sexpr(tokens, pos)
            items.append(item)
    if tok == ")":
        raise ParseError("unexpected ')'", line, col)
    return (tok, line, col), pos + 1


def _nat(atom):
    if isinstance(atom, list):
        raise ParseError("expected number, got a list")
    tok, line, col = atom
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"expected number, got {tok!r}", line, col) from None
    if v < 0:
        raise ParseError("number must be non-negative", line, col)
    return v


def _build(sx, sig):
    if isinstance(sx, tuple):
        tok, line, col = sx
        if tok in CONSTANT_TYPES:
            return Const(tok)
        raise ParseError(f"unknown atom {tok!r}", line, col)
    if not sx:
        raise ParseError("empty list")
    head = sx[0]
    if isinstance(head, list):
        raise ParseError("list in head position")
    tok, line, col = head
    args = sx[1:]
    if tok not in FORMS:
        raise ParseError(f"unknown form {tok!r}", line, col)
    cls, kinds = FORMS[tok]
    if len(args) != len(kinds):
        raise ParseError(f"{tok} expects {len(kinds)} argument(s), got {len(args)}",
                         line, col)
    if kinds[0] == "term":
        return cls(*[_build(arg, sig) for arg in args])
    if kinds[0] == "nat":
        return cls(*map(_nat, args))
    return cls(*[_name(arg, sig, line, col) for arg in args])


def _name(atom, sig, line, col):
    if isinstance(atom, list):
        raise ParseError("generator name must be an atom", line, col)
    if sig is not None and atom[0] not in sig.generators:
        raise ParseError(f"unknown generator {atom[0]!r}", atom[1], atom[2])
    return atom[0]


def parse_term(text, sig=None):
    """Parse one term from `text`; generator names are checked against `sig`."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise ParseError("empty input")
    sx, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        tok, line, col = tokens[pos]
        raise ParseError(f"trailing input {tok!r}", line, col)
    return _build(sx, sig)


def parse_inequality(text, sig=None):
    """Parse `TERM <= TERM` into its two terms; generator names are checked
    against `sig`."""
    tokens = list(_tokenize(text))
    sx1, pos = _read_sexpr(tokens, 0)
    if pos >= len(tokens) or tokens[pos][0] != "<=":
        raise ParseError("expected '<=' between terms")
    sx2, pos = _read_sexpr(tokens, pos + 1)
    if pos != len(tokens):
        raise ParseError("trailing input after second term")
    return _build(sx1, sig), _build(sx2, sig)


# ---------------------------------------------------------------------------
# arity-indexed macros (left-nested combs built from the unary constants),
# memoized: terms are immutable, and the proof kernel and axiom verification
# build the same macros over and over


def _comb(pair, n):
    if n == 0:
        return IdW(0)
    t = pair
    for _ in range(n - 1):
        t = TensW(pair, t)
    return t


@functools.cache
def discard_w(n):
    return _comb(DiscardW, n)


@functools.cache
def codiscard_w(n):
    return _comb(CodiscardW, n)


@functools.cache
def copy_w(n):
    """n-ary white copy X^n -> X^2n, first copy then second copy."""
    if n == 0:
        return IdW(0)
    if n == 1:
        return CopyW
    rest = copy_w(n - 1)
    spread = TensW(CopyW, rest)
    shuffle = TensW(IdW(1), TensW(SymW(1, n - 1), IdW(n - 1)))
    return SeqW(spread, shuffle)


@functools.cache
def cocopy_w(n):
    if n == 0:
        return IdW(0)
    if n == 1:
        return CocopyW
    rest = cocopy_w(n - 1)
    shuffle = TensW(IdW(1), TensW(SymW(n - 1, 1), IdW(n - 1)))
    merge = TensW(CocopyW, rest)
    return SeqW(shuffle, merge)


def _black(white):
    """The black macro mirroring `white`: its colour switch, memoized."""
    @functools.cache
    def black(n):
        return _negate_prim(white(n), EMPTY_SIGNATURE)
    return black


discard_b = _black(discard_w)
codiscard_b = _black(codiscard_w)
copy_b = _black(copy_w)
cocopy_b = _black(cocopy_w)


def cup_w(n):
    """0 -> 2n, the pairs {((), (v,v))}."""
    return SeqW(codiscard_w(n), copy_w(n))


def cap_w(n):
    """2n -> 0, the pairs {((v,v), ())}."""
    return SeqW(cocopy_w(n), discard_w(n))


# ---------------------------------------------------------------------------
# desugaring


def _dag_expansion(t, n, m):
    """Cup/cap conjugation of a primitive term t : n -> m, giving m -> n."""
    left = TensW(cup_w(n), IdW(m))
    mid = TensW(IdW(n), TensW(t, IdW(m)))
    right = TensW(IdW(n), cap_w(m))
    return SeqW(left, SeqW(mid, right))


def _negate_prim(t, sig):
    """Colour switch on a primitive-only term; generators turn into
    daggered opposed boxes and vice versa."""
    cls = type(t)
    if cls in MIRROR:  # mirror classes share their field names
        kids = [_negate_prim(kid, sig) for kid in children(t)]
        return MIRROR[cls](*kids) if kids else MIRROR[cls](**vars(t))
    if cls is Const:
        return Const(t.kind[:-1] + ("b" if t.kind[-1] == "w" else "w"))
    if cls is Gen:
        n, m = sig.type_of(t.name)
        return _dag_expansion(GenOp(t.name), m, n)
    if cls is GenOp:
        n, m = sig.type_of(t.name)
        return _dag_expansion(Gen(t.name), n, m)
    raise DiagrelError(f"not primitive: {t!r}")


def desugar(t, sig=EMPTY_SIGNATURE):
    """Expand all sugar nodes; the result uses only the primitive calculus."""
    cls = type(t)
    if cls is SeqW or cls is SeqB or cls is TensW or cls is TensB:
        return cls(desugar(t.t, sig), desugar(t.u, sig))
    if cls is Meet or cls is Join:
        n, m = typecheck(t, sig)
        a, b = desugar(t.t, sig), desugar(t.u, sig)
        if cls is Meet:
            return SeqW(copy_w(n), SeqW(TensW(a, b), cocopy_w(m)))
        return SeqB(copy_b(n), SeqB(TensB(a, b), cocopy_b(m)))
    if cls is Top:
        return SeqW(discard_w(t.n), codiscard_w(t.m))
    if cls is Bot:
        return SeqB(discard_b(t.n), codiscard_b(t.m))
    if cls is Dag:
        inner = desugar(t.t, sig)
        n, m = typecheck(inner, sig)
        return _dag_expansion(inner, n, m)
    if cls is Neg:
        return _negate_prim(desugar(t.t, sig), sig)
    return t
