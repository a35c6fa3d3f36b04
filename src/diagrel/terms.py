"""Diagram terms over a monoidal signature: AST, parsing, typing, desugaring.

Terms are immutable trees, and every node class but `Const` comes from one
factory, `_nodes`.  The primitive calculus has two colours (white and black)
of identities, symmetries, (co)monoid constants, sequential composition and
tensor, plus generator boxes and their opposed boxes.  Derived constructors
(dagger, negation, meet, join, top, bottom) are sugar nodes.
`finrel.evaluate` evaluates them directly; `desugar` expands them, by one
`typecheck` pass, for the proof kernel (`rewrite.check_proof`,
`rewrite.spider_normalize`) and for `diagrel desugar`.  A node keeps the
type `typecheck` gives it, in its slot `_ty` (no field), with the signature
object it was given under, and is read back only under that same object, by
`typecheck` itself, the one reader of a held type.

The s-expression syntax is declared once, in `FORMS`: each head with its
node class and argument kinds.  The eight constants are bare atoms.  The
colour switch is declared once, in `MIRROR`; a constant's mirror flips the
last letter of its kind (`mirror_head`, which also switches axiom patterns).
One builder, `macro(kind, n)`, gives the arity-indexed (co)copy and
(co)discard of both colours, each in its kind's own colour, so a black macro
is the colour switch of its white mirror; the cup and cap of a desugared
dag are composed of its macros.

Every file format is read through `read_lines`: each line is cut at its
first `#`, stripped, and skipped when blank.

    signature       sig NAME : N -> M                   (one per line)
    theory          sig lines and  axiom NAME : TERM <= TERM
    proof           prove TERM <= TERM, step lines, qed; a step line is
                    step AXIOM at POS dir l2r|r2l [with NAME=ATOM NAME=(...) ...]
    interpretation  carrier K  rel NAME N M { (t1 .. tN ; u1 .. uM) ... } ...

A term is an s-expression, a `with` clause is read by the same tokenizer
(in both, `;` starts a comment), and a position is `e`, `ε` or naturals
joined by dots.  One numeral rule serves every site (`natural`): a natural
number is a token of ASCII decimal digits; behind leading `-` signs it is
negative, and refused.
"""

from __future__ import annotations

import functools
import re
from operator import attrgetter

#: the largest total arity n + m of a relation space, and the largest arity of
#: an arity-indexed macro or of a spider port list; at carriers 0 and 1 a
#: relation's bit count stays small at any arity, so the bits cannot bound it
MAX_ARITY = 2 ** 20


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


class Record:
    """An immutable record: its fields are the slots of its class and bases but
    those named `_*`, in `_fields` order, and `__init__` takes all of them,
    positionally.  Records of one class are `==` when their `_key(record)`s (all
    fields, or one value for one field) are, and `hash` agrees.  A class that
    checks its fields or is built often writes its own `__init__` over
    `slot_setters`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for base in reversed(cls.__mro__)
                            for name in vars(base).get("__slots__", ()) if name[0] != "_")
        if "_key" not in vars(cls) and cls._fields:
            cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) \
            else NotImplemented

    def __hash__(self):
        return hash((self._key(self),))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through `__init__`
        return type(self), tuple([getattr(self, name) for name in self._fields])


def slot_setters(cls):
    """The `__set__` of each field that `cls` declares, in order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__ if name[0] != "_"]


class Signature(Record):
    """Map from generator names to (arity, coarity), copied from the map given."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        for name, (n, m) in generators.items():
            if n < 0 or m < 0:
                raise DiagrelError(f"generator {name}: negative arity")
        super().__init__(dict(generators))

    def type_of(self, name):
        try:
            return self.generators[name]
        except KeyError:
            raise DiagrelError(f"unknown generator {name!r}") from None

    @staticmethod
    def parse(text):
        """Parse `sig NAME : N -> M` lines; blank lines and # comments allowed."""
        gens = {}
        for lineno, _, line in read_lines(text):
            read_sig_line(line, lineno, gens)
        return Signature(gens)


def read_sig_line(line, lineno, gens):
    """Add the generator of the `sig NAME : N -> M` line `line` to `gens`."""
    parts = line.replace(":", " : ").replace("->", " -> ").split()
    if len(parts) != 6 or parts[0] != "sig" or parts[2] != ":" or parts[4] != "->":
        raise ParseError(f"bad signature line: {line!r}", lineno, 1)
    if parts[1] in gens:
        raise ParseError(f"duplicate generator {parts[1]!r}", lineno, 1)
    n, m = natural(parts[3]), natural(parts[5])
    if n is None or m is None:
        raise ParseError(f"bad arity in: {line!r}", lineno, 1)
    gens[parts[1]] = (n, m)


EMPTY_SIGNATURE = Signature({})


# ---------------------------------------------------------------------------
# AST


class Term(Record):
    """A term node: its slots and constructor come from a layout class outside
    this hierarchy (`_nodes` builds one per node shape), so that each subclass
    is one form."""

    __slots__ = ()

    def __eq__(self, other):
        """Structural equality at any depth: a loop walks down the t children,
        stacking the u children; leaves compare by their keys."""
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        pop, push = stack.pop, stack.append
        while stack:
            a, b = pop()
            while a is not b:
                cls = type(a)
                if cls is not type(b):
                    return False
                if cls in BINARY:
                    push((a.u, b.u))
                elif cls not in UNARY:
                    if a._key(a) != b._key(b):
                        return False
                    break
                a, b = a.t, b.t
        return True

    def __hash__(self):
        """The hash of each node's class, and each leaf's key, from a loop over an
        explicit stack, so that equal terms at any depth hash alike."""
        keys, stack = [], [self]
        while stack:
            t = stack.pop()
            kids = children(t)
            stack += kids
            keys.append(type(t) if kids else (type(t), t._key(t)))
        return hash(tuple(keys))


def _nodes(fields, *names):
    """A term class for each name, each one form, over one layout class: the
    slots `fields` and `_ty`, and an `__init__` that sets the one or two fields,
    given in order, through their slots' `__set__`."""
    layout = type("_" + "_".join(fields), (), {"__slots__": (*fields, "_ty")})
    set_a, set_b = (slot_setters(layout) + [None])[:2]
    if set_b is None:
        def __init__(self, a):
            set_a(self, a)
    else:
        def __init__(self, a, b):
            set_a(self, a)
            set_b(self, b)
    layout.__init__ = __init__
    return [type(name, (layout, Term), {"__slots__": ()}) for name in names]


IdW, IdB = _nodes(("n",), "IdW", "IdB")
SymW, SymB = _nodes(("m", "n"), "SymW", "SymB")
Gen, GenOp = _nodes(("name",), "Gen", "GenOp")
SeqW, SeqB, TensW, TensB = _nodes(("t", "u"), "SeqW", "SeqB", "TensW", "TensB")
# sugar nodes
Dag, Neg = _nodes(("t",), "Dag", "Neg")
Meet, Join = _nodes(("t", "u"), "Meet", "Join")
Top, Bot = _nodes(("n", "m"), "Top", "Bot")


def mirror_head(head):
    """The colour switch of a form head or constant kind: its last letter flipped."""
    return head[:-1] + ("b" if head[-1] == "w" else "w")


#: atom name -> (dom, cod) for the eight unary (co)monoid constants; a
#: black constant has the type of its white mirror
CONSTANT_TYPES = {
    "copyw": (1, 2),
    "dscw": (1, 0),
    "cocw": (2, 1),
    "codw": (0, 1),
}
CONSTANT_TYPES.update({mirror_head(kind): ty for kind, ty in CONSTANT_TYPES.items()})


class Const(Term):
    __slots__ = ("kind", "_ty")

    def __init__(self, kind):
        if kind not in CONSTANT_TYPES:
            raise DiagrelError(f"unknown constant {kind!r}")
        _SET_KIND(self, kind)


_SET_KIND, = slot_setters(Const)


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

#: the colour switch of the primitive classes; a constant's is `mirror_head`
MIRROR = {IdW: IdB, SymW: SymB, SeqW: SeqB, TensW: TensB}
MIRROR.update({black: white for white, black in MIRROR.items()})

BINARY = frozenset(cls for cls, kinds in FORMS.values() if kinds == ("term", "term"))
UNARY = frozenset(cls for cls, kinds in FORMS.values() if kinds == ("term",))

# node class -> (head, argument kind, field names), looked up once here
_SYNTAX = {cls: (head, kinds[0], cls._fields)
           for head, (cls, kinds) in FORMS.items()}


def children(t):
    cls = type(t)
    return (t.t, t.u) if cls in BINARY else (t.t,) if cls in UNARY else ()


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


def replace_at(t, path, u, sig, spine=None):
    """Replace the subterm at `path` by `u`, which must have the same type
    under `sig` as the subterm it replaces, so the result stays well-typed
    and each rebuilt node keeps the type under `sig` of the node it replaces.
    `spine` is `spine_at(t, path)` if the caller has it.  The result shares
    every subtree off the spine with t."""
    spine = spine or spine_at(t, path)
    old_ty = typecheck(spine[-1], sig)
    new_ty = typecheck(u, sig)
    if old_ty != new_ty:
        raise TypeMismatch(f"replacement type {new_ty} differs from {old_ty}", path)
    for node, step in zip(reversed(spine[:-1]), reversed(path)):
        cls = type(node)
        u = cls(node.t, u) if step else cls(u, node.u) if cls in BINARY else cls(u)
        if (held := getattr(node, "_ty", None)) and held[0] is sig:
            object.__setattr__(u, "_ty", held)
    return u


# ---------------------------------------------------------------------------
# typing


def node_type(cls, s, t):
    """The type of an inner node of class `cls`, or of an opposed box, over
    operands typed s and t (t is s for a unary node or a box, over its
    generator's type), or a DiagrelError in `typecheck`'s words, no position."""
    (n, j), (i, m) = s, t
    if cls is SeqW or cls is SeqB:
        if j != i:
            raise DiagrelError(f"cod {j} ≠ dom {i}")
        return n, m
    if cls is TensW or cls is TensB:
        return n + i, j + m
    if (cls is Meet or cls is Join) and s != t:
        raise DiagrelError(f"branch types {s} ≠ {t}")
    return (j, n) if cls is Dag or cls is GenOp else s


def typecheck(t, sig, _path=()):
    """Return (dom, cod) or raise TypeMismatch / unknown generator.

    The type is kept on the node, with the signature object it was found
    under, and read back only under that same object.  Recursion goes
    through this module-level name."""
    if (held := getattr(t, "_ty", None)) and held[0] is sig:
        return held[1]
    cls = type(t)
    if cls in BINARY or cls in UNARY:
        s = typecheck(t.t, sig, _path + (0,))
        u = typecheck(t.u, sig, _path + (1,)) if cls in BINARY else s
        try:
            ty = node_type(cls, s, u)
        except DiagrelError as e:
            raise TypeMismatch(str(e), _path) from None
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
    elif cls is Top or cls is Bot:
        if t.n < 0 or t.m < 0:
            raise TypeMismatch("negative arity", _path)
        ty = (t.n, t.m)
    else:
        raise DiagrelError(f"not a term: {t!r}")
    object.__setattr__(t, "_ty", (sig, ty))
    return ty


# ---------------------------------------------------------------------------
# printing / parsing


class _Text(str):
    """A text piece on `print_term`'s stack, told apart from a `str` field."""


_CLOSE, _SPACE = _Text(")"), _Text(" ")


def print_term(t):
    """The s-expression of t, written from an explicit stack of subterms and
    text pieces, so that it prints every term `desugar` builds, at any depth."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is _Text or cls is Const:
            out.append(t if cls is _Text else t.kind)
            continue
        if cls not in _SYNTAX:
            raise DiagrelError(f"not a term: {t!r}")
        head, kind, names = _SYNTAX[cls]
        if kind == "term":  # "(head", then " " and each subterm, then ")"
            out.append("(" + head)
            stack.append(_CLOSE)
            for name in reversed(names):
                stack += (getattr(t, name), _SPACE)
        else:
            out.append(f"({head} {' '.join(str(getattr(t, f)) for f in names)})")
    return "".join(out)


def read_lines(text):
    """Yield (lineno, col, line) for each non-blank line of `text`, cut at its
    `#` comment and stripped; `line` starts at column `col`."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        if line := code.strip():
            yield lineno, code.index(line) + 1, line


def natural(tok):
    """The value of `tok` by the numeral rule, -1 if it is a natural number
    behind leading `-` signs, else None."""
    digits = tok.lstrip("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    if digits != tok:
        return -1
    try:
        return int(tok)
    except ValueError:  # more digits than `int` converts
        return None


def read_nat(tok, what, line, col):
    """The natural number `tok`, or a ParseError at (line, col) naming `what`."""
    v = natural(tok)
    if v is None:
        raise ParseError(f"expected {what}, got {tok!r}", line, col)
    if v < 0:
        raise ParseError(f"{what} must be non-negative", line, col)
    return v


# a line break, a `;` comment, a parenthesis or an atom; blanks match nothing
_TOKEN = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


def tokenize(text, line=1, col=1):
    """Yield (token, line, col) for the '(', ')' and atoms of `text`, which
    starts at (line, col)."""
    base = 1 - col  # the index of column 1 on the current line
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "\n":
            line, base = line + 1, m.end()
        elif tok[0] != ";":
            yield tok, line, m.start() - base + 1


def read_sexpr(tokens, pos):
    """The s-expression at tokens[pos], and the position after it."""
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
            item, pos = read_sexpr(tokens, pos)
            items.append(item)
    if tok == ")":
        raise ParseError("unexpected ')'", line, col)
    return (tok, line, col), pos + 1


def _nat(atom):
    if isinstance(atom, list):
        raise ParseError("expected number, got a list")
    return read_nat(atom[0], "number", atom[1], atom[2])


def build_term(sx, sig):
    """The term of an s-expression; generator names are checked against `sig`."""
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
        # map, not a comprehension: one Python frame per term level
        return cls(*map(build_term, args, [sig] * len(args)))
    if kinds[0] == "nat":
        return cls(*map(_nat, args))
    name = args[0]  # gen and genop take one generator name
    if isinstance(name, list):
        raise ParseError("generator name must be an atom", line, col)
    if name[0] not in sig.generators:
        raise ParseError(f"unknown generator {name[0]!r}", name[1], name[2])
    return cls(name[0])


def parse_term(text, sig=EMPTY_SIGNATURE):
    """Parse one term from `text`; generator names are checked against `sig`."""
    tokens = list(tokenize(text))
    if not tokens:
        raise ParseError("empty input")
    sx, pos = read_sexpr(tokens, 0)
    if pos != len(tokens):
        tok, line, col = tokens[pos]
        raise ParseError(f"trailing input {tok!r}", line, col)
    return build_term(sx, sig)


def parse_inequality(text, sig=EMPTY_SIGNATURE, line=1, col=1):
    """Parse `TERM <= TERM`, which starts at (line, col), into its two terms;
    generator names are checked against `sig`."""
    tokens = list(tokenize(text, line, col))
    sx1, pos = read_sexpr(tokens, 0)
    if pos >= len(tokens) or tokens[pos][0] != "<=":
        raise ParseError("expected '<=' between terms")
    sx2, pos = read_sexpr(tokens, pos + 1)
    if pos != len(tokens):
        raise ParseError("trailing input after second term")
    return build_term(sx1, sig), build_term(sx2, sig)


# ---------------------------------------------------------------------------
# arity-indexed macros: the n-ary (co)copy and (co)discard of both colours,
# each a left-nested comb of its unary constant built by a loop, memoized:
# terms are immutable, and the proof kernel and `desugar` build the same
# macros over and over


def check_arity(n):
    """`n`, or a DiagrelError if it exceeds MAX_ARITY."""
    if n > MAX_ARITY:
        raise DiagrelError(f"arity {n} exceeds {MAX_ARITY}")
    return n


@functools.cache
def macro(kind, n):
    """The n-ary macro of the constant `kind`, X^n -> X^2n for copy: the
    identity at n = 0, else the constant tensored in front of the macro at
    n - 1, with a symmetry shuffling the wires of (co)copy so that copy gives
    first copy then second copy.  Its nodes have the kind's colour."""
    one = Const(kind)
    idc, symc, seqc, tensc = (cls if kind[-1] == "w" else MIRROR[cls]
                              for cls in (IdW, SymW, SeqW, TensW))
    if check_arity(n) == 0:
        return idc(0)
    t = one
    for i in range(1, n):  # t has arity i
        if kind[:3] == "cop":
            t = seqc(tensc(one, t), tensc(idc(1), tensc(symc(1, i), idc(i))))
        elif kind[:3] == "coc":
            t = seqc(tensc(idc(1), tensc(symc(i, 1), idc(i))), tensc(one, t))
        else:
            t = tensc(one, t)
    return t


# ---------------------------------------------------------------------------
# desugaring


def _dag_expansion(t, n, m):
    """Cup/cap conjugation of a primitive term t : n -> m, giving m -> n."""
    cup = SeqW(macro("codw", n), macro("copyw", n))  # 0 -> 2n, the pairs {((), (v,v))}
    cap = SeqW(macro("cocw", m), macro("dscw", m))  # 2m -> 0, the pairs {((v,v), ())}
    left = TensW(cup, IdW(m))
    mid = TensW(IdW(n), TensW(t, IdW(m)))
    right = TensW(IdW(n), cap)
    return SeqW(left, SeqW(mid, right))


def _negate_prim(t, sig):
    """Colour switch on a primitive-only term; generators turn into
    daggered opposed boxes and vice versa."""
    cls = type(t)
    if cls in MIRROR:  # mirror classes share their field names
        kids = [_negate_prim(kid, sig) for kid in children(t)]
        return MIRROR[cls](*(kids or [getattr(t, name) for name in cls._fields]))
    if cls is Const:
        return Const(mirror_head(t.kind))
    if cls is Gen or cls is GenOp:
        box = (GenOp if cls is Gen else Gen)(t.name)
        return _dag_expansion(box, *typecheck(box, sig))
    raise DiagrelError(f"not primitive: {t!r}")


def desugar(t, sig=EMPTY_SIGNATURE):
    """Expand all sugar nodes into the primitive calculus, reading each arity
    from the nodes after one `typecheck` pass; a sugar-free subtree is kept."""
    typecheck(t, sig)

    def expand(t):
        cls = type(t)
        if cls in BINARY:
            a, b = expand(t.t), expand(t.u)
            if cls is Meet or cls is Join:
                n, m = typecheck(t, sig)
                if cls is Meet:
                    return SeqW(macro("copyw", n), SeqW(TensW(a, b), macro("cocw", m)))
                return SeqB(macro("copyb", n), SeqB(TensB(a, b), macro("cocb", m)))
            return t if a is t.t and b is t.u else cls(a, b)
        if cls is Top:
            return SeqW(macro("dscw", t.n), macro("codw", t.m))
        if cls is Bot:
            return SeqB(macro("dscb", t.n), macro("codb", t.m))
        if cls is Dag:  # the conjugate of the expanded body, at the body's type
            return _dag_expansion(expand(t.t), *typecheck(t.t, sig))
        if cls is Neg:
            return _negate_prim(expand(t.t), sig)
        return t
    return expand(t)
