"""Formula AST, concrete syntax and the fixed linear order R.

Formulas are immutable trees over atoms ``p1, p2, ...`` and the three
binary connectives ``->`` (implication), ``v`` (disjunction) and ``&``
(conjunction).  Structural equality is the only identity; there is no
binding, so two formulas are "the same" iff their trees are equal.

The node classes Impl, Disj and Conj are the one statement of the
connective vocabulary: each carries its ``symbol``, its ``precedence``
(also its code in the order R) and its ``bit`` in the connective mask.
The tokenizer, the parser and the printer read ``symbol`` and
``precedence`` from them.  A calculus (kernel.CalculusId) is such a mask,
and ``CalculusId(f.mask)`` is the least calculus admitting f.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from typing import Iterator, Mapping


class ParseError(ValueError):
    """Raised on malformed concrete syntax; carries position and expectation."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


class Formula:
    """Base class; concrete nodes are Atom, Impl, Disj and Conj.

    Nodes are hash-consed: constructing the same tree twice yields the
    same object, so equality and hashing are identity (constant time).
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __str__(self) -> str:
        return pretty(self)


_ATOM_INTERN: dict = {}
_BINARY_INTERN: dict = {}


class Atom(Formula):
    __slots__ = ("index", "size", "mask")

    def __new__(cls, index: int):
        # type(), not isinstance(): True == 1 would find p1 in the table
        if type(index) is not int or index < 1:
            raise ValueError(f"atom index must be a positive integer, got {index!r}")
        cached = _ATOM_INTERN.get(index)
        if cached is None:
            try:
                str(index)  # pretty prints it, so it must fit int -> str
            except ValueError:
                raise ValueError(
                    "atom index must have at most "
                    f"{sys.get_int_max_str_digits()} digits") from None
            cached = object.__new__(cls)
            object.__setattr__(cached, "index", index)
            object.__setattr__(cached, "size", 1)
            object.__setattr__(cached, "mask", 0)
            _ATOM_INTERN[index] = cached
        return cached

    def __repr__(self):
        return f"Atom({self.index})"

    def __reduce__(self):
        # copy and pickle rebuild through __new__, so the result is interned
        return Atom, (self.index,)


class _Binary(Formula):
    """A connective node; `mask` ORs the `bit` of every connective in it."""

    __slots__ = ("left", "right", "size", "mask")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        cached = _BINARY_INTERN.get(key)
        if cached is None:
            if not (isinstance(left, Formula) and isinstance(right, Formula)):
                raise TypeError(f"formula children required, got {left!r}, {right!r}")
            cached = object.__new__(cls)
            object.__setattr__(cached, "left", left)
            object.__setattr__(cached, "right", right)
            object.__setattr__(cached, "size", left.size + right.size + 1)
            object.__setattr__(cached, "mask",
                               left.mask | right.mask | cls.bit)
            _BINARY_INTERN[key] = cached
        return cached

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"

    def __reduce__(self):
        return type(self), (self.left, self.right)


class Impl(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "->", 1, 0


class Disj(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "v", 2, 1


class Conj(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "&", 3, 2


# ---------------------------------------------------------------------------
# concrete syntax
#
# formula := impl
# impl    := disj ("->" impl)?
# disj    := conj ("v" disj)?
# conj    := primary ("&" conj)?
# primary := atom | "(" formula ")"
# atom    := "p" [1-9][0-9]*
#
# Precedence & > v > ->, all right-associative; whitespace insignificant.
# The symbols and the precedence order are read from the node classes.

_CONNECTIVES = {c.symbol: c for c in (Impl, Disj, Conj)}
# One token per match; a lone \S that starts no token is the text's fault.
_TOKEN_RE = re.compile(r"\s*(p[1-9][0-9]*|%s|[()]|\S)"
                       % "|".join(map(re.escape, _CONNECTIVES)))
_ANY_TOKEN = f"a token ({', '.join(map(repr, [*_CONNECTIVES, '(', ')']))} or 'pN')"
# parse's stack holds (precedence, connective, left operand) entries; a
# '(' is _PAREN, and so is the bottom entry, which stands for the whole
# formula: precedence 0 stops every reduction
_BY_SYMBOL = {s: (c.precedence, c) for s, c in _CONNECTIVES.items()}
_PAREN = (0, None, None)


def _is_token(tok: str) -> bool:
    return (tok in _CONNECTIVES or tok in ("(", ")")
            or (tok[0] == "p" and len(tok) > 1))


def _error(text: str, index, expected, found=None):
    """The error where token `index` (None: the end of input) is not the
    `expected` one (None: where the nesting passes the recursion limit).
    A character that starts no token is reported instead, wherever it is."""
    tokens = list(_TOKEN_RE.finditer(text))
    for m in tokens:
        if not _is_token(m[1]):
            return ParseError(m.start(1), _ANY_TOKEN, repr(m[1]))
    if expected is None:
        return RecursionError("formula nested deeper than the recursion limit")
    if index is None:
        return ParseError(len(text), expected, "end of input")
    m = tokens[index]
    return ParseError(m.start(1), expected, found or repr(m[1]))


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input.

    One pass over the tokens, with an explicit stack of the open
    parentheses and of the connectives whose right operand is pending.
    Where a recursive-descent parser would pass the recursion limit, that
    is, where that stack grows past it, this raises RecursionError too."""
    limit = sys.getrecursionlimit()
    stack = [_PAREN]
    opened = 0      # the '(' entries on the stack
    lhs = None      # the operand just completed; None while one is due
    atoms: dict = {}
    for i, tok in enumerate(_TOKEN_RE.findall(text)):
        if lhs is None:
            lhs = atoms.get(tok)
            if lhs is not None:
                continue
            if tok[0] == "p" and len(tok) > 1:
                try:
                    lhs = atoms[tok] = Atom(int(tok[1:]))
                except ValueError:  # more digits than int() converts
                    raise _error(
                        text, i, "an atom index of at most "
                        f"{sys.get_int_max_str_digits()} digits",
                        f"{len(tok) - 1} digits") from None
                continue
            if tok != "(":
                raise _error(text, i, "an atom or '('")
            opened += 1
            stack.append(_PAREN)
        elif tok in _BY_SYMBOL:
            prec, ctor = _BY_SYMBOL[tok]
            # right-associative: reduce only what binds strictly tighter
            while stack[-1][0] > prec:
                _, op, left = stack.pop()
                lhs = op(left, lhs)
            stack.append((prec, ctor, lhs))
            lhs = None
        elif tok == ")" and opened:
            opened -= 1
            _, op, left = stack.pop()
            while op is not None:
                lhs = op(left, lhs)
                _, op, left = stack.pop()
            continue
        else:
            raise _error(text, i, "')'" if opened else "end of input")
        if len(stack) > limit:
            raise _error(text, None, None)
    if lhs is None:
        raise _error(text, None, "an atom or '('")
    if opened:
        raise _error(text, None, "')'")
    _, op, left = stack.pop()   # down to the bottom entry, as at a ')'
    while op is not None:
        lhs = op(left, lhs)
        _, op, left = stack.pop()
    return lhs


def pretty(f: Formula, memo: dict | None = None) -> str:
    """Render with minimal parentheses under the right-association
    convention: a left operand is parenthesized when it binds no tighter
    than its parent, a right operand when it binds less tightly.

    `memo` maps formulas to their text and is filled in; calls that share
    one print each distinct subformula once."""
    if memo is None:
        memo = {}
    text = memo.get(f)
    if text is not None:
        return text
    stack = [f]
    while stack:
        g = stack[-1]
        if type(g) is Atom:
            memo[g] = f"p{g.index}"
            stack.pop()
            continue
        left, right = g.left, g.right
        ls, rs = memo.get(left), memo.get(right)
        if ls is None or rs is None:
            if ls is None:
                stack.append(left)
            if rs is None and right is not left:
                stack.append(right)
            continue
        prec = g.precedence
        if type(left) is not Atom and left.precedence <= prec:
            ls = f"({ls})"
        if type(right) is not Atom and right.precedence < prec:
            rs = f"({rs})"
        memo[g] = f"{ls} {g.symbol} {rs}"
        stack.pop()
    return memo[f]


# ---------------------------------------------------------------------------
# the order R

@lru_cache(maxsize=65536)
def r_key(f: Formula):
    """Sort key realizing the fixed linear order R: node count, then a
    canonical preorder serialization compared lexicographically.  On atoms
    this reduces to index order."""
    ser: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Atom:
            ser += (0, g.index)
        else:
            ser.append(g.precedence)  # a connective's code in R
            stack += (g.right, g.left)
    return (f.size, tuple(ser))


def compare_R(a: Formula, b: Formula) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b in the order R."""
    ka, kb = r_key(a), r_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def r_sorted(atoms) -> tuple:
    return tuple(sorted(atoms, key=r_key))


# ---------------------------------------------------------------------------
# atom sets, Gamma/Delta extractors and the positive/negative encodings

def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas of f, including f itself (preorder, with repeats)."""
    yield f
    if not isinstance(f, Atom):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


@lru_cache(maxsize=65536)
def atoms_of(f: Formula) -> frozenset:
    """The set of atomic subformulas of f."""
    if isinstance(f, Atom):
        return frozenset((f,))
    return atoms_of(f.left) | atoms_of(f.right)


def gamma_set(v: Mapping[int, bool], f: Formula) -> frozenset:
    """Atomic subformulas of f that v makes true."""
    return frozenset(a for a in atoms_of(f) if _lookup(v, a))


def delta_set(v: Mapping[int, bool], f: Formula) -> frozenset:
    """Atomic subformulas of f that v makes false."""
    return frozenset(a for a in atoms_of(f) if not _lookup(v, a))


def _lookup(v: Mapping[int, bool], a: Atom) -> bool:
    try:
        return v[a.index]
    except KeyError:
        raise KeyError(f"assignment does not cover atom p{a.index}") from None


def disj_chain(fs) -> Formula:
    """Right-associated disjunction of a non-empty sequence."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty disjunction")
    result = fs[-1]
    for g in reversed(fs[:-1]):
        result = Disj(g, result)
    return result


def conj_chain(fs) -> Formula:
    """Right-associated conjunction of a non-empty sequence."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty conjunction")
    result = fs[-1]
    for g in reversed(fs[:-1]):
        result = Conj(g, result)
    return result


def pos_encode(k, a: Formula) -> Formula:
    """(K)^A: a itself when K is empty, else B1 v ... v Bn v a with the
    members of K in increasing R order."""
    members = r_sorted(k)
    if not members:
        return a
    return disj_chain(list(members) + [a])


def neg_encode(k, a: Formula) -> Formula:
    """(K)^~A: a itself when K is empty, else a -> (B1 v ... v Bn)."""
    members = r_sorted(k)
    if not members:
        return a
    return Impl(a, disj_chain(members))


# ---------------------------------------------------------------------------
# occurrence paths: tuples of "left"/"right" from the root

def subformula_at(f: Formula, path) -> Formula:
    for direction in path:
        if isinstance(f, Atom):
            raise ValueError(f"path descends below an atom at {f}")
        if direction == "left":
            f = f.left
        elif direction == "right":
            f = f.right
        else:
            raise ValueError(f"bad path component {direction!r}")
    return f


def replace_at(f: Formula, path, replacement: Formula) -> Formula:
    if not path:
        return replacement
    if isinstance(f, Atom):
        raise ValueError(f"path descends below an atom at {f}")
    direction, rest = path[0], path[1:]
    if direction == "left":
        return type(f)(replace_at(f.left, rest, replacement), f.right)
    if direction == "right":
        return type(f)(f.left, replace_at(f.right, rest, replacement))
    raise ValueError(f"bad path component {direction!r}")


# ---------------------------------------------------------------------------
# bounded enumeration (used by the sweep tooling and tests)

def enumerate_formulas(max_connectives: int, atom_indices, language) -> Iterator[Formula]:
    """All formulas of the language (a CalculusId, read for its connective
    mask) over the given atoms with at most max_connectives connective
    occurrences, smallest first; none when max_connectives is negative."""
    if max_connectives < 0:
        return
    atoms = [Atom(i) for i in sorted(atom_indices)]
    ctors = [c for c in (Impl, Disj, Conj) if c.bit & ~language.mask == 0]

    by_count: list[list[Formula]] = [list(atoms)]
    yield from by_count[0]
    for n in range(1, max_connectives + 1):
        level: list[Formula] = []
        for i in range(n):
            for lhs in by_count[i]:
                for rhs in by_count[n - 1 - i]:
                    for ctor in ctors:
                        level.append(ctor(lhs, rhs))
        by_count.append(level)
        yield from level
