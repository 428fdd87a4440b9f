"""Formula AST, concrete syntax, fragments, and the fixed linear order R.

Formulas are immutable trees over atoms ``p1, p2, ...`` and the three
binary connectives ``->`` (implication), ``v`` (disjunction) and ``&``
(conjunction).  Structural equality is the only identity; there is no
binding, so two formulas are "the same" iff their trees are equal.

The node classes Impl, Disj and Conj are the one statement of the
connective vocabulary: each carries its ``symbol``, its printing
``precedence`` (also its code in the order R) and its ``bit`` in the
connective mask.  A Fragment is such a mask.
"""

from __future__ import annotations

import re
from enum import Enum
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
        cached = _ATOM_INTERN.get(index)
        if cached is None:
            if not (isinstance(index, int) and index >= 1):
                raise ValueError(f"atom index must be a positive integer, got {index!r}")
            cached = object.__new__(cls)
            object.__setattr__(cached, "index", index)
            object.__setattr__(cached, "size", 1)
            object.__setattr__(cached, "mask", 0)
            _ATOM_INTERN[index] = cached
        return cached

    def __repr__(self):
        return f"Atom({self.index})"


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


class Impl(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "->", 1, 0


class Disj(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "v", 2, 1


class Conj(_Binary):
    __slots__ = ()
    symbol, precedence, bit = "&", 3, 2


class Fragment(Enum):
    """Sublanguages of the positive language; each member's value is the
    mask of the connective bits it allows (-> is always allowed)."""

    IMPLICATIVE = Impl.bit
    IMPLICATIVE_DISJUNCTIVE = Disj.bit
    IMPLICATIVE_CONJUNCTIVE = Conj.bit
    POSITIVE = Disj.bit | Conj.bit

    def __init__(self, mask: int):
        self.mask = mask

    def includes(self, other: "Fragment") -> bool:
        return other.mask & ~self.mask == 0

    def admits(self, f: Formula) -> bool:
        return f.mask & ~self.mask == 0


def fragment_of(f: Formula) -> Fragment:
    """Least fragment containing f."""
    return Fragment(f.mask)


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

_TOKEN_RE = re.compile(r"\s*(->|[v&()]|p[1-9][0-9]*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(pos, "a token ('->', 'v', '&', '(', ')' or 'pN')", repr(stripped[0]))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula; raises ParseError on bad input."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def fail(expected):
        if idx < len(tokens):
            raise ParseError(tokens[idx][1], expected, repr(tokens[idx][0]))
        raise ParseError(len(text), expected, "end of input")

    def impl():
        lhs = disj()
        if peek() == "->":
            advance()
            return Impl(lhs, impl())
        return lhs

    def disj():
        lhs = conj()
        if peek() == "v":
            advance()
            return Disj(lhs, disj())
        return lhs

    def conj():
        lhs = primary()
        if peek() == "&":
            advance()
            return Conj(lhs, conj())
        return lhs

    def primary():
        tok = peek()
        if tok is None:
            fail("an atom or '('")
        if tok == "(":
            advance()
            f = impl()
            if peek() != ")":
                fail("')'")
            advance()
            return f
        if tok.startswith("p"):
            advance()
            return Atom(int(tok[1:]))
        fail("an atom or '('")

    def advance():
        nonlocal idx
        idx += 1

    result = impl()
    if idx != len(tokens):
        fail("end of input")
    return result


def pretty(f: Formula) -> str:
    """Render with minimal parentheses under the right-association convention."""
    if isinstance(f, Atom):
        return f"p{f.index}"
    prec = f.precedence

    def side(g: Formula, is_left: bool) -> str:
        s = pretty(g)
        if isinstance(g, Atom):
            return s
        if g.precedence < prec or (is_left and g.precedence == prec):
            return f"({s})"
        return s

    return f"{side(f.left, True)} {f.symbol} {side(f.right, False)}"


# ---------------------------------------------------------------------------
# the order R

def _serialize(f: Formula, out: list) -> None:
    if isinstance(f, Atom):
        out.append(0)
        out.append(f.index)
    else:
        out.append(f.precedence)  # a connective's code in R
        _serialize(f.left, out)
        _serialize(f.right, out)


@lru_cache(maxsize=65536)
def r_key(f: Formula):
    """Sort key realizing the fixed linear order R: node count, then a
    canonical preorder serialization compared lexicographically.  On atoms
    this reduces to index order."""
    ser: list = []
    _serialize(f, ser)
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

def enumerate_formulas(max_connectives: int, atom_indices, fragment: Fragment) -> Iterator[Formula]:
    """All formulas of the fragment over the given atoms with at most
    max_connectives connective occurrences, smallest first; none when
    max_connectives is negative."""
    if max_connectives < 0:
        return
    atoms = [Atom(i) for i in sorted(atom_indices)]
    ctors = [c for c in (Impl, Disj, Conj) if c.bit & ~fragment.mask == 0]

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
