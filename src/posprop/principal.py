"""Principal theorems of the small modus-ponens proofs, one table per calculus.

A proof from the axiom schemes by MP alone is a D-term: a leaf names a
scheme, and a node D(M, N) detaches the conclusion of its minor premise N
from that of its major premise M, an implication.  Unification gives each
D-term a most general conclusion, its principal theorem, and every formula
that proof shape concludes is an instance of it.  This is Meredith's
condensed detachment (Hindley & Meredith, *Principal type-schemes and
condensed detachment*, JSL 55, 1990).

`table(calc)` holds one row per principal theorem, up to renaming, of the
D-terms of at most SIZES[calc] nodes over calc's schemes.  It is built on
the first call, so import builds nothing.  The 1-node rows are the schemes
in SchemeId order; the rows of n nodes follow, generated by major premise
in row order, then minor premise in row order, and a theorem keeps the
first D-term that proves it.  `derive` gives a goal the proof of the first
row it instantiates, so p1 -> p1 v p1 is Ax4.

`first_row` looks a goal up in a discrimination tree (McCune, JAR 9,
1992; Graf, *Term Indexing*, 1996) built with the table.  A row's path is
its theorem in preorder, a connective or, for a metavariable, a wildcard
edge, cut off after DEPTH symbols; its leaf lists its rows in rank order.
The walk reads the goal along both the connective's edge and the wildcard
edge, which takes a whole subformula, and never reads below DEPTH
symbols, so it does not recurse and a deep goal costs no more than a
shallow one.  Only the rows of the leaves it reaches are matched, in
full, since the match checks what the tree cannot, a repeated
metavariable and what lies below the cut; the least in rank that matches
is the answer a scan of the whole table would give.  At depth 8 the tree
has 1,111 inner nodes and 711 leaves over the 1,377 rows of both tables,
and both tables, trees included, take about 1.2 MB.

A row keeps only its theorem, its D-term and its rank.  A node's cut
formula, the conclusion of its minor premise, is worked out when the row
is first used: the proof is instantiated top-down from the goal, and a
metavariable the goal does not fix is set to p1.  No step is a
hypothesis.

Patterns are tuples: a metavariable is an int, a node is (connective
class, left, right).  Nothing here is trusted; the kernel checks every
proof built from a row.
"""

from __future__ import annotations

from .formula import Atom, Formula, Impl
from .kernel import AxiomStep, CalculusId, Derivation, SchemeId
from .tactics import ProofBuilder

SIZES = {CalculusId.ID: 7, CalculusId.P: 5}   # most nodes of a row's D-term
DEPTH = 8   # most symbols on a path of the discrimination tree

_TABLES: dict = {}   # calculus -> (rows, tree), filled by table()
_ANY = "*"   # the tree's edge for a metavariable


class Row:
    """A principal theorem, its number of metavariables, a D-term proving
    it (a SchemeId, or the (major, minor) rows of its last MP), and its
    place in the table."""

    __slots__ = ("theorem", "arity", "dterm", "rank", "_cut")

    def __init__(self, theorem, arity: int, dterm, rank: int):
        self.theorem = theorem
        self.arity = arity
        self.dterm = dterm
        self.rank = rank
        self._cut = None

    def cut(self):
        """The minor premise's conclusion, over the theorem's
        metavariables; -1 stands for one the theorem does not hold."""
        if self._cut is None:
            major, minor = self.dterm
            s: dict = {}
            _unify(major.theorem[1], _apart(minor.theorem), s)
            names: dict = {}
            _canon(major.theorem[2], s, names)   # numbered as the theorem is
            self._cut = _canon(major.theorem[1], s, names, grow=False)
        return self._cut


# ---------------------------------------------------------------------------
# patterns

def _pattern(f: Formula):
    """A scheme's pattern as a term; the atom p(i + 1) is metavariable i."""
    if type(f) is Atom:
        return f.index - 1
    return (type(f), _pattern(f.left), _pattern(f.right))


def _apart(t):
    """t with metavariable i renamed to ~i, apart from every other row's."""
    if type(t) is int:
        return ~t
    return (t[0], _apart(t[1]), _apart(t[2]))


def _occurs(v: int, t, s: dict) -> bool:
    todo = [t]
    while todo:
        t = todo.pop()
        if type(t) is not int:
            todo += (t[1], t[2])
        elif t == v:
            return True
        elif t in s:
            todo.append(s[t])
    return False


def _unify(x, y, s: dict) -> bool:
    """Extend the substitution s to a most general unifier of x and y."""
    todo = [x, y]
    while todo:
        y, x = todo.pop(), todo.pop()
        while type(x) is int and x in s:
            x = s[x]
        while type(y) is int and y in s:
            y = s[y]
        if type(x) is not int and type(y) is int:
            x, y = y, x
        if type(x) is int:
            if x != y:
                if type(y) is not int and _occurs(x, y, s):
                    return False
                s[x] = y
        elif x[0] is not y[0]:
            return False
        else:
            todo += (x[1], y[1], x[2], y[2])
    return True


def _canon(t, s: dict, names: dict, grow: bool = True):
    """t under s, its metavariables numbered in order of first occurrence
    (names keeps them, the last number given under None, and the result
    for each bound one); without grow, a new one is -1."""
    if type(t) is not int:
        return (t[0], _canon(t[1], s, names, grow), _canon(t[2], s, names, grow))
    if t not in names:
        if t in s:
            names[t] = _canon(s[t], s, names, grow)
        elif not grow:
            return -1
        else:
            names[t] = names[None] = names.get(None, -1) + 1
    return names[t]


def _match(p, g: Formula, theta: list) -> bool:
    if type(p) is int:
        if theta[p] is None:
            theta[p] = g
            return True
        return theta[p] is g
    return (type(g) is p[0] and _match(p[1], g.left, theta)
            and _match(p[2], g.right, theta))


def _instance(t, theta: list) -> Formula:
    if type(t) is int:
        return theta[t] if t >= 0 else Atom(1)
    return t[0](_instance(t[1], theta), _instance(t[2], theta))


# ---------------------------------------------------------------------------
# the table

def table(calc: CalculusId) -> tuple:
    """calc's rows in rank order, and their discrimination tree: a node
    maps a symbol to its child, and a leaf is a list of rows."""
    built = _TABLES.get(calc)
    if built is None:
        built = _TABLES[calc] = _build(calc)
    return built


def _build(calc: CalculusId) -> tuple:
    rows = [Row(_pattern(s.pattern), len(s.metavariables), s, rank)
            for rank, s in enumerate(calc.schemes)]
    by_size = {1: rows[:]}
    seen = {row.theorem for row in rows}
    for n in range(3, SIZES[calc] + 1, 2):
        level = by_size[n] = []
        for m in range(1, n - 1, 2):
            minors = [(minor, _apart(minor.theorem)) for minor in by_size[n - 1 - m]]
            for major in by_size[m]:
                if major.theorem[0] is not Impl:
                    continue
                antecedent, consequent = major.theorem[1], major.theorem[2]
                for minor, apart in minors:
                    # a clash at the root, the commonest failure, costs no call
                    if type(antecedent) is not int and antecedent[0] is not apart[0]:
                        continue
                    s: dict = {}
                    if not _unify(antecedent, apart, s):
                        continue
                    names: dict = {}
                    theorem = _canon(consequent, s, names)
                    if theorem in seen:
                        continue
                    seen.add(theorem)
                    level.append(Row(theorem, names[None] + 1, (major, minor),
                                     len(rows)))
                    rows.append(level[-1])
    # rows go in rank order, so each leaf's list is sorted
    tree: dict = {}
    for row in rows:
        *inner, last = _path(row.theorem)
        node = tree
        for symbol in inner:
            node = node.setdefault(symbol, {})
        node.setdefault(last, []).append(row)
    return rows, tree


def _path(t) -> list:
    """t's first DEPTH symbols in preorder, _ANY for a metavariable."""
    path, todo = [], [t]
    while todo and len(path) < DEPTH:
        t = todo.pop()
        if type(t) is int:
            path.append(_ANY)
        else:
            path.append(t[0])
            todo += (t[2], t[1])
    return path


def first_row(calc: CalculusId, goal: Formula):
    """The first row in rank order of which goal is an instance, or None."""
    best = None
    # a tree node, and the subformulas of goal it has yet to read, next
    # first, as nested pairs
    todo = [(table(calc)[1], (goal, None))]
    while todo:
        node, rest = todo.pop()
        if type(node) is list:   # a leaf: its first match, if it beats best
            for row in node:
                if best is not None and row.rank > best.rank:
                    break
                if _match(row.theorem, goal, [None] * row.arity):
                    best = row
                    break
            continue
        g, rest = rest
        child = node.get(_ANY)
        if child is not None:
            todo.append((child, rest))
        child = node.get(type(g))
        if child is not None:
            todo.append((child, (g.left, (g.right, rest))))
    return best


def _emit(b: ProofBuilder, row: Row, goal: Formula) -> int:
    dterm = row.dterm
    if type(dterm) is SchemeId:
        return b._add(AxiomStep(dterm, goal))
    theta = [None] * row.arity
    _match(row.theorem, goal, theta)
    cut = _instance(row.cut(), theta)
    major, minor = dterm
    return b.mp(_emit(b, major, Impl(cut, goal)), _emit(b, minor, cut))


def emit(calc: CalculusId, row: Row, goal: Formula, hypotheses=()) -> Derivation:
    """row's proof of goal, an instance of its theorem, declaring
    hypotheses and citing none of them (unchecked)."""
    b = ProofBuilder(calc)
    return b.build(conclusion=_emit(b, row, goal), hypotheses=hypotheses)


def derive(calc: CalculusId, hypotheses, goal: Formula):
    """emit of the first row goal instantiates, or None if there is none."""
    row = first_row(calc, goal)
    return None if row is None else emit(calc, row, goal, hypotheses)
