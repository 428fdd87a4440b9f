"""Classical truth-table semantics by exhaustive assignment enumeration.

Assignments are plain dicts from atom index to bool.  Countermodel search
enumerates assignments over the formula's atoms in R order, all-false
first, so results are deterministic.  This is desk-scale machinery: the
cost is 2^n in the number of atoms.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Optional

from .formula import Atom, Conj, Disj, Formula, Impl, atoms_of, r_sorted

Assignment = Mapping[int, bool]


def evaluate(v: Assignment, f: Formula) -> bool:
    """Classical evaluation; KeyError names any atom v does not cover."""
    if isinstance(f, Atom):
        try:
            return v[f.index]
        except KeyError:
            raise KeyError(f"assignment does not cover atom p{f.index}") from None
    if isinstance(f, Impl):
        return (not evaluate(v, f.left)) or evaluate(v, f.right)
    if isinstance(f, Disj):
        return evaluate(v, f.left) or evaluate(v, f.right)
    if isinstance(f, Conj):
        return evaluate(v, f.left) and evaluate(v, f.right)
    raise TypeError(f"not a formula: {f!r}")


def assignments_over(atoms: Iterable[Atom]) -> Iterator[dict]:
    """All assignments over the given atoms, in lexicographic order with
    atoms in R order and False before True."""
    ordered = r_sorted(set(atoms))
    for values in product((False, True), repeat=len(ordered)):
        yield {a.index: val for a, val in zip(ordered, values)}


def find_countermodel(f: Formula) -> Optional[dict]:
    """First falsifying assignment in enumeration order, or None if f is
    a tautology."""
    for v in assignments_over(atoms_of(f)):
        if not evaluate(v, f):
            return v
    return None


def is_tautology(f: Formula) -> bool:
    return find_countermodel(f) is None


def entailment_countermodel(hyps, f: Formula) -> Optional[dict]:
    """First assignment making every hypothesis true and f false, or None
    if f is a tautological consequence of hyps: the first countermodel of
    the chain h1 -> ... -> hn -> f, over the same atoms."""
    for h in reversed(list(hyps)):
        f = Impl(h, f)
    return find_countermodel(f)


def entails(hyps, f: Formula) -> bool:
    return entailment_countermodel(hyps, f) is None


def format_assignment(v: Assignment) -> str:
    return " ".join(f"p{i}={'T' if v[i] else 'F'}" for i in sorted(v))
