"""The trusted core: calculi, axiom schemes, proof objects and the checker.

Everything outside this module only *constructs* derivations; validity is
established exclusively by `check`.  A Derivation is a flat list of steps
(axiom instance, hypothesis citation, or modus ponens with explicit
backward indices) tagged with a calculus and a declared hypothesis set.

The four calculi:

    I   Ax1-Ax3            ->
    ID  Ax1-Ax6            ->, v
    IC  Ax1-Ax3, Ax7-Ax9   ->, &
    P   Ax1-Ax9            ->, v, &

with the single rule MP: from A -> B and A, infer B.  Each axiom scheme
is stated once, as a SchemeId member carrying the constructor of its
instances; builders call it, and match_scheme reads the instance it builds
from distinct atoms.  A calculus is its connective mask: CalculusId(f.mask)
is the least calculus admitting f, and a calculus has the schemes whose
instances it admits.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

from .formula import Atom, Conj, Disj, Formula, Impl


class SchemeId(Enum):
    """The axiom schemes, each stated once: its label and the constructor
    of its instances, whose parameters are its metavariables.  A member
    also keeps the instance its constructor builds from the distinct atoms
    p1, p2, ... (its pattern) and the metavariable each atom stands for."""

    def __new__(cls, label: str, build):
        member = object.__new__(cls)
        member._value_ = label
        member.build = build
        member.metavariables = {Atom(i): name for i, name in
                                enumerate(inspect.signature(build).parameters, 1)}
        member.pattern = build(*member.metavariables)
        return member

    AX1 = "Ax1", lambda A, B: Impl(A, Impl(B, A))
    AX2 = "Ax2", lambda A, B, C: Impl(Impl(A, Impl(B, C)),
                                      Impl(Impl(A, B), Impl(A, C)))
    AX3 = "Ax3", lambda A, B: Impl(Impl(Impl(A, B), A), A)  # Peirce's law
    AX4 = "Ax4", lambda A, B: Impl(A, Disj(A, B))
    AX5 = "Ax5", lambda A, B: Impl(A, Disj(B, A))
    AX6 = "Ax6", lambda A, B, C: Impl(Impl(A, C),
                                      Impl(Impl(B, C), Impl(Disj(A, B), C)))
    AX7 = "Ax7", lambda A, B: Impl(Conj(A, B), A)
    AX8 = "Ax8", lambda A, B: Impl(Conj(A, B), B)
    AX9 = "Ax9", lambda A, B: Impl(A, Impl(B, Conj(A, B)))

    def __str__(self):
        return self.value


def _match(p: Formula, g: Formula, names: dict, subst: dict) -> bool:
    if type(p) is Atom:  # hash-consed: a repeat binds the same object
        return subst.setdefault(names[p], g) is g
    return (type(g) is type(p) and _match(p.left, g.left, names, subst)
            and _match(p.right, g.right, names, subst))


def match_scheme(scheme: SchemeId, f: Formula) -> Optional[dict]:
    """Substitution instantiating the scheme to f exactly, or None."""
    subst: dict = {}
    return subst if _match(scheme.pattern, f, scheme.metavariables, subst) else None


@lru_cache(maxsize=65536)
def _is_instance(scheme: SchemeId, f: Formula) -> bool:
    return match_scheme(scheme, f) is not None


# not called in the package; perfbench/worker.py reads its cache_info()
@lru_cache(maxsize=65536)
def _instantiate(scheme: SchemeId, items: tuple) -> Formula:
    subst = dict(items)  # a missing metavariable raises KeyError(name)
    return scheme.build(*(subst[name] for name in scheme.metavariables.values()))


class CalculusId(Enum):
    """A calculus is its language: its value is the mask of the connective
    bits its formulas may hold (-> is always allowed), so CalculusId(f.mask)
    is the least calculus admitting f.  Its schemes are those whose pattern
    it admits, in SchemeId order; its name labels it in proof files and on
    the command line."""

    I = Impl.bit
    ID = Disj.bit
    IC = Conj.bit
    P = Disj.bit | Conj.bit

    def __init__(self, mask: int):
        self.mask = mask
        self.schemes = tuple(s for s in SchemeId if self.admits(s.pattern))

    def extends(self, other: "CalculusId") -> bool:
        return other.mask & ~self.mask == 0

    def admits(self, f: Formula) -> bool:
        return f.mask & ~self.mask == 0

    def __str__(self):
        return self.name


# ---------------------------------------------------------------------------
# proof objects

@dataclass(frozen=True, slots=True)
class AxiomStep:
    scheme: SchemeId
    formula: Formula


@dataclass(frozen=True, slots=True)
class HypStep:
    formula: Formula


@dataclass(frozen=True, slots=True)
class MPStep:
    major: int  # index of the implication
    minor: int  # index of its antecedent
    formula: Formula


_STEP_TYPES = (AxiomStep, HypStep, MPStep)
_NODE_TYPES = (Atom, Impl, Disj, Conj)  # the bare Formula base has no mask


@dataclass(frozen=True)
class Derivation:
    calculus: CalculusId
    hypotheses: frozenset
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a derivation needs at least one step")
        object.__setattr__(self, "hypotheses", frozenset(self.hypotheses))
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class StepError:
    index: int  # -1 for derivation-level problems
    code: str
    message: str

    def __str__(self):
        where = "derivation" if self.index < 0 else f"step {self.index + 1}"
        return f"{where}: {self.code}: {self.message}"


class CheckError(ValueError):
    def __init__(self, errors: Sequence[StepError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


def check(d: Derivation) -> list:
    """Full independent validation; returns a list of StepErrors (empty
    means the derivation is good).  A calculus that is not a CalculusId,
    steps of an unknown type, formulas that are not formula nodes and
    non-integer MP indices are reported as errors, not raised."""
    if not isinstance(d.calculus, CalculusId):
        return [StepError(-1, "unknown-calculus", repr(d.calculus))]
    errors = []
    forbidden = ~d.calculus.mask
    steps = d.steps
    hypotheses = d.hypotheses
    for h in hypotheses:
        if not isinstance(h, _NODE_TYPES):
            errors.append(StepError(-1, "not-a-formula", f"hypothesis {h!r}"))
        elif h.mask & forbidden:
            errors.append(StepError(-1, "fragment-violation",
                                    f"hypothesis {h} outside {d.calculus}"))
    for i, step in enumerate(steps):
        kind = type(step)
        if kind not in _STEP_TYPES:
            errors.append(StepError(i, "unknown-step", repr(step)))
            continue
        formula = step.formula
        if not isinstance(formula, _NODE_TYPES):
            errors.append(StepError(i, "not-a-formula", repr(formula)))
            continue
        if formula.mask & forbidden:
            errors.append(StepError(i, "fragment-violation",
                                    f"{formula} outside {d.calculus}"))
            continue
        if kind is MPStep:
            if type(step.major) is not int or type(step.minor) is not int:
                errors.append(StepError(i, "forward-reference",
                                        f"MP cites {step.major!r}, {step.minor!r}"))
                continue
            if not (0 <= step.major < i and 0 <= step.minor < i):
                errors.append(StepError(i, "forward-reference",
                                        f"MP cites steps {step.major + 1}, {step.minor + 1}"))
                continue
            major = getattr(steps[step.major], "formula", None)
            minor = getattr(steps[step.minor], "formula", None)
            if not (type(major) is Impl and major.left is minor
                    and major.right is formula):
                errors.append(StepError(i, "mp-mismatch",
                                        f"{major} and {minor} do not yield {formula}"))
        elif kind is AxiomStep:
            if not (isinstance(step.scheme, SchemeId)
                    and step.scheme in d.calculus.schemes):
                errors.append(StepError(i, "scheme-not-in-calculus",
                                        f"{step.scheme} not available in {d.calculus}"))
            elif not _is_instance(step.scheme, formula):
                errors.append(StepError(i, "bad-axiom-instance",
                                        f"{formula} does not instantiate {step.scheme}"))
        elif formula not in hypotheses:  # a HypStep
            errors.append(StepError(i, "hypothesis-not-declared",
                                    f"{formula} not among the declared hypotheses"))
    return errors


def verify(d: Derivation) -> Derivation:
    """check() or raise; returns d so constructions can end with verify(...)."""
    errors = check(d)
    if errors:
        raise CheckError(errors)
    return d

