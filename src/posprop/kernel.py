"""The trusted core: calculi, axiom schemes, proof objects and the checker.

Everything outside this module only *constructs* derivations; validity is
established exclusively by `check`.  A Derivation is a flat list of steps
(axiom instance, hypothesis citation, or modus ponens with explicit
backward indices) tagged with a calculus and a declared hypothesis set.

The four calculi:

    I   Ax1-Ax3            implicative fragment
    ID  Ax1-Ax6            implicative-disjunctive fragment
    IC  Ax1-Ax3, Ax7-Ax9   implicative-conjunctive fragment
    P   Ax1-Ax9            full positive fragment

with the single rule MP: from A -> B and A, infer B.  Each axiom scheme
is stated once, in SCHEMES, as the constructor of its instances; builders
call it, and match_scheme reads the instance it builds from distinct atoms.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

from .formula import Atom, Conj, Disj, Formula, Fragment, Impl


class SchemeId(Enum):
    AX1 = "Ax1"
    AX2 = "Ax2"
    AX3 = "Ax3"
    AX4 = "Ax4"
    AX5 = "Ax5"
    AX6 = "Ax6"
    AX7 = "Ax7"
    AX8 = "Ax8"
    AX9 = "Ax9"

    def __str__(self):
        return self.value


# a scheme's parameters are its metavariables
SCHEMES = {
    SchemeId.AX1: lambda A, B: Impl(A, Impl(B, A)),
    SchemeId.AX2: lambda A, B, C: Impl(Impl(A, Impl(B, C)),
                                       Impl(Impl(A, B), Impl(A, C))),
    SchemeId.AX3: lambda A, B: Impl(Impl(Impl(A, B), A), A),  # Peirce's law
    SchemeId.AX4: lambda A, B: Impl(A, Disj(A, B)),
    SchemeId.AX5: lambda A, B: Impl(A, Disj(B, A)),
    SchemeId.AX6: lambda A, B, C: Impl(Impl(A, C),
                                       Impl(Impl(B, C), Impl(Disj(A, B), C))),
    SchemeId.AX7: lambda A, B: Impl(Conj(A, B), A),
    SchemeId.AX8: lambda A, B: Impl(Conj(A, B), B),
    SchemeId.AX9: lambda A, B: Impl(A, Impl(B, Conj(A, B))),
}


def _pattern(build) -> tuple:
    """The instance the scheme's constructor builds from the distinct atoms
    p1, p2, ..., and the metavariable (parameter name) each atom stands for."""
    names = {Atom(i): name for i, name in
             enumerate(inspect.signature(build).parameters, 1)}
    return build(*names), names


_PATTERNS = {scheme: _pattern(build) for scheme, build in SCHEMES.items()}


def _match(p: Formula, g: Formula, names: dict, subst: dict) -> bool:
    if type(p) is Atom:  # hash-consed: a repeat binds the same object
        return subst.setdefault(names[p], g) is g
    return (type(g) is type(p) and _match(p.left, g.left, names, subst)
            and _match(p.right, g.right, names, subst))


def match_scheme(scheme: SchemeId, f: Formula) -> Optional[dict]:
    """Substitution instantiating the scheme to f exactly, or None."""
    pattern, names = _PATTERNS[scheme]
    subst: dict = {}
    return subst if _match(pattern, f, names, subst) else None


@lru_cache(maxsize=65536)
def _is_instance(scheme: SchemeId, f: Formula) -> bool:
    return match_scheme(scheme, f) is not None


@lru_cache(maxsize=65536)
def _instantiate(scheme: SchemeId, items: tuple) -> Formula:
    subst = dict(items)  # a missing metavariable raises KeyError(name)
    names = _PATTERNS[scheme][1].values()
    return SCHEMES[scheme](*(subst[name] for name in names))


def instantiate_scheme(scheme: SchemeId, subst: dict) -> Formula:
    """Substitute formulas for the scheme's metavariables."""
    return _instantiate(scheme, tuple(sorted(subst.items())))


class CalculusId(Enum):
    I = (("AX1", "AX2", "AX3"), Fragment.IMPLICATIVE)
    ID = (("AX1", "AX2", "AX3", "AX4", "AX5", "AX6"),
          Fragment.IMPLICATIVE_DISJUNCTIVE)
    IC = (("AX1", "AX2", "AX3", "AX7", "AX8", "AX9"),
          Fragment.IMPLICATIVE_CONJUNCTIVE)
    P = (("AX1", "AX2", "AX3", "AX4", "AX5", "AX6", "AX7", "AX8", "AX9"),
         Fragment.POSITIVE)

    def __init__(self, schemes, fragment):
        self.schemes = frozenset(SchemeId[s] for s in schemes)
        self.fragment = fragment

    def extends(self, other: "CalculusId") -> bool:
        return other.schemes <= self.schemes and self.fragment.includes(other.fragment)

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


Step = Union[AxiomStep, HypStep, MPStep]
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
    fragment = d.calculus.fragment
    forbidden = ~fragment.mask
    steps = d.steps
    hypotheses = d.hypotheses
    for h in hypotheses:
        if not isinstance(h, _NODE_TYPES):
            errors.append(StepError(-1, "not-a-formula", f"hypothesis {h!r}"))
        elif h.mask & forbidden:
            errors.append(StepError(-1, "fragment-violation",
                                    f"hypothesis {h} outside {fragment.name}"))
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
                                    f"{formula} outside {fragment.name}"))
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
    if proof_log.enabled:
        proof_log.items.append((d.hypotheses, d.conclusion))
    return d


class _ProofLog:
    """Optional recorder of every verified derivation, for the global
    soundness sweep in the test suite.  Off by default.  Records
    (hypotheses, conclusion) pairs — all a semantic audit needs — rather
    than whole step lists, to keep long runs cheap."""

    def __init__(self):
        self.enabled = False
        self.items: list = []


proof_log = _ProofLog()


def hypothesis(calculus: CalculusId, f: Formula) -> Derivation:
    """One-step derivation of f from {f} (unchecked)."""
    return Derivation(calculus, frozenset([f]), (HypStep(f),))


def prune(d: Derivation) -> Derivation:
    """Drop every step the conclusion does not (transitively) cite,
    re-offsetting MP indices.  The declared hypotheses are kept as-is."""
    steps = d.steps
    needed = [False] * len(steps)
    stack = [len(steps) - 1]
    while stack:
        i = stack.pop()
        if needed[i]:
            continue
        needed[i] = True
        s = steps[i]
        if type(s) is MPStep:
            stack.append(s.major)
            stack.append(s.minor)
    if all(needed):
        return d
    remap: dict = {}
    out: list = []
    for i, s in enumerate(steps):
        if not needed[i]:
            continue
        if type(s) is MPStep:
            s = MPStep(remap[s.major], remap[s.minor], s.formula)
        remap[i] = len(out)
        out.append(s)
    return Derivation(d.calculus, d.hypotheses, tuple(out))
