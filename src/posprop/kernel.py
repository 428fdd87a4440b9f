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

with the single rule MP: from A -> B and A, infer B.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

from .formula import Conj, Disj, Formula, Fragment, Impl


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


# Scheme patterns as nested tuples: ("mv", name) is a metavariable,
# (node class, lhs, rhs) a connective node.
_A, _B, _C = ("mv", "A"), ("mv", "B"), ("mv", "C")

SCHEME_PATTERNS = {
    SchemeId.AX1: (Impl, _A, (Impl, _B, _A)),
    SchemeId.AX2: (Impl, (Impl, _A, (Impl, _B, _C)),
                   (Impl, (Impl, _A, _B), (Impl, _A, _C))),
    SchemeId.AX3: (Impl, (Impl, (Impl, _A, _B), _A), _A),  # Peirce's law
    SchemeId.AX4: (Impl, _A, (Disj, _A, _B)),
    SchemeId.AX5: (Impl, _A, (Disj, _B, _A)),
    SchemeId.AX6: (Impl, (Impl, _A, _C),
                   (Impl, (Impl, _B, _C), (Impl, (Disj, _A, _B), _C))),
    SchemeId.AX7: (Impl, (Conj, _A, _B), _A),
    SchemeId.AX8: (Impl, (Conj, _A, _B), _B),
    SchemeId.AX9: (Impl, _A, (Impl, _B, (Conj, _A, _B))),
}


def match_scheme(scheme: SchemeId, f: Formula) -> Optional[dict]:
    """Substitution instantiating the scheme to f exactly, or None."""
    subst: dict = {}

    def walk(pattern, g: Formula) -> bool:
        if pattern[0] == "mv":
            name = pattern[1]
            if name in subst:
                return subst[name] == g
            subst[name] = g
            return True
        return (
            isinstance(g, pattern[0])
            and walk(pattern[1], g.left)
            and walk(pattern[2], g.right)
        )

    return subst if walk(SCHEME_PATTERNS[scheme], f) else None


@lru_cache(maxsize=65536)
def _is_instance(scheme: SchemeId, f: Formula) -> bool:
    return match_scheme(scheme, f) is not None


@lru_cache(maxsize=65536)
def _instantiate(scheme: SchemeId, items: tuple) -> Formula:
    subst = dict(items)

    def walk(pattern) -> Formula:
        if pattern[0] == "mv":
            try:
                return subst[pattern[1]]
            except KeyError:
                raise KeyError(f"substitution missing metavariable {pattern[1]}") from None
        return pattern[0](walk(pattern[1]), walk(pattern[2]))

    return walk(SCHEME_PATTERNS[scheme])


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

@dataclass(frozen=True)
class AxiomStep:
    scheme: SchemeId
    formula: Formula


@dataclass(frozen=True)
class HypStep:
    formula: Formula


@dataclass(frozen=True)
class MPStep:
    major: int  # index of the implication
    minor: int  # index of its antecedent
    formula: Formula


Step = Union[AxiomStep, HypStep, MPStep]


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
    means the derivation is good)."""
    errors = []
    fragment = d.calculus.fragment
    forbidden = ~fragment.mask
    steps = d.steps
    hypotheses = d.hypotheses
    for h in hypotheses:
        if h.mask & forbidden:
            errors.append(StepError(-1, "fragment-violation",
                                    f"hypothesis {h} outside {fragment.name}"))
    for i, step in enumerate(steps):
        formula = step.formula
        if formula.mask & forbidden:
            errors.append(StepError(i, "fragment-violation",
                                    f"{formula} outside {fragment.name}"))
            continue
        if type(step) is MPStep:
            if not (0 <= step.major < i and 0 <= step.minor < i):
                errors.append(StepError(i, "forward-reference",
                                        f"MP cites steps {step.major + 1}, {step.minor + 1}"))
                continue
            major = steps[step.major].formula
            minor = steps[step.minor].formula
            if not (type(major) is Impl and major.left is minor
                    and major.right is formula):
                errors.append(StepError(i, "mp-mismatch",
                                        f"{major} and {minor} do not yield {formula}"))
        elif type(step) is AxiomStep:
            if step.scheme not in d.calculus.schemes:
                errors.append(StepError(i, "scheme-not-in-calculus",
                                        f"{step.scheme} not available in {d.calculus}"))
            elif not _is_instance(step.scheme, formula):
                errors.append(StepError(i, "bad-axiom-instance",
                                        f"{formula} does not instantiate {step.scheme}"))
        elif type(step) is HypStep:
            if formula not in hypotheses:
                errors.append(StepError(i, "hypothesis-not-declared",
                                        f"{formula} not among the declared hypotheses"))
        else:
            errors.append(StepError(i, "unknown-step", repr(step)))
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
