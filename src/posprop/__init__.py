"""posprop: proof objects and constructive completeness for the positive
propositional calculi I, ID, IC and P."""

from .formula import (Atom, Conj, Disj, Formula, Impl, ParseError, parse,
                      pretty)
from .kernel import (AxiomStep, CalculusId, CheckError, Derivation, HypStep,
                     MPStep, SchemeId, StepError, check, verify)
from .kalmar import NotTautology, derive_from_hypotheses, prove
from .semantics import evaluate, find_countermodel, is_tautology
from .tactics import TacticError, deduction

__all__ = [
    "Atom", "Conj", "Disj", "Formula", "Impl", "ParseError",
    "parse", "pretty",
    "AxiomStep", "CalculusId", "CheckError", "Derivation", "HypStep",
    "MPStep", "SchemeId", "StepError", "check", "verify",
    "NotTautology", "derive_from_hypotheses", "prove",
    "evaluate", "find_countermodel", "is_tautology",
    "TacticError", "deduction",
]
