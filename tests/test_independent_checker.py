"""posprop against the benchmark's independent reference implementations.

perfbench/reference.py compares formulas as plain tuples, by structure,
and imports nothing from posprop; it is imported here unchanged.  On every
proof of two small sweeps, and on three single-step mutations of each,
kernel.check and the reference checker must return the same verdict.  The
enumerator, the printer and the least calculus CalculusId(f.mask) must
agree with the reference's on every small formula of each calculus's
language, and the parser must read back both the reference's printing
and a fully parenthesized one.
"""

import random
import sys
from pathlib import Path

import pytest

from posprop.formula import Atom, Impl, enumerate_formulas, parse, pretty
from posprop.kalmar import prove
from posprop.kernel import AxiomStep, CalculusId, Derivation, MPStep, check
from posprop.semantics import is_tautology

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import reference  # noqa: E402


def _sweep(max_connectives, atoms, calc):
    return [prove(f, calc) for f in enumerate_formulas(max_connectives, atoms, calc)
            if is_tautology(f)]


SWEEPS = {
    "ID-2-atoms": lambda: _sweep(3, [1, 2], CalculusId.ID),
    "P-3-atoms": lambda: _sweep(2, [1, 2, 3], CalculusId.P),
}


def _reference_ok(d: Derivation) -> bool:
    conclusion = reference.Reader()(d.conclusion)
    return not reference.check_closed_proof(d, str(d.calculus), conclusion)


def _replace(d: Derivation, i: int, step) -> Derivation:
    return Derivation(d.calculus, d.hypotheses, d.steps[:i] + (step,) + d.steps[i + 1:])


def _swap_premises(d, rng):
    mps = [i for i, s in enumerate(d.steps) if type(s) is MPStep]
    if not mps:
        return None
    i = rng.choice(mps)
    s = d.steps[i]
    return _replace(d, i, MPStep(s.minor, s.major, s.formula))


def _other_scheme(d, rng):
    i = rng.choice([i for i, s in enumerate(d.steps) if type(s) is AxiomStep])
    s = d.steps[i]
    schemes = [x for x in d.calculus.schemes if x is not s.scheme]
    return _replace(d, i, AxiomStep(rng.choice(schemes), s.formula))


def _other_formula(d, rng):
    i = rng.randrange(len(d.steps))
    s = d.steps[i]
    f = Impl(Atom(1), s.formula)
    if type(s) is MPStep:
        return _replace(d, i, MPStep(s.major, s.minor, f))
    return _replace(d, i, AxiomStep(s.scheme, f))   # closed: no hyp steps


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_kernel_agrees_with_reference_checker(sweep):
    rng = random.Random(0)
    proofs = SWEEPS[sweep]()
    assert proofs
    rejected = {"swap": 0, "scheme": 0, "formula": 0}
    for d in proofs:
        assert check(d) == [] and _reference_ok(d)
        mutants = {"swap": _swap_premises(d, rng), "scheme": _other_scheme(d, rng),
                   "formula": _other_formula(d, rng)}
        for kind, m in mutants.items():
            if m is None:
                continue
            kernel_ok = not check(m)
            assert kernel_ok == _reference_ok(m), (kind, m)
            rejected[kind] += not kernel_ok
    # swapped premises never fit MP: A is never (A -> B) -> B
    assert rejected["swap"] == sum(1 for d in proofs
                                   if any(type(s) is MPStep for s in d.steps))
    assert rejected["scheme"] > 0 and rejected["formula"] > 0


LANGUAGE_OPS = {
    CalculusId.I: ["->"],
    CalculusId.ID: ["->", "v"],
    CalculusId.IC: ["->", "&"],
    CalculusId.P: ["->", "v", "&"],
}


def _parenthesized(t) -> str:
    """t's concrete syntax with every connective node in parentheses."""
    if t[0] == "p":
        return f"p{t[1]}"
    return f"({_parenthesized(t[1])} {t[0]} {_parenthesized(t[2])})"


# the ids name each calculus's language
@pytest.mark.parametrize("calc", list(CalculusId), ids=[
    "IMPLICATIVE", "IMPLICATIVE_DISJUNCTIVE", "IMPLICATIVE_CONJUNCTIVE",
    "POSITIVE"])
def test_vocabulary_agrees_with_reference(calc):
    formulas = list(enumerate_formulas(3, [1, 2], calc))
    read = reference.Reader()
    tuples = [read(f) for f in formulas]
    expected = reference.enumerate_formulas(3, 2, LANGUAGE_OPS[calc])
    assert tuples == [t for t, _ in expected]
    for f, t in zip(formulas, tuples):
        assert pretty(f) == reference.pretty(t)
        assert parse(reference.pretty(t)) is f
        assert parse(_parenthesized(t)) is f
        present = ["->"] + [op for op in ("v", "&") if reference.has_op(t, op)]
        assert LANGUAGE_OPS[CalculusId(f.mask)] == present
