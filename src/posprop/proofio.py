"""Proof file format: line-oriented text, with a JSON mirror.

    calculus: ID
    hyp: p1 -> p2
    1. axiom Ax1 p1 -> p2 -> p1
    2. hyp p1 -> p2
    3. mp 1 2 p2 -> p1

Step numbers are 1-based.  `mp i j` cites the implication (major) first.
Both formats spell a step as the same record: its kind, its operands, then
its formula (`axiom Ax1 F`, `hyp F`, `mp i j F`).  A JSON step is that
record as an object whose keys are the kind's field names in `_FIELDS`.
Every fault in a file, an unparsable formula, an over-long or non-ASCII
number and too deep a nesting included, is a ProofFormatError.
Serialization is canonical: hypotheses sorted by R, formulas printed with
minimal parentheses, so write(read(text)) == text for emitted files.
"""

from __future__ import annotations

import json
import re

from .formula import parse, pretty, r_key
from .kernel import (AxiomStep, CalculusId, Derivation, HypStep, MPStep,
                     SchemeId)


class ProofFormatError(ValueError):
    pass


_FIELDS = {"axiom": ("kind", "scheme", "formula"), "hyp": ("kind", "formula"),
           "mp": ("kind", "major", "minor", "formula")}

_STEP_RE = re.compile(r"([0-9]+)\. (axiom|hyp|mp) (.+)$")


def _record(step, memo: dict) -> tuple:
    """A step as its record: kind, operands (1-based step numbers), formula
    (printed through `memo`)."""
    if isinstance(step, MPStep):
        return "mp", step.major + 1, step.minor + 1, pretty(step.formula, memo)
    if isinstance(step, AxiomStep):
        return "axiom", str(step.scheme), pretty(step.formula, memo)
    if isinstance(step, HypStep):
        return "hyp", pretty(step.formula, memo)
    raise ProofFormatError(f"unknown step {step!r}")


def _step(record: tuple):
    """The step a record spells; `_assemble` reports a bad field."""
    kind, formula = record[0], parse(record[-1])
    if kind == "hyp":
        return HypStep(formula)
    if kind == "axiom":
        return AxiomStep(SchemeId(record[1]), formula)
    major, minor = record[1], record[2]
    if type(major) is not int or type(minor) is not int:
        raise ProofFormatError(f"non-integer step number in {record}")
    return MPStep(major - 1, minor - 1, formula)


def _assemble(fields, text: str) -> Derivation:
    """The derivation whose calculus name, hypothesis formulas and step
    records are `fields(text)`; every fault in them is a ProofFormatError."""
    try:
        name, hypotheses, records = fields(text)
        calculus = CalculusId.__members__.get(name)
        if calculus is None:
            raise ProofFormatError(f"unknown calculus {name!r}")
        return Derivation(calculus, frozenset(map(parse, hypotheses)),
                          tuple(map(_step, records)))
    except ValueError as exc:  # also a ProofFormatError raised above
        raise ProofFormatError(str(exc)) from exc
    except (KeyError, TypeError) as exc:
        raise ProofFormatError(f"malformed proof document: {exc}") from exc
    except RecursionError:
        raise ProofFormatError("input nested too deeply") from None


def _fields(d: Derivation) -> tuple:
    """The calculus name, hypotheses (sorted by R) and step records; one
    memo serves the whole derivation, so each distinct subformula is
    printed once."""
    memo: dict = {}
    return (str(d.calculus),
            [pretty(h, memo) for h in sorted(d.hypotheses, key=r_key)],
            [_record(step, memo) for step in d.steps])


def write_text(d: Derivation) -> str:
    calculus, hypotheses, records = _fields(d)
    lines = [f"calculus: {calculus}", *(f"hyp: {h}" for h in hypotheses)]
    for n, record in enumerate(records, start=1):
        lines.append(f"{n}. " + " ".join(map(str, record)))
    return "\n".join(lines) + "\n"


def _text_fields(text: str) -> tuple:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("calculus: "):
        raise ProofFormatError("missing 'calculus:' header")
    idx = 1
    while idx < len(lines) and lines[idx].startswith("hyp: "):
        idx += 1
    records = []
    for ln in lines[idx:]:
        m = _STEP_RE.match(ln.strip())
        if m:
            arity = len(_FIELDS[m[2]]) - 1  # operands and formula
            parts = m[3].split(" ", arity - 1)
        if not m or len(parts) != arity:
            raise ProofFormatError(f"malformed step line: {ln!r}")
        if int(m[1]) != len(records) + 1:
            raise ProofFormatError(
                f"step numbered {int(m[1])}, expected {len(records) + 1}")
        records.append((m[2], *[int(v) if v.isascii() and v.isdecimal()
                                else v for v in parts[:-1]], parts[-1]))
    return (lines[0][len("calculus: "):].strip(),
            [ln[len("hyp: "):] for ln in lines[1:idx]], records)


def read_text(text: str) -> Derivation:
    return _assemble(_text_fields, text)


def to_json(d: Derivation) -> str:
    calculus, hypotheses, records = _fields(d)
    steps = [dict(zip(_FIELDS[r[0]], r)) for r in records]
    return json.dumps({"calculus": calculus, "hypotheses": hypotheses,
                       "steps": steps}, indent=2) + "\n"


def _json_fields(text: str) -> tuple:
    doc = json.loads(text)
    if type(doc["hypotheses"]) is not list or type(doc["steps"]) is not list:
        raise ProofFormatError("hypotheses and steps must be lists")
    return doc["calculus"], doc["hypotheses"], [
        tuple(map(step.__getitem__, _FIELDS[step["kind"]]))
        for step in doc["steps"]]


def from_json(text: str) -> Derivation:
    return _assemble(_json_fields, text)
