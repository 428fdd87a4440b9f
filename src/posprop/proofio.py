"""Proof file format: line-oriented text, with a JSON mirror.

    calculus: ID
    hyp: p1 -> p2
    1. axiom Ax1 p1 -> p2 -> p1
    2. hyp p1 -> p2
    3. mp 1 2 p2 -> p1

Step numbers are 1-based.  `mp i j` cites the implication (major) first.
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


_SCHEMES = {s.value: s for s in SchemeId}

_STEP_RE = re.compile(
    r"(\d+)\. (?:axiom (Ax[1-9]) (.+)|hyp (.+)|mp (\d+) (\d+) (.+))$")


def write_text(d: Derivation) -> str:
    lines = [f"calculus: {d.calculus}"]
    for h in sorted(d.hypotheses, key=r_key):
        lines.append(f"hyp: {pretty(h)}")
    for n, step in enumerate(d.steps, start=1):
        if isinstance(step, AxiomStep):
            lines.append(f"{n}. axiom {step.scheme} {pretty(step.formula)}")
        elif isinstance(step, HypStep):
            lines.append(f"{n}. hyp {pretty(step.formula)}")
        elif isinstance(step, MPStep):
            lines.append(f"{n}. mp {step.major + 1} {step.minor + 1} {pretty(step.formula)}")
        else:
            raise ProofFormatError(f"unknown step {step!r}")
    return "\n".join(lines) + "\n"


def read_text(text: str) -> Derivation:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("calculus: "):
        raise ProofFormatError("missing 'calculus:' header")
    name = lines[0][len("calculus: "):].strip()
    try:
        calculus = CalculusId[name]
    except KeyError:
        raise ProofFormatError(f"unknown calculus {name!r}") from None

    hyps = []
    idx = 1
    while idx < len(lines) and lines[idx].startswith("hyp: "):
        hyps.append(parse(lines[idx][len("hyp: "):]))
        idx += 1

    steps = []
    for ln in lines[idx:]:
        m = _STEP_RE.match(ln.strip())
        if m is None:
            raise ProofFormatError(f"malformed step line: {ln!r}")
        number = int(m.group(1))
        if number != len(steps) + 1:
            raise ProofFormatError(f"step numbered {number}, expected {len(steps) + 1}")
        if m.group(2):
            steps.append(AxiomStep(_SCHEMES[m.group(2)], parse(m.group(3))))
        elif m.group(4):
            steps.append(HypStep(parse(m.group(4))))
        else:
            steps.append(MPStep(int(m.group(5)) - 1, int(m.group(6)) - 1,
                                parse(m.group(7))))
    if not steps:
        raise ProofFormatError("no steps")
    return Derivation(calculus, frozenset(hyps), tuple(steps))


def to_json(d: Derivation) -> str:
    doc = {
        "calculus": str(d.calculus),
        "hypotheses": [pretty(h) for h in sorted(d.hypotheses, key=r_key)],
        "steps": [],
    }
    for step in d.steps:
        if isinstance(step, AxiomStep):
            doc["steps"].append({"kind": "axiom", "scheme": str(step.scheme),
                                 "formula": pretty(step.formula)})
        elif isinstance(step, HypStep):
            doc["steps"].append({"kind": "hyp", "formula": pretty(step.formula)})
        else:
            doc["steps"].append({"kind": "mp", "major": step.major + 1,
                                 "minor": step.minor + 1,
                                 "formula": pretty(step.formula)})
    return json.dumps(doc, indent=2) + "\n"


def _step_index(n) -> int:
    """A JSON step number (1-based, a plain integer) as a step index."""
    if type(n) is not int:
        raise ProofFormatError(f"step number {n!r} is not an integer")
    return n - 1


def from_json(text: str) -> Derivation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProofFormatError(f"not a JSON document: {exc}") from exc
    try:
        calculus = CalculusId[doc["calculus"]]
        if type(doc["hypotheses"]) is not list or type(doc["steps"]) is not list:
            raise ProofFormatError("hypotheses and steps must be lists")
        hyps = frozenset(parse(h) for h in doc["hypotheses"])
        steps = []
        for s in doc["steps"]:
            if s["kind"] == "axiom":
                steps.append(AxiomStep(_SCHEMES[s["scheme"]], parse(s["formula"])))
            elif s["kind"] == "hyp":
                steps.append(HypStep(parse(s["formula"])))
            elif s["kind"] == "mp":
                steps.append(MPStep(_step_index(s["major"]), _step_index(s["minor"]),
                                    parse(s["formula"])))
            else:
                raise ProofFormatError(f"unknown step kind {s['kind']!r}")
    except (KeyError, TypeError) as exc:
        raise ProofFormatError(f"malformed proof document: {exc}") from exc
    if not steps:
        raise ProofFormatError("no steps")
    return Derivation(calculus, hyps, tuple(steps))
