"""Spans around calls into posprop's modules, recorded by the benchmark.

Each traced function is wrapped where another module (or the benchmark)
imports it, e.g. ``kalmar.verify`` or ``proofio.pretty``, never in its own
module when it calls itself recursively, so ``pretty`` and ``parse`` give
one span per top-level call.  A span is [name, start, end, parent, op];
spans are kept in memory and written once, at the end.  A span's self
time is its duration minus the time of its child spans; calls into
untraced helpers count toward the caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.child_s: list = []      # per span: time covered by its children
        self.stack: list = []
        self.op = -1                 # current op id; -1 outside ops
        self.counts: dict = defaultdict(float)

    def wrap(self, name: str, fn, extra=None):
        spans, child_s, stack, counts = self.spans, self.child_s, self.stack, self.counts
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op < 0:        # outside the timed phase
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, tracer.op]
            spans.append(span)
            child_s.append(0.0)
            stack.append(index)
            start = span[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = _perf()
                stack.pop()
                if parent >= 0:
                    child_s[parent] += end - start
            if extra is not None:
                extra(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites) -> None:
        """sites: (owner, attribute, span name, extra) tuples; the owner is
        a module, a class or the benchmark's API table."""
        for owner, attr, name, extra in sites:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), extra))

    def summary(self) -> dict:
        """Per span name: calls, self and total seconds; per layer (the
        name's first component): self seconds."""
        by_name: dict = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer: dict = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, self.child_s):
            entry = by_name[name]
            entry[0] += 1
            entry[1] += end - start - covered
            entry[2] += end - start
            by_layer[name.split(".")[0]] += end - start - covered
        return {"names": dict(by_name), "layers": dict(by_layer)}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


# ---------------------------------------------------------------------------
# what to wrap, and the counts recorded at each boundary

def _steps_of_arg(key):
    def extra(counts, args, result):
        counts[key] += len(args[0])
    return extra


def _in_out(prefix):
    def extra(counts, args, result):
        counts[prefix + ".in"] += len(args[0])
        counts[prefix + ".out"] += len(result)
    return extra


def _result_len(key, attr=None):
    def extra(counts, args, result):
        counts[key] += len(getattr(result, attr) if attr else result)
    return extra


def _tautology(counts, args, result):
    counts["semantics.tautologies"] += result is None


def _decompose_steps(counts, args, result):
    pair = result.equivalence
    counts["transform.decompose.steps"] += len(pair.forward) + len(pair.backward)


def sites(pp, api) -> list:
    """Every wrap site: posprop's public functions where the other modules
    (and the benchmark, through `api`) call them."""
    kalmar, tactics, transform = pp.kalmar, pp.tactics, pp.transform
    proofio, cli = pp.proofio, pp.cli
    out = [
        (api, "prove", "kalmar.prove", None),
        (api, "prove_I", "transform.prove_I", None),
        (api, "prove_P_reduction", "transform.prove_P_reduction", None),
        (api, "write_text", "proofio.write_text", _result_len("proofio.write_text.bytes")),
        (api, "cli_main", "cli.main", None),
        (proofio, "parse", "formula.parse", None),
        (proofio, "pretty", "formula.pretty", None),
        (cli, "pretty", "formula.pretty", None),
        (cli, "read_text", "proofio.read_text", _steps_of_arg("proofio.read_text.bytes")),
        (cli, "check", "kernel.check", _steps_of_arg("kernel.check.steps")),
        (kalmar, "find_countermodel", "semantics.find_countermodel", _tautology),
        (transform, "find_countermodel", "semantics.find_countermodel", _tautology),
        (kalmar, "verify", "kernel.verify", _steps_of_arg("kernel.verify.steps")),
        (tactics, "verify", "kernel.verify", _steps_of_arg("kernel.verify.steps")),
        (transform, "verify", "kernel.verify", _steps_of_arg("kernel.verify.steps")),
        (kalmar, "prune", "kernel.prune", _in_out("kernel.prune")),
        (tactics, "_prune", "kernel.prune", _in_out("kernel.prune")),
        (kalmar, "hypothesis", "kernel.hypothesis", None),
        (tactics.ProofBuilder, "build", "tactics.build", None),
        (tactics.ProofBuilder, "include", "tactics.include", None),
        (kalmar, "deduction", "tactics.deduction", _in_out("tactics.deduction")),
        (kalmar, "_deduction_body", "tactics.deduction", _in_out("tactics.deduction")),
        (transform, "deduction", "tactics.deduction", _in_out("tactics.deduction")),
        (transform, "_discharge", "tactics.deduction", _in_out("tactics.deduction")),
        (kalmar, "build_line", "kalmar.build_line",
         _result_len("kalmar.build_line.steps", "derivation")),
        (kalmar, "eliminate", "kalmar.eliminate", _result_len("kalmar.eliminate.steps")),
        (transform, "prove", "kalmar.prove", None),
        (transform, "decompose", "transform.decompose", _decompose_steps),
        (transform, "translate_derivation", "transform.translate", _in_out("transform.translate")),
    ]
    for module in (kalmar, transform):
        for attr in ("_compose", "_elim", "_inject", "_identity", "compose_pairs",
                     "substitute_equivalents", "conjoin", "reflexive_pair",
                     "as_derivability", "conj_reassociation"):
            if hasattr(module, attr):
                out.append((module, attr, "tactics.combinators", None))
        for attr in dir(module):
            if attr.startswith(("l2_", "l5_")):
                out.append((module, attr, "tactics.lemma", None))
    return out
