"""The four workloads: seeded inputs, the operation, and its verification.

Inputs are generated here as reference tuples (see reference.py) and
handed to posprop as formulas built with its constructors; the seed never
reaches posprop.  Each workload yields a Plan:

    items    the inputs, in op order
    rate     ops per second of --seconds: a run makes a fixed number of
             ops, max(min_ops, rate * seconds), so the work of a run, and
             its step count, is the same on every commit for a given seed
    passes   if set, that number is rounded to whole passes over items
    run      the operation: one call into posprop, given an API table
    verify   checks one op's result against the references, outside the
             timed phase; returns (problems, steps, proof), proof being
             (derivation, calculus, expected conclusion) or None
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

NAMES = ("id-sweep", "atom-scaling", "p-routes", "proof-files")


@dataclass
class Plan:
    items: list
    rate: float
    min_ops: int
    run: Callable
    verify: Callable
    passes: bool = False
    written: dict = field(default_factory=dict)  # proof-files: text bytes per proof

    def ops(self, seconds: float) -> int:
        n = max(self.min_ops, round(self.rate * seconds))
        if self.passes:
            n = len(self.items) * max(1, round(n / len(self.items)))
        return n


def to_formula(t, F):
    """Build the posprop formula for a reference tuple."""
    if t[0] == "p":
        return F.Atom(t[1])
    ctor = {"->": F.Impl, "v": F.Disj, "&": F.Conj}[t[0]]
    return ctor(to_formula(t[1], F), to_formula(t[2], F))


def stratified(groups, rng) -> list:
    """Shuffle each group, then interleave the groups so that every stretch
    of the order holds them in about their overall proportions."""
    keyed = []
    for group in groups:
        group = list(group)
        rng.shuffle(group)
        for rank, item in enumerate(group):
            keyed.append(((rank + rng.random()) / len(group), item))
    keyed.sort(key=lambda kv: kv[0])
    return [item for _, item in keyed]


def check_proof(pp, d, calculus: str, t) -> list:
    """The verification path for one derivation: the reference checker,
    agreement with kernel.check, closedness and the expected conclusion."""
    problems = ref.check_closed_proof(d, calculus, t)
    kernel_ok = not pp.kernel.check(d)
    if kernel_ok != (not problems):
        problems.append(f"kernel.check says {'valid' if kernel_ok else 'invalid'}")
    return problems


# ---------------------------------------------------------------------------
# input families

def chain(n: int):
    """p1 -> p2 -> ... -> pn -> p1."""
    t = ("p", 1)
    for i in range(n, 0, -1):
        t = ("->", ("p", i), t)
    return t


def peirce(n: int):
    """((p1 -> p2 v ... v pn) -> p1) -> p1."""
    tail = ("p", n)
    for i in range(n - 1, 1, -1):
        tail = ("v", ("p", i), tail)
    p1 = ("p", 1)
    return ("->", ("->", ("->", p1, tail), p1), p1)


def excluded_middle(n: int):
    """(p1 v (p1 -> p2)) & ... & (pn v (pn -> p1))."""
    parts = [("v", ("p", i), ("->", ("p", i), ("p", i % n + 1)))
             for i in range(1, n + 1)]
    t = parts[-1]
    for part in reversed(parts[:-1]):
        t = ("&", part, t)
    return t


def random_tree(rng, n_atoms: int, k: int):
    """A random ->/v formula with exactly k connectives over p1..pn."""
    if k == 0:
        return ("p", rng.randint(1, n_atoms))
    left = rng.randint(0, k - 1)
    op = "v" if rng.random() < 1 / 3 else "->"
    return (op, random_tree(rng, n_atoms, left), random_tree(rng, n_atoms, k - 1 - left))


def random_tautologies(rng, n_atoms: int, k: int, count: int, seen: set) -> list:
    """Distinct ->/v tautologies with k connectives using all n atoms."""
    out = []
    while len(out) < count:
        t = random_tree(rng, n_atoms, k)
        if t not in seen and len(ref.atoms(t)) == n_atoms and ref.is_tautology(t):
            seen.add(t)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# workloads


def id_sweep(pp, seed: int) -> Plan:
    """Every ->/v formula over p1, p2 with at most 4 connectives, decided
    and, if a tautology, proved in ID."""
    full = 0b1111
    groups: dict = {}   # by connective count and verdict
    for t, mask in ref.enumerate_formulas(4, 2, ("->", "v")):
        groups.setdefault((ref.connectives(t), mask == full), []).append((t, mask == full))
    order = stratified(groups.values(), random.Random(seed))
    items = [(t, to_formula(t, pp.formula), taut) for t, taut in order]

    def run(api, item):
        try:
            return api.prove(item[1], api.ID)
        except api.NotTautology as exc:
            return exc.countermodel

    def verify(item, out):
        t, _, taut = item
        if not taut:
            if not isinstance(out, dict):
                return ["proved a non-tautology"], 0, None
            if not ref.atoms(t) <= set(out) or ref.evaluate(t, out):
                return [f"countermodel {out} does not falsify {ref.pretty(t)}"], 0, None
            return [], 0, None
        if isinstance(out, dict):
            return [f"countermodel {out} for a tautology"], 0, None
        return check_proof(pp, out, "ID", t), len(out), (out, "ID", t)

    return Plan(items, 200, 110, run, verify)


SCALING_CORE = 180
INPUT_SEED = 20230508   # draws the fixed random inputs; --seed orders them


def atom_scaling(pp, seed: int) -> Plan:
    """Multi-atom tautologies: three families at 3-5 atoms plus random
    ->/v tautologies over exactly 3 and 4 atoms, in seeded order.

    The random tautologies are drawn once, with INPUT_SEED: their proof
    sizes vary enough (4-atom ones up to 12,000 steps) that a
    draw per seed made the run time differ by a third between seeds."""
    rng = random.Random(INPUT_SEED)
    fixed = ([(chain(n), "ID") for n in (3, 4, 5)]
             + [(peirce(n), "ID") for n in (3, 4, 5)]
             + [(excluded_middle(3), "P")])
    seen: set = set()
    # p90 is the 18th op from the top: the 7 fixed ones lead, then this
    # puts it mid-way through the 4-atom ones rather than at an edge
    n4 = 22
    n3 = SCALING_CORE - len(fixed) - n4
    core = fixed + [(t, "ID") for t in
                    random_tautologies(rng, 3, 5, n3, seen)
                    + random_tautologies(rng, 4, 7, n4, seen)]
    random.Random(seed).shuffle(core)
    # continuation for runs longer than the core: the same mix
    more = []
    for _ in range(30):
        more += [(t, "ID") for t in random_tautologies(rng, 3, 5, 9, seen)
                 + random_tautologies(rng, 4, 7, 1, seen)]
    items = [(t, to_formula(t, pp.formula), calc) for t, calc in core + more]

    def run(api, item):
        return api.prove(item[1], api.P if item[2] == "P" else api.ID)

    def verify(item, out):
        return check_proof(pp, out, item[2], item[0]), len(out), (out, item[2], item[0])

    return Plan(items, SCALING_CORE / 20, 110, run, verify)


ROUTES_SAMPLE = 4


def p_routes(pp, seed: int) -> Plan:
    """3-atom positive tautologies with at most 3 connectives: both P
    routes on each formula with &, prove_I on each implicative one.

    The formulas are every ROUTES_SAMPLE-th one, in enumeration order, of
    each group with the same route, connective count and atom count; the
    seed orders them.  Proof sizes here are heavy-tailed (prove_I ranges
    from 1 to 17,000 steps), so a seeded draw would make every seed a
    different amount of work."""
    full = 0xFF
    groups: dict = {}
    for t, mask in ref.enumerate_formulas(3, 3, ("->", "v", "&")):
        if mask != full:
            continue
        if ref.has_op(t, "&"):
            route = "P"
        elif not ref.has_op(t, "v"):
            route = "I"
        else:
            continue
        groups.setdefault((route, ref.connectives(t), len(ref.atoms(t))), []).append(t)
    chosen = [g[ROUTES_SAMPLE // 2::ROUTES_SAMPLE] for g in groups.values()]
    order = stratified([g for g in chosen if g], random.Random(seed))
    items = []
    for t in order:
        f = to_formula(t, pp.formula)
        if ref.has_op(t, "&"):
            items += [(t, f, "direct"), (t, f, "reduction")]
        else:
            items.append((t, f, "I"))

    def run(api, item):
        if item[2] == "direct":
            return api.prove(item[1], api.P)
        if item[2] == "reduction":
            return api.prove_P_reduction(item[1])
        return api.prove_I(item[1])

    def verify(item, out):
        # both P routes must conclude the input, hence agree
        calculus = "I" if item[2] == "I" else "P"
        return check_proof(pp, out, calculus, item[0]), len(out), (out, calculus, item[0])

    return Plan(items, 30, 110, run, verify, passes=True)


FILES_SWEEP_PROOFS = 110


def proof_files(pp, seed: int, workdir: str) -> Plan:
    """A fixed set of ID proofs from 1 to 9,149 steps, in seeded order, each
    written as text and checked by the CLI in-process.  The sweep proofs
    are every k-th sweep tautology; a seeded sample moved the median op
    time by a third between seeds."""
    full = 0b1111
    tautologies = [t for t, mask in ref.enumerate_formulas(4, 2, ("->", "v"))
                   if mask == full]
    stride = len(tautologies) / FILES_SWEEP_PROOFS
    chosen = [tautologies[int((k + 0.5) * stride)] for k in range(FILES_SWEEP_PROOFS)]
    chosen += [chain(3), peirce(3), chain(4)]
    random.Random(seed).shuffle(chosen)
    ID = pp.kernel.CalculusId.ID
    proofs = [(t, pp.kalmar.prove(to_formula(t, pp.formula), ID)) for t in chosen]
    path = os.path.join(workdir, "proof.txt")
    digests: dict = {}
    written: dict = {}

    def run(api, item):
        text = api.write_text(item[1])
        with open(path, "w") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = api.cli_main(["check", path])
        return text, status, out.getvalue()

    def verify(item, out):
        t, d = item
        text, status, printed = out
        problems = []
        expected = (f"ok: {len(d)} steps in ID; hypotheses: (none); "
                    f"conclusion: {ref.pretty(t)}\n")
        if status != 0 or printed != expected:
            problems.append(f"check printed {printed!r} with status {status}")
        digest = hashlib.sha256(text.encode()).digest()
        if id(d) in digests:
            if digests[id(d)] != digest:
                problems.append("text differs from an earlier write")
            return problems, len(d), None
        digests[id(d)] = digest
        written[id(d)] = len(text)
        if text != ref.proof_text(d):
            problems.append("text differs from the reference serialization")
        back = pp.proofio.read_text(text)
        if not ref.same_derivation(back, d):
            problems.append("re-read derivation differs")
        if pp.proofio.write_text(back) != text:
            problems.append("re-serialized text differs")
        problems += check_proof(pp, d, "ID", t)
        return problems, len(d), (d, "ID", t)

    return Plan(proofs, 5.65, 110, run, verify, passes=True, written=written)
