"""The constructive completeness engine.

For a fixed assignment each subformula gets a "line": from the true atoms,
derive the formula's positive encoding (when true) or negative encoding
(when false) over the false atoms.  Lines are built by structural
recursion (the lemma_3_* / lemma_4_* constructors below), then the
per-assignment proofs are merged by eliminating atoms pairwise, least
first in the order R, via the deduction theorem and case analysis.

The constructors, build_line, eliminate and synthesize return unchecked
derivations; prove and derive_from_hypotheses run the kernel checker once
on their result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .formula import (Atom, Conj, Disj, Formula, Impl, atoms_of, delta_set,
                      disj_chain, gamma_set, pos_encode, neg_encode, r_sorted)
# `prune` is not called here; it stays bound as kalmar.prune for the
# per-module tracer in perfbench/spans.py
from .kernel import (CalculusId, Derivation, SchemeId, hypothesis, prune,
                     verify)
from .semantics import (entailment_countermodel, evaluate, find_countermodel)
from .tactics import (ProofBuilder, TacticError, _compose, _deduction_body,
                      _elim, _identity, _inject, deduction, l2_5, l2_13,
                      l2_17, l2_18, l2_25)


class NotTautology(ValueError):
    """Raised when synthesis is asked for a non-tautology; carries the
    falsifying assignment."""

    def __init__(self, countermodel: dict):
        self.countermodel = countermodel
        super().__init__(f"not a tautology; countermodel {countermodel}")


@dataclass(frozen=True)
class LineCertificate:
    formula: Formula
    assignment: dict
    polarity: str  # "positive" | "negative"
    derivation: Derivation

    @property
    def encoded(self) -> Formula:
        return self.derivation.conclusion


def _chain_into(b: ProofBuilder, atom_set, target: Formula) -> dict:
    """Lines e -> target for each atom in atom_set (all must be disjuncts
    of target), added in the order R so that the proof does not depend on
    set iteration order."""
    return {atom: _inject(b, atom, target) for atom in r_sorted(atom_set)}


def _premise_to(b: ProofBuilder, premise_index: int, leaves: dict) -> int:
    """MP the included premise line through an Ax6 case split given
    per-disjunct implications into a common target."""
    tree = b.formula_at(premise_index)
    imp = _elim(b, tree, leaves)
    return b.mp(imp, premise_index)


def lemma_3_1(v: dict, a: Formula, bf: Formula, db: Derivation) -> Derivation:
    """(Delta[v;B])^B ⊢ (Delta[v;A->B])^(A->B), for v(B) = T."""
    if not evaluate(v, bf):
        raise TacticError("3.1 needs the consequent true")
    imp = Impl(a, bf)
    target = pos_encode(delta_set(v, imp), imp)
    b = ProofBuilder(db.calculus)
    premise = b.include(db)
    leaves = _chain_into(b, delta_set(v, bf), target)
    ax1 = b.axiom(SchemeId.AX1, A=bf, B=a)         # B -> (A -> B)
    leaves[bf] = _compose(b, ax1, _inject(b, imp, target))
    return b.build(conclusion=_premise_to(b, premise, leaves),
                   hypotheses=db.hypotheses)


def lemma_3_2(v: dict, a: Formula, bf: Formula, da: Derivation) -> Derivation:
    """(Delta[v;A])^~A ⊢ (Delta[v;A->B])^(A->B), for v(A) = F."""
    if evaluate(v, a):
        raise TacticError("3.2 needs the antecedent false")
    imp = Impl(a, bf)
    c_atoms = r_sorted(delta_set(v, imp))
    c_chain = disj_chain(c_atoms)
    target = pos_encode(delta_set(v, imp), imp)
    b = ProofBuilder(da.calculus)
    premise = b.include(da)                         # a -> (its false atoms)
    a_atoms = r_sorted(delta_set(v, a))
    mid = _elim(b, disj_chain(a_atoms), _chain_into(b, a_atoms, c_chain))
    a_c = _compose(b, premise, mid)                 # a -> c_chain
    split = b.include(l2_13(a, c_chain, bf, da.calculus),
                      hyp_map={Impl(a, c_chain): a_c})  # c_chain v (a -> b)
    leaves = _chain_into(b, c_atoms, target)
    pieces = {c_chain: _elim(b, c_chain, leaves), imp: _inject(b, imp, target)}
    out = b.mp(_elim(b, Disj(c_chain, imp), pieces), split)
    return b.build(conclusion=out, hypotheses=da.hypotheses)


def lemma_3_3(v: dict, a: Formula, bf: Formula, da: Derivation,
              db: Derivation) -> Derivation:
    """(Delta[v;A])^A, (Delta[v;B])^~B ⊢ (Delta[v;A->B])^~(A->B), v(B) = F."""
    if evaluate(v, bf):
        raise TacticError("3.3 needs the consequent false")
    imp = Impl(a, bf)
    c_atoms = r_sorted(delta_set(v, imp))
    c_chain = disj_chain(c_atoms)
    b = ProofBuilder(da.calculus)

    # (i) positive side into (c_chain v a)
    chain_or_a = Disj(c_chain, a)
    into_chain = _chain_into(b, delta_set(v, a), c_chain)
    ax4 = b.axiom(SchemeId.AX4, A=c_chain, B=a)
    leaves = {atom: _compose(b, idx, ax4) for atom, idx in into_chain.items()}
    leaves[a] = b.axiom(SchemeId.AX5, A=a, B=c_chain)
    cva = _premise_to(b, b.include(da), leaves)

    # (ii) negative side composed up to b -> c_chain
    b_atoms = r_sorted(delta_set(v, bf))
    mid = _elim(b, disj_chain(b_atoms), _chain_into(b, b_atoms, c_chain))
    b_c = _compose(b, b.include(db), mid)

    # (iii) close with the 2.17 schema
    out = b.include(l2_17(c_chain, a, bf, da.calculus),
                    hyp_map={chain_or_a: cva, Impl(bf, c_chain): b_c})
    return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)


def lemma_3_4(v: dict, a: Formula, bf: Formula, d: Derivation,
              side: str) -> Derivation:
    """(Delta[v;X])^X ⊢ (Delta[v;A v B])^(A v B), X the true disjunct."""
    disj = Disj(a, bf)
    true_part = a if side == "left" else bf
    if not evaluate(v, true_part):
        raise TacticError("3.4 needs the certified disjunct true")
    target = pos_encode(delta_set(v, disj), disj)
    b = ProofBuilder(d.calculus)
    leaves = _chain_into(b, delta_set(v, true_part), target)
    if side == "left":
        intro = b.axiom(SchemeId.AX4, A=a, B=bf)
    else:
        intro = b.axiom(SchemeId.AX5, A=bf, B=a)
    leaves[true_part] = _compose(b, intro, _inject(b, disj, target))
    return b.build(conclusion=_premise_to(b, b.include(d), leaves),
                   hypotheses=d.hypotheses)


def lemma_3_5(v: dict, a: Formula, bf: Formula, da: Derivation,
              db: Derivation) -> Derivation:
    """(Delta[v;A])^~A, (Delta[v;B])^~B ⊢ (Delta[v;A v B])^~(A v B)."""
    if evaluate(v, a) or evaluate(v, bf):
        raise TacticError("3.5 needs both disjuncts false")
    disj = Disj(a, bf)
    c_chain = disj_chain(r_sorted(delta_set(v, disj)))
    b = ProofBuilder(da.calculus)

    def lifted(d: Derivation, part: Formula) -> int:
        part_atoms = r_sorted(delta_set(v, part))
        mid = _elim(b, disj_chain(part_atoms),
                    _chain_into(b, part_atoms, c_chain))
        return _compose(b, b.include(d), mid)

    ax6 = b.axiom(SchemeId.AX6, A=a, B=bf, C=c_chain)
    out = b.mp(b.mp(ax6, lifted(da, a)), lifted(db, bf))
    return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)


def lemma_4_1(v: dict, a: Formula, bf: Formula, da: Derivation,
              db: Derivation) -> Derivation:
    """(Delta[v;A])^A, (Delta[v;B])^B ⊢ (Delta[v;A&B])^(A&B)."""
    if not (evaluate(v, a) and evaluate(v, bf)):
        raise TacticError("4.1 needs both conjuncts true")
    conj = Conj(a, bf)
    delta = delta_set(v, conj)
    b = ProofBuilder(da.calculus)
    if not delta:
        ax9 = b.axiom(SchemeId.AX9, A=a, B=bf)
        out = b.mp(b.mp(ax9, b.include(da)), b.include(db))
        return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)

    c_atoms = r_sorted(delta)
    c_chain = disj_chain(c_atoms)
    target = pos_encode(delta, conj)

    def chain_or(d: Derivation, part: Formula) -> int:
        into_chain = _chain_into(b, delta_set(v, part), c_chain)
        ax4 = b.axiom(SchemeId.AX4, A=c_chain, B=part)
        leaves = {atom: _compose(b, idx, ax4) for atom, idx in into_chain.items()}
        leaves[part] = b.axiom(SchemeId.AX5, A=part, B=c_chain)
        return _premise_to(b, b.include(d), leaves)

    cva, cvb = chain_or(da, a), chain_or(db, bf)
    ax9 = b.axiom(SchemeId.AX9, A=Disj(c_chain, a), B=Disj(c_chain, bf))
    packed = b.mp(b.mp(ax9, cva), cvb)
    distro = l2_25(c_chain, a, bf, da.calculus)     # thesis-form pair
    undistributed = b.mp(b.include(distro.backward), packed)  # c_chain v (a&b)
    pieces = {c_chain: _elim(b, c_chain, _chain_into(b, c_atoms, target)),
              conj: _inject(b, conj, target)}
    out = b.mp(_elim(b, Disj(c_chain, conj), pieces), undistributed)
    return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)


def lemma_4_2(v: dict, a: Formula, bf: Formula, da: Derivation):
    """(Delta[v;A])^~A ⊢ (Delta[v;A&B])^~(A&B) and the B&A variant,
    for v(A) = F."""
    if evaluate(v, a):
        raise TacticError("4.2 needs the certified conjunct false")

    def one(conj: Formula, scheme: SchemeId) -> Derivation:
        c_atoms = r_sorted(delta_set(v, conj))
        c_chain = disj_chain(c_atoms)
        b = ProofBuilder(da.calculus)
        a_atoms = r_sorted(delta_set(v, a))
        mid = _elim(b, disj_chain(a_atoms), _chain_into(b, a_atoms, c_chain))
        a_c = _compose(b, b.include(da), mid)       # a -> c_chain
        proj = b.axiom(scheme, A=conj.left, B=conj.right)  # conj -> a
        return b.build(conclusion=_compose(b, proj, a_c),
                       hypotheses=da.hypotheses)

    return (one(Conj(a, bf), SchemeId.AX7), one(Conj(bf, a), SchemeId.AX8))


# ---------------------------------------------------------------------------
# the main induction and the hypothesis elimination

def build_line(v: dict, a: Formula, calc: CalculusId) -> LineCertificate:
    """The per-assignment certificate: from the true atoms of a, derive the
    positive encoding of a (if v makes a true) or the negative one.  The
    certificate's derivation is unchecked."""
    if calc not in (CalculusId.ID, CalculusId.P):
        raise TacticError(f"line construction runs in ID or P, not {calc}")
    if not calc.fragment.admits(a):
        raise TacticError(f"{a} outside the {calc} fragment")

    def rec(f: Formula) -> Derivation:
        key = (calc, f,
               frozenset((x.index, v[x.index]) for x in atoms_of(f)))
        cached = _LINE_CACHE.get(key)
        if cached is not None:
            return cached
        d = _rec_uncached(f)
        if len(_LINE_CACHE) >= _LINE_CACHE_LIMIT:
            _LINE_CACHE.clear()
        _LINE_CACHE[key] = d
        return d

    def _rec_uncached(f: Formula) -> Derivation:
        if isinstance(f, Atom):
            if v[f.index]:
                return hypothesis(calc, f)
            return l2_5(f, calc)
        if isinstance(f, Impl):
            if evaluate(v, f.right):
                return lemma_3_1(v, f.left, f.right, rec(f.right))
            if not evaluate(v, f.left):
                return lemma_3_2(v, f.left, f.right, rec(f.left))
            return lemma_3_3(v, f.left, f.right, rec(f.left), rec(f.right))
        if isinstance(f, Disj):
            if evaluate(v, f.left):
                return lemma_3_4(v, f.left, f.right, rec(f.left), "left")
            if evaluate(v, f.right):
                return lemma_3_4(v, f.left, f.right, rec(f.right), "right")
            return lemma_3_5(v, f.left, f.right, rec(f.left), rec(f.right))
        # conjunction: the positive-calculus extension
        if evaluate(v, f.left) and evaluate(v, f.right):
            return lemma_4_1(v, f.left, f.right, rec(f.left), rec(f.right))
        if not evaluate(v, f.left):
            return lemma_4_2(v, f.left, f.right, rec(f.left))[0]
        return lemma_4_2(v, f.right, f.left, rec(f.right))[1]

    raw = rec(a)
    gamma = gamma_set(v, a)
    d = Derivation(calc, gamma, raw.steps)  # hypotheses exactly Gamma
    truth = evaluate(v, a)
    expected = (pos_encode(delta_set(v, a), a) if truth
                else neg_encode(delta_set(v, a), a))
    if d.conclusion != expected:
        raise TacticError(
            f"line construction produced {d.conclusion}, expected {expected}")
    return LineCertificate(a, {atom.index: v[atom.index] for atom in atoms_of(a)},
                           "positive" if truth else "negative", d)


# derivations are immutable and formulas interned, so per-(calculus,
# subformula, restricted-assignment) line derivations can be shared
# across build_line calls
_LINE_CACHE: dict = {}
_LINE_CACHE_LIMIT = 200_000


class MissingPartition(ValueError):
    pass


def eliminate(a: Formula, atom_set, leaves: dict,
              calc: CalculusId) -> Derivation:
    """Merge the 2^n per-partition derivations of encoded forms of a into
    a closed derivation of a.  `leaves` maps each frozenset H of true atoms
    (with J the complementary false atoms) to a derivation of (J)^a from H.

    Recursion peels the R-least atom B: for each sub-partition, the
    B-true branch is discharged by DT to B -> (J*)^a, the B-false branch
    already concludes B v (J*)^a, and the two resolve by the 2.18 schema.
    The result is unchecked.
    """
    atom_set = frozenset(atom_set)
    ordered = r_sorted(atom_set)
    current = {}
    for r in range(len(ordered) + 1):
        for combo in combinations(ordered, r):
            h = frozenset(combo)
            j = atom_set - h
            if h not in leaves:
                raise MissingPartition(f"no derivation for true-set {sorted(x.index for x in h)}")
            d = leaves[h]
            expected = pos_encode(j, a)
            if d.conclusion != expected:
                raise TacticError(
                    f"leaf for true-set {sorted(x.index for x in h)} concludes "
                    f"{d.conclusion}, expected {expected}")
            # re-declare hypotheses as exactly H (required by the DT peel)
            current[h] = Derivation(calc, h, d.steps)

    remaining = list(ordered)
    while remaining:
        b1 = remaining.pop(0)
        rest = frozenset(remaining)
        merged = {}
        for r in range(len(remaining) + 1):
            for combo in combinations(remaining, r):
                h_star = frozenset(combo)
                j_star = rest - h_star
                x = pos_encode(j_star, a)
                d_true = current[h_star | {b1}]
                d_false = current[h_star]           # concludes b1 v x
                discharged = _deduction_body(d_true, b1)  # b1 -> x
                b = ProofBuilder(calc)
                i_false = b.include(d_false)
                i_imp = b.include(discharged)
                out = b.include(l2_18(b1, x, calc),
                                hyp_map={Disj(b1, x): i_false, Impl(b1, x): i_imp})
                merged[h_star] = b.build(conclusion=out, hypotheses=h_star)
        current = merged
    return current[frozenset()]


def prove(a: Formula, calc: CalculusId) -> Derivation:
    """Checked closed derivation of a tautology a in ID or P (the direct
    route); raises NotTautology with the first countermodel otherwise."""
    return verify(synthesize(a, calc))


def synthesize(a: Formula, calc: CalculusId) -> Derivation:
    """prove without the final check, for callers that check the proof
    themselves (or something built from it) at their own boundary."""
    if calc not in (CalculusId.ID, CalculusId.P):
        raise TacticError(f"direct synthesis runs in ID or P, not {calc}")
    if not calc.fragment.admits(a):
        raise TacticError(f"{a} outside the {calc} fragment")
    countermodel = find_countermodel(a)
    if countermodel is not None:
        raise NotTautology(countermodel)
    atom_set = atoms_of(a)
    ordered = r_sorted(atom_set)
    leaves = {}
    for r in range(len(ordered) + 1):
        for combo in combinations(ordered, r):
            h = frozenset(combo)
            v = {atom.index: (atom in h) for atom in ordered}
            leaves[h] = build_line(v, a, calc).derivation
    return eliminate(a, atom_set, leaves, calc)


def derive_from_hypotheses(hyps, a: Formula, calc: CalculusId) -> Derivation:
    """Checked K ⊢ a whenever K semantically entails a: prove the
    implication chain over K, then peel it by MP against each hypothesis.
    Only the result is checked, not the closed proof of the chain."""
    hyps = list(hyps)
    for f in hyps + [a]:
        if not calc.fragment.admits(f):
            raise TacticError(f"{f} outside the {calc} fragment")
    countermodel = entailment_countermodel(hyps, a)
    if countermodel is not None:
        raise NotTautology(countermodel)
    chained = a
    for h in reversed(hyps):
        chained = Impl(h, chained)
    b = ProofBuilder(calc)
    cur = b.include(synthesize(chained, calc))
    for h in hyps:
        cur = b.mp(cur, b.hyp(h))
    return verify(b.build(conclusion=cur, hypotheses=set(hyps)))
