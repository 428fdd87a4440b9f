"""The constructive completeness engine.

For a fixed assignment each subformula gets a "line": from the true atoms,
derive the formula's positive encoding (when true) or negative encoding
(when false) over the false atoms.  Lines are built by structural
recursion (the lemma_3_* / lemma_4_* constructors below, which carry
each encoding into the next by the tactics router, _into and _reroute;
no constructor picks an Ax4/Ax5 step itself, so Lemma 3.4 is _close, a
_reroute, of a true disjunct's line).  eliminate then merges them down
a decision tree that splits on the atoms, greatest first in the order R:
each inner node discharges its atom from the true child by the deduction
theorem into the false child's builder and joins the two by case analysis,
so the atoms are eliminated least first in the order R.

Both levels build only what the proof cites.  A node whose true child
never cites the split atom returns that child and builds no false
subtree, one whose false child has a line proving its goal returns that
line, and neither builds a discharge or join.  A line target that
instantiates a row of the principal-theorem table (see principal) is
that row's proof, which cites no atom (a false atom's line p -> p is the
identity row, so only a true atom is a hypothesis); a node goal that
instantiates a row is the target of its all-true leaf, and comes up
through its true children (Peirce's law ((p1 -> p2) -> p1) -> p1 is one
Ax3 step, and p1 -> p1 the 5-step identity proof).

The constructors, build_line, eliminate and synthesize return unchecked
derivations; prove and derive_from_hypotheses run the kernel checker once
on their result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (Atom, Conj, Disj, Formula, Impl, atoms_of, delta_set,
                      disj_chain, gamma_set, pos_encode, neg_encode, r_sorted)
# `deduction`, `_deduction_body` and `prune` are not called here; they stay
# bound as kalmar attributes for the per-module tracer in perfbench/spans.py
from .kernel import CalculusId, Derivation, HypStep, SchemeId, verify
from .principal import derive
from .semantics import evaluate, find_countermodel
from .tactics import (ProofBuilder, TacticError, _compose, _conj_intro,
                      _deduction_body, _into, _prune as prune, _reroute, _route,
                      deduction, hypothesis, l2_13, l2_17, l2_25)


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


def _line_target(v: dict, f: Formula) -> Formula:
    """What f's line concludes: (Delta[v;f])^f if v makes f true, else
    (Delta[v;f])^~f."""
    delta = delta_set(v, f)
    return pos_encode(delta, f) if evaluate(v, f) else neg_encode(delta, f)


def _close(b: ProofBuilder, v: dict, premise: int, whole: Formula) -> int:
    """From the line c_chain v whole, c_chain the chain of the false atoms
    of whole, the line (Delta[v;whole])^whole."""
    return _reroute(b, premise, pos_encode(delta_set(v, whole), whole))


def lemma_3_1(v: dict, a: Formula, bf: Formula, db: Derivation) -> Derivation:
    """(Delta[v;B])^B ⊢ (Delta[v;A->B])^(A->B), for v(B) = T."""
    if not evaluate(v, bf):
        raise TacticError("3.1 needs the consequent true")
    imp = Impl(a, bf)
    target = pos_encode(delta_set(v, imp), imp)
    b = ProofBuilder(db.calculus)
    premise = b.include(db)
    ax1 = b.axiom(SchemeId.AX1, A=bf, B=a)         # B -> (A -> B)
    out = _reroute(b, premise, target, {bf: _into(b, ax1, target)})
    return b.build(conclusion=out, hypotheses=db.hypotheses)


def lemma_3_2(v: dict, a: Formula, bf: Formula, da: Derivation) -> Derivation:
    """(Delta[v;A])^~A ⊢ (Delta[v;A->B])^(A->B), for v(A) = F."""
    if evaluate(v, a):
        raise TacticError("3.2 needs the antecedent false")
    imp = Impl(a, bf)
    c_chain = disj_chain(r_sorted(delta_set(v, imp)))
    b = ProofBuilder(da.calculus)
    a_c = _into(b, b.include(da), c_chain)         # a -> c_chain
    split = b.include(l2_13(a, c_chain, bf, da.calculus),
                      hyp_map={Impl(a, c_chain): a_c})  # c_chain v (a -> b)
    return b.build(conclusion=_close(b, v, split, imp),
                   hypotheses=da.hypotheses)


def lemma_3_3(v: dict, a: Formula, bf: Formula, da: Derivation,
              db: Derivation) -> Derivation:
    """(Delta[v;A])^A, (Delta[v;B])^~B ⊢ (Delta[v;A->B])^~(A->B), v(B) = F."""
    if evaluate(v, bf):
        raise TacticError("3.3 needs the consequent false")
    c_chain = disj_chain(r_sorted(delta_set(v, Impl(a, bf))))
    b = ProofBuilder(da.calculus)
    cva = _reroute(b, b.include(da), Disj(c_chain, a))
    b_c = _into(b, b.include(db), c_chain)         # b -> c_chain
    out = b.include(l2_17(c_chain, a, bf, da.calculus),
                    hyp_map={Disj(c_chain, a): cva, Impl(bf, c_chain): b_c})
    return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)


def lemma_3_4(v: dict, a: Formula, bf: Formula, d: Derivation) -> Derivation:
    """(Delta[v;X])^X ⊢ (Delta[v;A v B])^(A v B), X a true disjunct; d is
    X's line."""
    if not (evaluate(v, a) or evaluate(v, bf)):
        raise TacticError("3.4 needs a true disjunct")
    b = ProofBuilder(d.calculus)
    return b.build(conclusion=_close(b, v, b.include(d), Disj(a, bf)),
                   hypotheses=d.hypotheses)


def lemma_3_5(v: dict, a: Formula, bf: Formula, da: Derivation,
              db: Derivation) -> Derivation:
    """(Delta[v;A])^~A, (Delta[v;B])^~B ⊢ (Delta[v;A v B])^~(A v B)."""
    if evaluate(v, a) or evaluate(v, bf):
        raise TacticError("3.5 needs both disjuncts false")
    c_chain = disj_chain(r_sorted(delta_set(v, Disj(a, bf))))
    b = ProofBuilder(da.calculus)
    leaves = {a: _into(b, b.include(da), c_chain),
              bf: _into(b, b.include(db), c_chain)}
    out = _route(b, Disj(a, bf), c_chain, leaves)
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
        out = _conj_intro(b, b.include(da), b.include(db))
        return b.build(conclusion=out, hypotheses=da.hypotheses | db.hypotheses)
    c_chain = disj_chain(r_sorted(delta))
    cva = _reroute(b, b.include(da), Disj(c_chain, a))
    cvb = _reroute(b, b.include(db), Disj(c_chain, bf))
    packed = _conj_intro(b, cva, cvb)
    back = l2_25(c_chain, a, bf, da.calculus).backward
    undistributed = b.include(back, hyp_map={b.formula_at(packed): packed})
    return b.build(conclusion=_close(b, v, undistributed, conj),
                   hypotheses=da.hypotheses | db.hypotheses)


def lemma_4_2(v: dict, a: Formula, bf: Formula, d: Derivation) -> Derivation:
    """(Delta[v;X])^~X ⊢ (Delta[v;A&B])^~(A&B), X the first false conjunct;
    d is X's line."""
    scheme = SchemeId.AX8 if evaluate(v, a) else SchemeId.AX7
    if scheme is SchemeId.AX8 and evaluate(v, bf):
        raise TacticError("4.2 needs a false conjunct")
    c_chain = disj_chain(r_sorted(delta_set(v, Conj(a, bf))))
    b = ProofBuilder(d.calculus)
    x_c = _into(b, b.include(d), c_chain)           # X -> c_chain
    proj = b.axiom(scheme, A=a, B=bf)               # A & B -> X
    return b.build(conclusion=_compose(b, proj, x_c), hypotheses=d.hypotheses)


# ---------------------------------------------------------------------------
# the main induction and the hypothesis elimination

def build_line(v: dict, a: Formula, calc: CalculusId) -> LineCertificate:
    """The per-assignment certificate: from the true atoms of a, derive the
    positive encoding of a (if v makes a true) or the negative one.  The
    line of a subformula whose own target instantiates a row of calc's
    principal-theorem table is that row's proof, with the subformula's
    true atoms as its hypotheses and citing none of them.  The
    certificate's derivation is unchecked."""
    if calc not in (CalculusId.ID, CalculusId.P):
        raise TacticError(f"line construction runs in ID or P, not {calc}")
    if not calc.admits(a):
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
        tabled = derive(calc, gamma_set(v, f), _line_target(v, f))
        if tabled is not None:
            return tabled
        if isinstance(f, Atom):   # true: a false atom's p -> p is a row
            return hypothesis(calc, f)
        if isinstance(f, Impl):
            if evaluate(v, f.right):
                return lemma_3_1(v, f.left, f.right, rec(f.right))
            if not evaluate(v, f.left):
                return lemma_3_2(v, f.left, f.right, rec(f.left))
            return lemma_3_3(v, f.left, f.right, rec(f.left), rec(f.right))
        left = evaluate(v, f.left)
        if isinstance(f, Disj):
            if left or evaluate(v, f.right):
                return lemma_3_4(v, f.left, f.right,
                                 rec(f.left if left else f.right))
            return lemma_3_5(v, f.left, f.right, rec(f.left), rec(f.right))
        # conjunction: the positive-calculus extension
        if left and evaluate(v, f.right):
            return lemma_4_1(v, f.left, f.right, rec(f.left), rec(f.right))
        return lemma_4_2(v, f.left, f.right, rec(f.right if left else f.left))

    gamma = gamma_set(v, a)  # before rec(a): names an atom v misses
    d = Derivation(calc, gamma, rec(a).steps)  # hypotheses exactly Gamma
    expected = _line_target(v, a)
    if d.conclusion != expected:
        raise TacticError(
            f"line construction produced {d.conclusion}, expected {expected}")
    return LineCertificate(a, {atom.index: v[atom.index] for atom in atoms_of(a)},
                           "positive" if evaluate(v, a) else "negative", d)


# derivations are immutable and formulas interned, so per-(calculus,
# subformula, restricted-assignment) line derivations can be shared
# across build_line calls
_LINE_CACHE: dict = {}
_LINE_CACHE_LIMIT = 200_000


def eliminate(a: Formula, calc: CalculusId) -> Derivation:
    """Merge the per-assignment lines of a tautology a into a closed
    derivation of a, down a decision tree over its atoms.

    A node fixes the atoms above some atom B in the order R and splits on
    B, so a leaf fixes every atom and is build_line's line: (J)^a from the
    true atoms, J the false ones.  With J the node's false atoms, the
    B-false child, B v (J)^a (B is R-least in J + B), is spliced into the
    node's one builder, the B-true child is discharged by DT into it to
    B -> (J)^a, reusing the false child's lines (none cites B), and 2.18's
    case split, routed in place, resolves the two into (J)^a from the
    node's true atoms: the first line of (J)^a its builder holds.

    Only what the proof cites is built.  The B-true child comes first; if
    it never cites B (builders prune, so a hypothesis line present is a
    cited one), it is the node's result, with no false subtree, discharge
    or join.  Nor is there a discharge or join when a line of the B-false
    child is (J)^a.  A goal (J)^a that instantiates a row of the
    principal-theorem table is also the all-true leaf's line, the row's
    proof citing no atom, which each true child passes up unchanged.  The
    result is unchecked.
    """
    ordered = r_sorted(atoms_of(a))

    def node(k: int, v: dict) -> Derivation:
        # v fixes ordered[k:]; split on ordered[k - 1]
        if k == 0:
            return build_line(v, a, calc).derivation
        b1 = ordered[k - 1]
        d_true = node(k - 1, {**v, b1.index: True})     # x from b1
        if HypStep(b1) not in d_true.steps:
            return Derivation(calc, d_true.hypotheses - {b1}, d_true.steps)
        x = d_true.conclusion
        b = ProofBuilder(calc)
        i_false = b.include(node(k - 1, {**v, b1.index: False}))  # b1 v x
        if x not in b._by_formula:   # 2.18, in place; b1 -> x by DT
            _reroute(b, i_false, x, {b1: b.discharge(d_true, b1)})
        return b.build(conclusion=b._by_formula[x],
                       hypotheses=d_true.hypotheses - {b1})

    return node(len(ordered), {})


def prove(a: Formula, calc: CalculusId) -> Derivation:
    """Checked closed derivation of a tautology a in ID or P (the direct
    route); raises NotTautology with the first countermodel otherwise."""
    return verify(synthesize(a, calc))


def synthesize(a: Formula, calc: CalculusId) -> Derivation:
    """prove without the final check, for callers that check the proof
    themselves (or something built from it) at their own boundary."""
    if calc not in (CalculusId.ID, CalculusId.P):
        raise TacticError(f"direct synthesis runs in ID or P, not {calc}")
    if not calc.admits(a):
        raise TacticError(f"{a} outside the {calc} fragment")
    countermodel = find_countermodel(a)
    if countermodel is not None:
        raise NotTautology(countermodel)
    return eliminate(a, calc)


def derive_from_hypotheses(hyps, a: Formula, calc: CalculusId) -> Derivation:
    """Checked K ⊢ a whenever K semantically entails a: synthesize the chain
    h1 -> ... -> hn -> a, a tautology exactly when K entails a (with the
    same first countermodel), and peel it by MP against each hypothesis.
    Only the result is checked, not the closed proof of the chain."""
    hyps = list(hyps)
    chained = a
    for h in reversed(hyps):
        chained = Impl(h, chained)
    b = ProofBuilder(calc)
    cur = b.include(synthesize(chained, calc))
    for h in hyps:
        cur = b.mp(cur, b.hyp(h))
    return verify(b.build(conclusion=cur, hypotheses=set(hyps)))
