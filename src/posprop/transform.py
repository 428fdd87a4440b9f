"""Normal-form and translation machinery.

gamma: rewriting to a conjunctive normal shape in which & occurs only as
an outer skeleton, driven by four distribution/currying rules, each backed
by a proved equivalence, so a formula reduces to a conjunction of
&-free parts with a derivable two-way bridge.

tau: the embedding of the implicative-disjunctive language into the purely
implicative one, B v C  ~>  (B -> C) -> C, together with a step-by-step
translation of ID derivations into I derivations.

On top of these sit the indirect synthesis routes: prove_I (via ID and
translation), prove_IC and prove_P_reduction (one gamma-decomposition
route with two part provers).  The equivalence builders return unchecked
pairs; translate_derivation and the routes check their result once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (Atom, Conj, Disj, Formula, Impl, conj_chain, replace_at,
                      subformula_at)
from .kernel import (CalculusId, Derivation, MPStep, SchemeId, match_scheme,
                     verify)
# `prove` is not called here; it stays bound as transform.prove for the
# per-module tracer in perfbench/spans.py.  The part provers call
# kalmar.eliminate through its module, where that tracer wraps it.
from . import kalmar
from .kalmar import NotTautology, prove, synthesize
from .semantics import find_countermodel
# `deduction` is not called here; it stays bound as transform.deduction for
# the per-module tracer in perfbench/spans.py, which also wraps the
# deduction body under the name transform._discharge
from .tactics import (EquivalencePair, ProofBuilder, TacticError,
                      compose_pairs, conjoin, conj_reassociation, deduction,
                      l2_7, l2_8, l2_18, l2_19, l2_21, l2_22, l2_25, l2_26,
                      l5_1, reflexive_pair, substitute_equivalents)
from .tactics import _deduction_body as _discharge

# ---------------------------------------------------------------------------
# gamma: pushing & to the top

# rule i:   C -> (D & E)   ~>  (C -> D) & (C -> E)
# rule ii:  (C & D) -> E   ~>  C -> (D -> E)
# rule iii: C v (D & E)    ~>  (C v D) & (C v E)
# rule iv:  (C & D) v E    ~>  (C v E) & (D v E)
#
# Keyed by (connective, side holding the &); a row is the rule's name, the
# rewrite of the leaves C, D, E, and the lemma proving the two equivalent,
# which takes the same leaves in order.  The lemmas are called through
# this module's globals, where perfbench/spans.py wraps them.
_RULES = {
    (Impl, "right"): ("i", lambda c, d, e: Conj(Impl(c, d), Impl(c, e)),
                      lambda c, d, e, calc: l2_21(c, d, e, calc)),
    (Impl, "left"): ("ii", lambda c, d, e: Impl(c, Impl(d, e)),
                     lambda c, d, e, calc: l2_22(c, d, e, calc)),
    (Disj, "right"): ("iii", lambda c, d, e: Conj(Disj(c, d), Disj(c, e)),
                      lambda c, d, e, calc: l2_25(c, d, e, calc)),
    (Disj, "left"): ("iv", lambda c, d, e: Conj(Disj(c, e), Disj(d, e)),
                     lambda c, d, e, calc: l2_26(c, d, e, calc)),
}


def _match_rule(f: Formula):
    """(row of _RULES, leaves C, D, E) for the rule whose redex f is, the
    right side tried before the left; None when f is no redex."""
    for side in ("right", "left"):
        rule = _RULES.get((type(f), side))
        if rule is None or not isinstance(getattr(f, side), Conj):
            continue
        if side == "right":
            return rule, (f.left, f.right.left, f.right.right)
        return rule, (f.left.left, f.left.right, f.right)
    return None


def _find_redex(f: Formula, path=()):  # innermost-leftmost
    if isinstance(f, Atom):
        return None
    for direction, child in (("left", f.left), ("right", f.right)):
        found = _find_redex(child, path + (direction,))
        if found is not None:
            return found
    if _match_rule(f) is not None:
        return path
    return None


def is_gamma_normal(f: Formula) -> bool:
    return _find_redex(f) is None


@dataclass(frozen=True)
class GammaForm:
    formula: Formula
    trace: tuple  # of (rule, path) in application order


def gamma(a: Formula) -> GammaForm:
    """Fully rewrite; the trace records each (rule, occurrence path)."""
    trace = []
    cur = a
    while True:
        path = _find_redex(cur)
        if path is None:
            return GammaForm(cur, tuple(trace))
        (name, rewrite, _), leaves = _match_rule(subformula_at(cur, path))
        trace.append((name, path))
        cur = replace_at(cur, path, rewrite(*leaves))


def _rewrite(pair: EquivalencePair, path, step: EquivalencePair) -> EquivalencePair:
    """From a ⇄ c, a ⇄ c', c' being c with step.left at path replaced by
    step.right (unchecked)."""
    return compose_pairs(pair, substitute_equivalents(pair.right, path, step))


def gamma_equivalence(a: Formula,
                      calculus: CalculusId = CalculusId.P) -> EquivalencePair:
    """Derivability pair between a and its gamma normal form (unchecked)."""
    if not calculus.admits(a):
        raise TacticError(f"{a} outside the {calculus} fragment")
    acc = reflexive_pair(a, calculus)
    while (path := _find_redex(acc.right)) is not None:
        (_, _, lemma), leaves = _match_rule(subformula_at(acc.right, path))
        acc = _rewrite(acc, path, lemma(*leaves, calculus))
    return acc


@dataclass(frozen=True)
class Decomposition:
    """a ⇄ B1 & ... & Bn with each Bi conjunction-free."""
    conjuncts: tuple
    equivalence: EquivalencePair  # derivability pair, left = a, right = chain

    @property
    def chain(self) -> Formula:
        return conj_chain(self.conjuncts)


def _conj_leaves(f: Formula) -> list:
    if isinstance(f, Conj):
        return _conj_leaves(f.left) + _conj_leaves(f.right)
    return [f]


def decompose(a: Formula, calculus: CalculusId = CalculusId.P) -> Decomposition:
    """Split a into conjunction-free parts with a derived, unchecked
    equivalence."""
    pair = gamma_equivalence(a, calculus)
    normal = pair.right
    conjuncts = _conj_leaves(normal)
    target = conj_chain(conjuncts)
    if target != normal:
        pair = _rewrite(pair, (), conj_reassociation(normal, target, calculus))
    return Decomposition(tuple(conjuncts), pair)


# ---------------------------------------------------------------------------
# tau: disjunction as material implication

def tau(a: Formula) -> Formula:
    if isinstance(a, Atom):
        return a
    if isinstance(a, Impl):
        return Impl(tau(a.left), tau(a.right))
    if isinstance(a, Disj):
        left, right = tau(a.left), tau(a.right)
        return Impl(Impl(left, right), right)
    raise TacticError(f"tau is defined on the ID fragment only, got {a}")


def _disj_as_impl_pair(x: Formula, y: Formula,
                       calculus: CalculusId) -> EquivalencePair:
    """Derivability pair between x v y and (x -> y) -> y: 2.18 with x -> y
    discharged, and 2.19."""
    return EquivalencePair(_discharge(l2_18(x, y, calculus), Impl(x, y)),
                           l2_19(x, y, calculus))


def tau_equivalence(a: Formula,
                    calculus: CalculusId = CalculusId.ID) -> EquivalencePair:
    """Derivability pair between a and tau(a), built in calculus, ID or
    one that extends it (unchecked)."""
    if not CalculusId.ID.admits(a):
        raise TacticError(f"tau is defined on the ID fragment only, got {a}")
    if not calculus.extends(CalculusId.ID):
        raise TacticError(f"tau_equivalence runs in ID or P, not {calculus}")
    acc = reflexive_pair(a, calculus)
    if not isinstance(a, Atom):
        for direction, child in (("left", a.left), ("right", a.right)):
            if tau(child) != child:
                acc = _rewrite(acc, (direction,), tau_equivalence(child, calculus))
    if isinstance(a, Disj):
        cur = acc.right
        acc = _rewrite(acc, (), _disj_as_impl_pair(cur.left, cur.right, calculus))
    return acc


def translate_derivation(d: Derivation) -> Derivation:
    """Map a closed ID derivation step by step onto a closed I derivation
    of the tau-image of its conclusion.  The kernel checks d on the way in
    and the result on the way out."""
    if d.calculus is not CalculusId.ID:
        raise TacticError(f"translation takes ID derivations, got {d.calculus}")
    if d.hypotheses:
        raise TacticError("translation takes closed derivations")
    return verify(_translate(verify(d)))


def _translate(d: Derivation) -> Derivation:
    """translate_derivation's mapping of a valid d, without the checks."""
    b = ProofBuilder(CalculusId.I)
    lines = {}
    for i, step in enumerate(d.steps):
        if isinstance(step, MPStep):
            lines[i] = b.mp(lines[step.major], lines[step.minor])
            continue
        subst = match_scheme(step.scheme, step.formula)
        sub = {k: tau(v) for k, v in subst.items()}
        if step.scheme in CalculusId.I.schemes:
            lines[i] = b.axiom(step.scheme, **sub)
        elif step.scheme is SchemeId.AX4:
            lines[i] = b.include(l2_7(sub["A"], sub["B"], CalculusId.I))
        elif step.scheme is SchemeId.AX5:
            lines[i] = b.include(l2_8(sub["A"], sub["B"], CalculusId.I))
        elif step.scheme is SchemeId.AX6:
            x, y, z = sub["A"], sub["B"], sub["C"]
            body = l5_1(x, y, z, CalculusId.I)
            lines[i] = b.discharge(_discharge(_discharge(
                body, Impl(Impl(x, y), y)), Impl(y, z)), Impl(x, z))
        else:
            raise TacticError(f"{step.scheme} has no implicative image")
    return b.build(conclusion=lines[len(d.steps) - 1], hypotheses=())


# ---------------------------------------------------------------------------
# indirect synthesis routes

def prove_I(a: Formula) -> Derivation:
    """Closed I derivation of an implicative tautology, via ID synthesis
    followed by translation (tau is the identity on implicative formulas).
    Only the I proof is checked, not the ID proof it is translated from."""
    if not CalculusId.I.admits(a):
        raise TacticError(f"{a} outside the implicative fragment")
    return verify(_translate(synthesize(a, CalculusId.ID)))


def _prove_by_gamma(a: Formula, calculus: CalculusId, prove_part) -> Derivation:
    """Closed derivation of a tautology a in calculus: decompose a into
    &-free conjuncts, prove each with prove_part, conjoin them and come
    back through the equivalence.  a is decided once, here: the conjuncts
    of a tautology are tautologies, so prove_part searches for no
    countermodel.  Only the assembled proof is checked."""
    if not calculus.admits(a):
        raise TacticError(f"{a} outside the {calculus} fragment")
    countermodel = find_countermodel(a)
    if countermodel is not None:
        raise NotTautology(countermodel)
    dec = decompose(a, calculus)
    b = ProofBuilder(calculus)
    whole = b.include(conjoin([prove_part(c) for c in dec.conjuncts], calculus))
    out = b.include(dec.equivalence.backward, hyp_map={dec.chain: whole})
    return verify(b.build(conclusion=out, hypotheses=()))


def prove_IC(a: Formula) -> Derivation:
    """Closed IC derivation of a tautology of the ->/& fragment: gamma
    splits it into implicative parts, each proved as prove_I does (ID
    synthesis, then translation) but checked only inside the whole."""
    return _prove_by_gamma(
        a, CalculusId.IC,
        lambda part: _translate(kalmar.eliminate(part, CalculusId.ID)))


def prove_P_reduction(a: Formula) -> Derivation:
    """Closed P derivation of a positive tautology by the reduction route:
    gamma decomposition, ID synthesis per conjunct, reassembly.  Only the
    assembled proof is checked."""
    return _prove_by_gamma(a, CalculusId.P,
                           lambda part: kalmar.eliminate(part, CalculusId.ID))


def decompose_to_implicative(a: Formula) -> Decomposition:
    """a ⇄ tau(B1) & ... & tau(Bn) with purely implicative conjuncts,
    inside P: gamma decomposition followed by tau on each conjunct."""
    dec = decompose(a, CalculusId.P)
    pair = dec.equivalence
    n = len(dec.conjuncts)
    for j, conjunct in enumerate(dec.conjuncts):
        if tau(conjunct) == conjunct:
            continue
        path = ("right",) * j if j == n - 1 else ("right",) * j + ("left",)
        pair = _rewrite(pair, path, tau_equivalence(conjunct, CalculusId.P))
    return Decomposition(tuple(tau(c) for c in dec.conjuncts), pair)
