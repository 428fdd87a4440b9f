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
# per-module tracer in perfbench/spans.py
from .kalmar import NotTautology, prove, synthesize
from .semantics import find_countermodel
# `deduction` is not called here; it stays bound as transform.deduction for
# the per-module tracer in perfbench/spans.py
from .tactics import (DERIVABILITY, EquivalencePair, ProofBuilder,
                      TacticError, compose_pairs, conjoin, _discharge,
                      conj_reassociation, deduction, l2_7, l2_8, l2_18, l2_19,
                      l2_21, l2_22, l2_25, l2_26, l5_1, reflexive_pair,
                      substitute_equivalents)

# ---------------------------------------------------------------------------
# gamma: pushing & to the top

# rule i:   C -> (D & E)   ~>  (C -> D) & (C -> E)
# rule ii:  (C & D) -> E   ~>  C -> (D -> E)
# rule iii: C v (D & E)    ~>  (C v D) & (C v E)
# rule iv:  (C & D) v E    ~>  (C v E) & (D v E)


def _match_rule(f: Formula):
    if isinstance(f, Impl):
        if isinstance(f.right, Conj):
            return "i"
        if isinstance(f.left, Conj):
            return "ii"
    elif isinstance(f, Disj):
        if isinstance(f.right, Conj):
            return "iii"
        if isinstance(f.left, Conj):
            return "iv"
    return None


def _apply_rule(rule: str, f: Formula) -> Formula:
    if rule == "i":
        return Conj(Impl(f.left, f.right.left), Impl(f.left, f.right.right))
    if rule == "ii":
        return Impl(f.left.left, Impl(f.left.right, f.right))
    if rule == "iii":
        return Conj(Disj(f.left, f.right.left), Disj(f.left, f.right.right))
    if rule == "iv":
        return Conj(Disj(f.left.left, f.right), Disj(f.left.right, f.right))
    raise ValueError(f"unknown rule {rule!r}")


def _find_redex(f: Formula, path=()):  # innermost-leftmost
    if isinstance(f, Atom):
        return None
    for direction, child in (("left", f.left), ("right", f.right)):
        found = _find_redex(child, path + (direction,))
        if found is not None:
            return found
    rule = _match_rule(f)
    if rule is not None:
        return (rule, path)
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
        found = _find_redex(cur)
        if found is None:
            return GammaForm(cur, tuple(trace))
        rule, path = found
        trace.append((rule, path))
        cur = replace_at(cur, path, _apply_rule(rule, subformula_at(cur, path)))


def _rule_pair(rule: str, redex: Formula, calculus: CalculusId) -> EquivalencePair:
    if rule == "i":
        return l2_21(redex.left, redex.right.left, redex.right.right, calculus)
    if rule == "ii":
        return l2_22(redex.left.left, redex.left.right, redex.right, calculus)
    if rule == "iii":
        return l2_25(redex.left, redex.right.left, redex.right.right, calculus)
    if rule == "iv":
        return l2_26(redex.left.left, redex.left.right, redex.right, calculus)
    raise ValueError(f"unknown rule {rule!r}")


def gamma_equivalence(a: Formula,
                      calculus: CalculusId = CalculusId.P) -> EquivalencePair:
    """Derivability pair between a and its gamma normal form (unchecked)."""
    if not calculus.fragment.admits(a):
        raise TacticError(f"{a} outside the {calculus} fragment")
    acc = reflexive_pair(a, calculus)
    cur = a
    for rule, path in gamma(a).trace:
        redex = subformula_at(cur, path)
        step = substitute_equivalents(cur, path, _rule_pair(rule, redex, calculus))
        acc = compose_pairs(acc, step)
        cur = step.right
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
        pair = compose_pairs(
            pair, conj_reassociation(normal, target, calculus))
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
    """Derivability pair between x v y and (x -> y) -> y."""
    disj = Disj(x, y)
    encoded = Impl(Impl(x, y), y)
    b = ProofBuilder(calculus)
    h = b.hyp(disj)
    hi = b.hyp(Impl(x, y))
    out = b.include(l2_18(x, y, calculus), hyp_map={disj: h, Impl(x, y): hi})
    fwd = _discharge(b.build(conclusion=out, hypotheses={disj, Impl(x, y)}),
                     Impl(x, y))
    bwd = l2_19(x, y, calculus)
    return EquivalencePair(fwd, bwd, DERIVABILITY)


def tau_equivalence(a: Formula,
                    calculus: CalculusId = CalculusId.ID) -> EquivalencePair:
    """Derivability pair between a and tau(a), built in calculus, ID or
    one that extends it (unchecked)."""
    if not CalculusId.ID.fragment.admits(a):
        raise TacticError(f"tau is defined on the ID fragment only, got {a}")
    acc = reflexive_pair(a, calculus)
    cur = a
    if not isinstance(a, Atom):
        for direction, child in (("left", a.left), ("right", a.right)):
            if tau(child) == child:
                continue
            inner = tau_equivalence(child, calculus)
            step = substitute_equivalents(cur, (direction,), inner)
            acc = compose_pairs(acc, step)
            cur = step.right
    if isinstance(a, Disj):
        acc = compose_pairs(acc, _disj_as_impl_pair(cur.left, cur.right, calculus))
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
        if step.scheme in (SchemeId.AX1, SchemeId.AX2, SchemeId.AX3):
            lines[i] = b.axiom(step.scheme, **sub)
        elif step.scheme is SchemeId.AX4:
            lines[i] = b.include(l2_7(sub["A"], sub["B"], CalculusId.I))
        elif step.scheme is SchemeId.AX5:
            lines[i] = b.include(l2_8(sub["A"], sub["B"], CalculusId.I))
        elif step.scheme is SchemeId.AX6:
            x, y, z = sub["A"], sub["B"], sub["C"]
            body = l5_1(x, y, z, CalculusId.I)
            closed = _discharge(_discharge(_discharge(
                body, Impl(Impl(x, y), y)), Impl(y, z)), Impl(x, z))
            lines[i] = b.include(closed)
        else:
            raise TacticError(f"{step.scheme} has no implicative image")
    return b.build(conclusion=lines[len(d.steps) - 1], hypotheses=())


# ---------------------------------------------------------------------------
# indirect synthesis routes

def prove_I(a: Formula) -> Derivation:
    """Closed I derivation of an implicative tautology, via ID synthesis
    followed by translation (tau is the identity on implicative formulas).
    Only the I proof is checked, not the ID proof it is translated from."""
    if not CalculusId.I.fragment.admits(a):
        raise TacticError(f"{a} outside the implicative fragment")
    return verify(_translate(synthesize(a, CalculusId.ID)))


def _prove_by_gamma(a: Formula, calculus: CalculusId, prove_part) -> Derivation:
    """Closed derivation of a tautology a in calculus: decompose a into
    &-free conjuncts, prove each with prove_part (which raises TacticError
    outside its fragment), conjoin them and come back through the
    equivalence.  Only the assembled proof is checked."""
    if not calculus.fragment.admits(a):
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
    splits it into implicative parts, each proved via prove_I."""
    return _prove_by_gamma(a, CalculusId.IC, prove_I)


def prove_P_reduction(a: Formula) -> Derivation:
    """Closed P derivation of a positive tautology by the reduction route:
    gamma decomposition, ID synthesis per conjunct, reassembly.  Only the
    assembled proof is checked."""
    return _prove_by_gamma(a, CalculusId.P,
                           lambda part: synthesize(part, CalculusId.ID))


def decompose_to_implicative(a: Formula) -> Decomposition:
    """a ⇄ tau(B1) & ... & tau(Bn) with purely implicative conjuncts,
    inside P: gamma decomposition followed by tau on each conjunct."""
    dec = decompose(a, CalculusId.P)
    pair = dec.equivalence
    cur = dec.chain
    n = len(dec.conjuncts)
    for j, conjunct in enumerate(dec.conjuncts):
        image = tau(conjunct)
        if image == conjunct:
            continue
        inner = tau_equivalence(conjunct, CalculusId.P)
        path = ("right",) * j if j == n - 1 else ("right",) * j + ("left",)
        step = substitute_equivalents(cur, path, inner)
        pair = compose_pairs(pair, step)
        cur = step.right
    return Decomposition(tuple(tau(c) for c in dec.conjuncts), pair)
