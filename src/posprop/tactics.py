"""Proof-producing tactics: the deduction theorem, substitution of
equivalents, the lemma schemata library, and conjunction assembly.

Nothing here is trusted, and nothing here checks what it builds: the
combinators and lemma constructors return unchecked derivations (the
equivalence lemmas as derivability pairs, {A} ⊢ B and {B} ⊢ A, which
`lemma` discharges into the paper's theses), and the public entry points
(`lemma` here, the provers in kalmar and transform) run the kernel
checker once on their result.  `deduction` also checks the caller's
derivation on the way in.  The deduction theorem is dependency-aware:
steps that do not cite the discharged hypothesis are copied, and only the
others are lifted through Ax1/Ax2, so a discharge costs a few steps per
dependent step rather than a few per step.  It reuses any line its
builder already holds, lifted or not, before it builds one.

The central tool is ProofBuilder, which accumulates steps, deduplicates
lines by formula (a sound peephole: an identical earlier line under the
same hypotheses proves the same thing), splices existing derivations with
index re-offsetting, and drops the steps a conclusion does not cite when
it freezes a derivation (by _prune, kept here with `hypothesis` so that
the kernel only checks); freezing appends nothing, so a builder can be
frozen at several lines.  The moves on its lines are each written once:
_conj_intro (Ax9), _conj_elim (Ax7/Ax8), and _route, which carries one
disjunction tree into another by Ax4/Ax5 injections and Ax6 splits
(_reroute and _into apply it to a line; case analysis on x v y is
_reroute with the lines x -> t and y -> t as leaves).  Conjunction trees
are torn down only by _extract_conjuncts and rebuilt only by
_rebuild_conjunction (conjoin, split_conjunction, conj_reassociation and
the & congruence).  _congruence has one case per connective.  The
biconditional helpers of Lemma 2.20 are conjoin and split_conjunction of
an equivalence pair's two thesis halves.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum

from .formula import (Atom, Conj, Disj, Formula, Impl, conj_chain,
                      disj_chain, subformula_at)
from .kernel import (AxiomStep, CalculusId, CheckError, Derivation, HypStep,
                     MPStep, SchemeId, StepError, verify)


class TacticError(ValueError):
    pass


def hypothesis(calculus: CalculusId, f: Formula) -> Derivation:
    """One-step derivation of f from {f} (unchecked)."""
    return Derivation(calculus, frozenset([f]), (HypStep(f),))


def _prune(d: Derivation) -> Derivation:
    """Drop every step the conclusion does not (transitively) cite,
    re-offsetting MP indices.  The declared hypotheses are kept as-is."""
    steps = d.steps
    needed = [False] * len(steps)
    stack = [len(steps) - 1]
    while stack:
        i = stack.pop()
        if needed[i]:
            continue
        needed[i] = True
        s = steps[i]
        if type(s) is MPStep:
            stack.append(s.major)
            stack.append(s.minor)
    if all(needed):
        return d
    remap: dict = {}
    out: list = []
    for i, s in enumerate(steps):
        if not needed[i]:
            continue
        if type(s) is MPStep:
            s = MPStep(remap[s.major], remap[s.minor], s.formula)
        remap[i] = len(out)
        out.append(s)
    return Derivation(d.calculus, d.hypotheses, tuple(out))


class ProofBuilder:
    """Accumulates a step list; all methods return the index of the line
    proving the formula of interest."""

    def __init__(self, calculus: CalculusId):
        self.calculus = calculus
        self.steps: list = []
        self._by_formula: dict = {}

    def _add(self, step) -> int:
        existing = self._by_formula.get(step.formula)
        if existing is not None:
            return existing
        self.steps.append(step)
        index = len(self.steps) - 1
        self._by_formula[step.formula] = index
        return index

    def formula_at(self, index: int) -> Formula:
        return self.steps[index].formula

    def hyp(self, f: Formula) -> int:
        return self._add(HypStep(f))

    def axiom(self, scheme: SchemeId, **subst: Formula) -> int:
        return self._add(AxiomStep(scheme, scheme.build(**subst)))

    def mp(self, major: int, minor: int) -> int:
        imp = self.steps[major].formula
        if not isinstance(imp, Impl) or imp.left != self.steps[minor].formula:
            raise TacticError(
                f"MP mismatch: {imp} against {self.steps[minor].formula}")
        return self._add(MPStep(major, minor, imp.right))

    def include(self, d: Derivation, hyp_map=None) -> int:
        """Splice a derivation; hyp_map routes hypothesis citations to
        already-present lines instead of HypSteps."""
        if not self.calculus.extends(d.calculus):
            raise TacticError(f"cannot splice {d.calculus} into {self.calculus}")
        hyp_map = hyp_map or {}
        mapping = {}
        for i, step in enumerate(d.steps):
            if isinstance(step, HypStep):
                if step.formula in hyp_map:
                    mapping[i] = hyp_map[step.formula]
                else:
                    mapping[i] = self.hyp(step.formula)
            elif isinstance(step, AxiomStep):
                mapping[i] = self._add(step)
            else:
                mapping[i] = self.mp(mapping[step.major], mapping[step.minor])
        return mapping[len(d.steps) - 1]

    def build(self, conclusion: int = None, hypotheses=None) -> Derivation:
        """Freeze into an unchecked derivation of the conclusion line (by
        default the last line), keeping only the steps it cites.  The
        builder is left as it was, so it can be frozen again.
        Hypotheses default to every hypothesis line, cited or not; they are
        taken before the uncited steps are dropped, because callers go on to
        discharge hypotheses their conclusion may not cite."""
        if conclusion is None:
            conclusion = len(self.steps) - 1
        if hypotheses is None:
            hypotheses = {s.formula for s in self.steps if isinstance(s, HypStep)}
        return _prune(Derivation(self.calculus, frozenset(hypotheses),
                                 tuple(self.steps[:conclusion + 1])))


def _identity(b: ProofBuilder, a: Formula) -> int:
    """The Ax1/Ax2 five-line proof of a -> a."""
    aa = Impl(a, a)
    s1 = b.axiom(SchemeId.AX2, A=a, B=aa, C=a)
    s2 = b.axiom(SchemeId.AX1, A=a, B=aa)
    s3 = b.mp(s1, s2)
    s4 = b.axiom(SchemeId.AX1, A=a, B=a)
    return b.mp(s3, s4)


def _compose(b: ProofBuilder, i_ab: int, i_bc: int) -> int:
    """From lines a -> b and b -> c, derive a -> c."""
    f_ab = b.formula_at(i_ab)
    f_bc = b.formula_at(i_bc)
    if not (isinstance(f_ab, Impl) and isinstance(f_bc, Impl)
            and f_ab.right == f_bc.left):
        raise TacticError(f"cannot compose {f_ab} with {f_bc}")
    a, mid, c = f_ab.left, f_ab.right, f_bc.right
    s1 = b.axiom(SchemeId.AX1, A=f_bc, B=a)       # (b->c) -> (a -> (b->c))
    s2 = b.mp(s1, i_bc)                            # a -> (b -> c)
    s3 = b.axiom(SchemeId.AX2, A=a, B=mid, C=c)
    return b.mp(b.mp(s3, s2), i_ab)


# ---------------------------------------------------------------------------
# the deduction theorem (proof transformer)

def deduction(d: Derivation, a: Formula) -> Derivation:
    """Discharge hypothesis a: from hyps ⊢ C produce hyps\\{a} ⊢ a -> C.

    Dependency-aware: only the steps that cite a, directly or through
    earlier steps, are lifted to a -> (step); the others are copied as
    they are, and a line already built is reused (see _deduction_body).
    The kernel checks d on the way in,
    so a bad input raises CheckError; the result is not checked again.
    """
    if a not in d.hypotheses:
        raise TacticError(f"{a} is not a hypothesis of the derivation")
    verify(d)
    return _deduction_body(d, a)


def _deduction_body(d: Derivation, a: Formula) -> Derivation:
    """The transformation behind deduction.  A step that does not cite a
    (an axiom, another hypothesis, an MP of two such steps) is copied; the
    hypothesis a becomes the identity proof of a -> a; an MP with a premise
    that cites a is simulated with Ax2, and its other premise, if it does
    not cite a, is lifted once by Ax1 and MP.  The conclusion, if it does
    not cite a, is lifted the same way, so when a is not a hypothesis at
    all the result is d followed by Ax1 and MP.  Every line of the builder
    is free of a, so its formula table is a memo of what is proved: a step
    whose formula has a line becomes that line, even if it cites a, and a
    lift or an Ax2 simulation whose a -> f has a line reuses it.  Neither
    d nor the result is checked: package code checks at its boundary."""
    b = ProofBuilder(d.calculus)
    held = b._by_formula
    copied = {}   # old index -> line proving the old formula
    lifted = {}   # old index -> line proving a -> (old formula)

    def lift(i: int) -> int:
        if i not in lifted:
            f = d.steps[i].formula
            lifted[i] = held.get(Impl(a, f))
            if lifted[i] is None:
                lifted[i] = b.mp(b.axiom(SchemeId.AX1, A=f, B=a), copied[i])
        return lifted[i]

    for i, step in enumerate(d.steps):
        if isinstance(step, HypStep) and step.formula == a:
            lifted[i] = _identity(b, a)
        elif step.formula in held:
            copied[i] = held[step.formula]
        elif not isinstance(step, MPStep):
            copied[i] = b._add(step)
        elif step.major in copied and step.minor in copied:
            copied[i] = b.mp(copied[step.major], copied[step.minor])
        elif Impl(a, step.formula) in held:
            lifted[i] = held[Impl(a, step.formula)]
        else:
            minor = d.steps[step.minor].formula
            ax2 = b.axiom(SchemeId.AX2, A=a, B=minor, C=step.formula)
            lifted[i] = b.mp(b.mp(ax2, lift(step.major)), lift(step.minor))
    return b.build(conclusion=lift(len(d.steps) - 1),
                   hypotheses=d.hypotheses - {a})


# ---------------------------------------------------------------------------
# disjunction toolkit

def _occurs_as_disjunct(e: Formula, tree: Formula) -> bool:
    return tree == e or (isinstance(tree, Disj)
                         and (_occurs_as_disjunct(e, tree.left)
                              or _occurs_as_disjunct(e, tree.right)))


def _inject(b: ProofBuilder, e: Formula, target: Formula) -> int:
    """Line proving e -> target, where e occurs as a disjunct of target:
    one Ax4/Ax5 step when e is a child of target, else the step that puts
    e beside its sibling at its leftmost occurrence, composed with each
    step out to target."""
    if target == e:
        return _identity(b, e)
    if isinstance(target, Disj):
        sides = ((target.left, target.right, SchemeId.AX4),
                 (target.right, target.left, SchemeId.AX5))
        for side, other, scheme in sides:
            if side == e:
                return b.axiom(scheme, A=e, B=other)
        for side, other, scheme in sides:
            if _occurs_as_disjunct(e, side):
                sub = _inject(b, e, side)
                return _compose(b, sub, b.axiom(scheme, A=side, B=other))
    raise TacticError(f"{e} does not occur as a disjunct of {target}")


def _route(b: ProofBuilder, tree: Formula, target: Formula, leaves: dict) -> int:
    """Line proving tree -> target, the one routing move between
    disjunction trees.  A subtree that is a key of leaves uses that line
    (a line proving subtree -> target); a disjunction that is target
    itself, or does not occur as a disjunct of it, splits by Ax6; anything
    else is injected along its Ax4/Ax5 path."""
    if tree in leaves:
        return leaves[tree]
    if isinstance(tree, Disj) and (tree == target
                                   or not _occurs_as_disjunct(tree, target)):
        left = _route(b, tree.left, target, leaves)
        right = _route(b, tree.right, target, leaves)
        ax6 = b.axiom(SchemeId.AX6, A=tree.left, B=tree.right, C=target)
        return b.mp(b.mp(ax6, left), right)
    return _inject(b, tree, target)


def _reroute(b: ProofBuilder, premise: int, target: Formula,
             leaves: dict = None) -> int:
    """From the line premise, a disjunction tree, the line target (by
    _route and MP); the premise itself when it already is target."""
    tree = b.formula_at(premise)
    if tree == target:
        return premise
    return b.mp(_route(b, tree, target, leaves or {}), premise)


def _into(b: ProofBuilder, line: int, target: Formula) -> int:
    """From the line x -> y, the line x -> target: the line itself when y
    already is target, one Ax4/Ax5 step when x is a child of target, else
    y routed into target."""
    f = b.formula_at(line)
    if f.right == target:
        return line
    if isinstance(target, Disj) and f.left in (target.left, target.right):
        return _inject(b, f.left, target)
    return _compose(b, line, _route(b, f.right, target, {}))


def _conj_intro(b: ProofBuilder, left: int, right: int) -> int:
    """From lines x and y, derive x & y (Ax9)."""
    ax9 = b.axiom(SchemeId.AX9, A=b.formula_at(left), B=b.formula_at(right))
    return b.mp(b.mp(ax9, left), right)


def _conj_elim(b: ProofBuilder, conj: int, scheme: SchemeId) -> int:
    """From line x & y, derive x (Ax7) or y (Ax8)."""
    f = b.formula_at(conj)
    return b.mp(b.axiom(scheme, A=f.left, B=f.right), conj)


# ---------------------------------------------------------------------------
# equivalence pairs

THESIS = "thesis"
DERIVABILITY = "derivability"


@dataclass(frozen=True)
class EquivalencePair:
    """Mutual derivability of two formulas.

    derivability mode, as the pair builders return it: forward is {left} ⊢
    right and backward {right} ⊢ left, each with that one hypothesis.  thesis
    mode, as `lemma` states the paper's theses: forward is ⊢ left -> right,
    backward ⊢ right -> left.  The mode is read off the halves, not stored:
    a pair is in thesis mode exactly when its forward half is closed.  The
    modes interconvert by DT and MP.
    """

    forward: Derivation
    backward: Derivation

    @property
    def mode(self) -> str:
        return DERIVABILITY if self.forward.hypotheses else THESIS

    @property
    def calculus(self) -> CalculusId:
        return self.forward.calculus

    @property
    def left(self) -> Formula:
        if self.mode == THESIS:
            return self.forward.conclusion.left
        return next(iter(self.forward.hypotheses))

    @property
    def right(self) -> Formula:
        if self.mode == THESIS:
            return self.forward.conclusion.right
        return self.forward.conclusion


def reflexive_pair(a: Formula, calculus: CalculusId) -> EquivalencePair:
    """a ⇄ a: both halves are the one-step derivation {a} ⊢ a."""
    d = hypothesis(calculus, a)
    return EquivalencePair(d, d)


def as_derivability(p: EquivalencePair) -> EquivalencePair:
    if p.mode == DERIVABILITY:
        return p

    def one_way(thesis: Derivation) -> Derivation:
        b = ProofBuilder(thesis.calculus)
        h = b.hyp(thesis.conclusion.left)
        imp = b.include(thesis)
        return b.build(conclusion=b.mp(imp, h))

    return EquivalencePair(one_way(p.forward), one_way(p.backward))


def as_thesis(p: EquivalencePair) -> EquivalencePair:
    if p.mode == THESIS:
        return p
    return EquivalencePair(_deduction_body(p.forward, p.left),
                           _deduction_body(p.backward, p.right))


def compose_pairs(p: EquivalencePair, q: EquivalencePair) -> EquivalencePair:
    """Transitivity: from a ⇄ m and m ⇄ b, a ⇄ b (unchecked)."""
    p, q = as_derivability(p), as_derivability(q)
    if p.right != q.left:
        raise TacticError(f"cannot chain {p.right} with {q.left}")

    def chain(first: Derivation, second: Derivation, start: Formula) -> Derivation:
        b = ProofBuilder(first.calculus)
        h = b.hyp(start)
        mid = b.include(first, hyp_map={start: h})
        out = b.include(second, hyp_map={first.conclusion: mid})
        return b.build(conclusion=out, hypotheses={start})

    return EquivalencePair(chain(p.forward, q.forward, p.left),
                           chain(q.backward, p.backward, q.right))


# ---------------------------------------------------------------------------
# conjunction assembly

def _extract_conjuncts(b: ProofBuilder, index: int, table: dict) -> None:
    """Record lines for every subtree of the conjunction proved at index."""
    f = b.formula_at(index)
    table.setdefault(f, index)
    if isinstance(f, Conj):
        for scheme in (SchemeId.AX7, SchemeId.AX8):
            _extract_conjuncts(b, _conj_elim(b, index, scheme), table)


def _rebuild_conjunction(b: ProofBuilder, target: Formula, table: dict) -> int:
    """Derive target from the recorded conjunct lines via Ax9."""
    if target in table:
        return table[target]
    if not isinstance(target, Conj):
        raise TacticError(f"no line available for conjunct {target}")
    return _conj_intro(b, _rebuild_conjunction(b, target.left, table),
                       _rebuild_conjunction(b, target.right, table))


def conjoin(ds, calculus: CalculusId = None) -> Derivation:
    """From closed ⊢ B1, ..., ⊢ Bn build ⊢ B1 & ... & Bn (right-associated)
    in calculus, by default the first part's; it must extend the calculus
    of every part.  The result is unchecked."""
    ds = list(ds)
    if not ds:
        raise TacticError("nothing to conjoin")
    calculus = calculus or ds[0].calculus
    if any(d.hypotheses for d in ds):
        raise TacticError("conjoin requires closed derivations")
    if SchemeId.AX9 not in calculus.schemes:
        raise TacticError(f"{calculus} has no conjunction schemes")
    b = ProofBuilder(calculus)
    table = {d.conclusion: b.include(d) for d in ds}  # dedup: one line each
    target = conj_chain([d.conclusion for d in ds])
    return b.build(conclusion=_rebuild_conjunction(b, target, table),
                   hypotheses=())


def split_conjunction(d: Derivation, n: int) -> list:
    """From closed ⊢ B1 & ... & Bn recover closed ⊢ Bj for each j
    (unchecked), each frozen from one tear-down of the conjunction."""
    if d.hypotheses:
        raise TacticError("split requires a closed derivation")
    if n < 1:
        raise TacticError(f"cannot split into {n} conjuncts")
    parts = []
    f = d.conclusion
    for _ in range(n - 1):
        if not isinstance(f, Conj):
            raise TacticError(f"conclusion is not an {n}-fold conjunction")
        parts.append(f.left)
        f = f.right
    parts.append(f)

    b = ProofBuilder(d.calculus)
    table: dict = {}
    _extract_conjuncts(b, b.include(d), table)
    return [b.build(conclusion=table[part], hypotheses=()) for part in parts]


def pair_to_biconditional(p: EquivalencePair) -> Derivation:
    """Pack a pair as ⊢ (A -> B) & (B -> A): conjoin its thesis halves, so
    it needs Ax9 (IC or P).  The result is unchecked."""
    p = as_thesis(p)
    return conjoin([p.forward, p.backward])


def biconditional_to_pair(d: Derivation) -> EquivalencePair:
    """Unpack closed ⊢ (A -> B) & (B -> A) into a thesis-form pair: split
    the conjunction.  The halves are unchecked."""
    conc = d.conclusion
    if not (isinstance(conc, Conj) and isinstance(conc.left, Impl)
            and isinstance(conc.right, Impl)):
        raise TacticError(f"not a biconditional conclusion: {conc}")
    return EquivalencePair(*split_conjunction(d, 2))


# ---------------------------------------------------------------------------
# the lemma library (unchecked; `lemma` below checks what it returns)

def l2_5(a: Formula, calculus=CalculusId.I) -> Derivation:
    b = ProofBuilder(calculus)
    return b.build(conclusion=_identity(b, a), hypotheses=())


def l2_6(a, bf, c, calculus=CalculusId.I) -> Derivation:
    b = ProofBuilder(calculus)
    i1 = b.hyp(Impl(a, bf))
    i2 = b.hyp(Impl(bf, c))
    return b.build(conclusion=_compose(b, i1, i2))


def l2_7(a, bf, calculus=CalculusId.I) -> Derivation:
    b = ProofBuilder(calculus)
    imp = b.hyp(Impl(a, bf))
    h = b.hyp(a)
    d = b.build(conclusion=b.mp(imp, h))
    return _deduction_body(_deduction_body(d, Impl(a, bf)), a)


def l2_8(a, bf, calculus=CalculusId.I) -> Derivation:
    b = ProofBuilder(calculus)
    b.hyp(a)
    d = b.build(hypotheses={a, Impl(bf, a)})
    return _deduction_body(_deduction_body(d, Impl(bf, a)), a)


def l2_9(a, bf, calculus=CalculusId.I) -> Derivation:
    nested = Impl(a, Impl(a, bf))
    b = ProofBuilder(calculus)
    h = b.hyp(a)
    outer = b.hyp(nested)
    d = b.build(conclusion=b.mp(b.mp(outer, h), h))
    return _deduction_body(_deduction_body(d, a), nested)


def l2_10(a, bf, c, calculus=CalculusId.I) -> Derivation:
    peirce_ish = Impl(Impl(a, bf), bf)
    b = ProofBuilder(calculus)
    h1 = b.hyp(peirce_ish)
    h2 = b.hyp(Impl(a, c))
    h3 = b.hyp(Impl(c, bf))
    ab = _compose(b, h2, h3)
    d = b.build(conclusion=b.mp(h1, ab))
    return _deduction_body(d, Impl(c, bf))


def l2_11(a, bf, calculus=CalculusId.ID) -> Derivation:
    x = Disj(a, Impl(a, bf))
    inner = ProofBuilder(calculus)
    h = inner.hyp(Impl(x, bf))
    ab = _compose(inner, _route(inner, a, x, {}), h)  # a -> b
    d = _deduction_body(inner.build(conclusion=_reroute(inner, ab, x)),
                        Impl(x, bf))
    b = ProofBuilder(calculus)
    premise = b.include(d)
    peirce = b.axiom(SchemeId.AX3, A=x, B=bf)
    return b.build(conclusion=b.mp(peirce, premise), hypotheses=())


def l2_12(a, bf, c, df, calculus=CalculusId.ID) -> Derivation:
    target = Disj(c, df)
    b = ProofBuilder(calculus)
    h_or = b.hyp(Disj(a, bf))
    h_ac = b.hyp(Impl(a, c))
    h_bd = b.hyp(Impl(bf, df))
    leaves = {a: _into(b, h_ac, target), bf: _into(b, h_bd, target)}
    return b.build(conclusion=_reroute(b, h_or, target, leaves))


def l2_13(a, bf, c, calculus=CalculusId.ID) -> Derivation:
    x = Disj(bf, Impl(a, c))
    b = ProofBuilder(calculus)
    h = b.hyp(Impl(a, bf))
    excl = b.include(l2_11(a, c, calculus))           # a v (a -> c)
    return b.build(conclusion=_reroute(b, excl, x, {a: _into(b, h, x)}))


def l2_14(a, bf, c, calculus=CalculusId.ID) -> Derivation:
    b = ProofBuilder(calculus)
    h = b.hyp(a)
    ax1 = b.axiom(SchemeId.AX1, A=a, B=c)
    ca = b.mp(ax1, h)
    return b.build(conclusion=_reroute(b, ca, Disj(bf, Impl(c, a))))


def l2_15(*formulas, calculus=CalculusId.ID) -> EquivalencePair:
    if len(formulas) < 2:
        raise TacticError("2.15 needs at least one leading disjunct")
    left = Disj(disj_chain(formulas[:-1]), formulas[-1])
    right = disj_chain(formulas)

    def one_way(src: Formula, dst: Formula) -> Derivation:
        b = ProofBuilder(calculus)
        return b.build(conclusion=_reroute(b, b.hyp(src), dst),
                       hypotheses={src})

    return EquivalencePair(one_way(left, right), one_way(right, left))


def l2_16(sources, targets, calculus=CalculusId.ID) -> Derivation:
    sources, targets = list(sources), list(targets)
    if not sources:
        raise TacticError("2.16 needs at least one source disjunct")
    missing = [e for e in sources if e not in targets]
    if missing:
        raise TacticError(f"disjunct {missing[0]} missing from the target list")
    src = disj_chain(sources)
    b = ProofBuilder(calculus)
    return b.build(conclusion=_reroute(b, b.hyp(src), disj_chain(targets)),
                   hypotheses={src})


def l2_17(a, bf, c, calculus=CalculusId.ID) -> Derivation:
    b = ProofBuilder(calculus)
    h_or = b.hyp(Disj(a, bf))
    h_ca = b.hyp(Impl(c, a))
    h_bc = b.hyp(Impl(bf, c))
    # a disjunct bf of a is injected: a leaf bf -> a would cite h_bc, and
    # discharging bf -> c would then lift the whole split of a
    leaves = ({} if _occurs_as_disjunct(bf, a)
              else {bf: _compose(b, h_bc, h_ca)})
    d = b.build(conclusion=_reroute(b, h_or, a, leaves))
    return _deduction_body(d, Impl(bf, c))


def l2_18(a, bf, calculus=CalculusId.ID) -> Derivation:
    b = ProofBuilder(calculus)
    h_or = b.hyp(Disj(a, bf))
    h_ab = b.hyp(Impl(a, bf))
    return b.build(conclusion=_reroute(b, h_or, bf, {a: h_ab}))


def l2_19(a, bf, calculus=CalculusId.ID) -> Derivation:
    x = Disj(a, bf)
    b = ProofBuilder(calculus)
    h = b.hyp(Impl(Impl(a, bf), bf))
    excl = b.include(l2_11(a, bf, calculus))          # a v (a -> b)
    leaves = {Impl(a, bf): _into(b, h, x)}
    return b.build(conclusion=_reroute(b, excl, x, leaves))


def l2_21(a, bf, c, calculus=CalculusId.IC) -> EquivalencePair:
    h = Impl(a, Conj(bf, c))

    def projected(scheme: SchemeId) -> Derivation:
        b = ProofBuilder(calculus)
        bc = b.mp(b.hyp(h), b.hyp(a))
        return _deduction_body(b.build(conclusion=_conj_elim(b, bc, scheme)), a)

    b = ProofBuilder(calculus)
    ab = b.include(projected(SchemeId.AX7))
    ac = b.include(projected(SchemeId.AX8))
    fwd = b.build(conclusion=_conj_intro(b, ab, ac), hypotheses={h})

    r = Conj(Impl(a, bf), Impl(a, c))
    b2 = ProofBuilder(calculus)
    hr = b2.hyp(r)
    ha = b2.hyp(a)
    left = b2.mp(_conj_elim(b2, hr, SchemeId.AX7), ha)
    right = b2.mp(_conj_elim(b2, hr, SchemeId.AX8), ha)
    inner = b2.build(conclusion=_conj_intro(b2, left, right),
                     hypotheses={r, a})
    return EquivalencePair(fwd, _deduction_body(inner, a))


def l2_22(a, bf, c, calculus=CalculusId.IC) -> EquivalencePair:
    curried = Impl(a, Impl(bf, c))
    packed = Impl(Conj(a, bf), c)

    b = ProofBuilder(calculus)
    hp = b.hyp(packed)
    ab = _conj_intro(b, b.hyp(a), b.hyp(bf))
    fwd = _deduction_body(_deduction_body(
        b.build(conclusion=b.mp(hp, ab), hypotheses={packed, a, bf}), bf), a)

    b2 = ProofBuilder(calculus)
    hc = b2.hyp(curried)
    hab = b2.hyp(Conj(a, bf))
    left = _conj_elim(b2, hab, SchemeId.AX7)
    right = _conj_elim(b2, hab, SchemeId.AX8)
    bwd = _deduction_body(
        b2.build(conclusion=b2.mp(b2.mp(hc, left), right),
                 hypotheses={curried, Conj(a, bf)}), Conj(a, bf))
    return EquivalencePair(fwd, bwd)


def conj_reassociation(source: Formula, target: Formula,
                       calculus=CalculusId.IC) -> EquivalencePair:
    """Derivability pair between two conjunction trees over the same leaves
    (Ax7/Ax8 tear-down, Ax9 rebuild)."""

    def one_way(src: Formula, dst: Formula) -> Derivation:
        b = ProofBuilder(calculus)
        table: dict = {}
        _extract_conjuncts(b, b.hyp(src), table)
        out = _rebuild_conjunction(b, dst, table)
        return b.build(conclusion=out, hypotheses={src})

    return EquivalencePair(one_way(source, target), one_way(target, source))


def l2_23(*formulas, calculus=CalculusId.IC) -> EquivalencePair:
    if len(formulas) < 2:
        raise TacticError("2.23 needs at least one leading conjunct")
    left = Conj(conj_chain(formulas[:-1]), formulas[-1])
    return conj_reassociation(left, conj_chain(formulas), calculus)


def _distribution(c, a, bf, calculus, c_first: bool) -> EquivalencePair:
    """Lemmas 2.25 (c_first) and 2.26 as one derivability pair, c v a & b ⇄
    (c v a) & (c v b) with c the left disjunct of every disjunction when
    c_first and the right one otherwise.  The backward half splits on
    c v b (2.25) or a v c (2.26) before the other, as the lemmas' own
    proofs do."""

    def order(c_side, other):         # the two disjuncts, left one first
        return (c_side, other) if c_first else (other, c_side)

    ab = Conj(a, bf)
    left = Disj(*order(c, ab))
    side_a, side_b = Disj(*order(c, a)), Disj(*order(c, bf))
    right = Conj(side_a, side_b)

    b = ProofBuilder(calculus)
    h = b.hyp(left)

    def half(side, scheme):           # left ⊢ side, a & b by its projection
        proj = _into(b, b.axiom(scheme, A=a, B=bf), side)
        return _reroute(b, h, side, {ab: proj})

    s_a, s_b = half(side_a, SchemeId.AX7), half(side_b, SchemeId.AX8)
    fwd = b.build(conclusion=_conj_intro(b, s_a, s_b), hypotheses={left})

    b2 = ProofBuilder(calculus)
    hr = b2.hyp(right)
    s1 = _conj_elim(b2, hr, SchemeId.AX7)
    s2 = _conj_elim(b2, hr, SchemeId.AX8)
    inner, outer = order(bf, a)
    s_inner, s_outer = order(s2, s1)

    # inner -> (outer -> left)
    m = ProofBuilder(calculus)
    hyps = {f: m.hyp(f) for f in (inner, outer)}
    lift = _reroute(m, _conj_intro(m, hyps[a], hyps[bf]), left)
    m_line = b2.include(_deduction_body(_deduction_body(
        m.build(conclusion=lift), outer), inner))

    # c -> (outer -> left)
    k = ProofBuilder(calculus)
    lx = _reroute(k, k.hyp(c), left)
    weak = k.mp(k.axiom(SchemeId.AX1, A=left, B=outer), lx)
    c_line = b2.include(_deduction_body(k.build(conclusion=weak), c))

    outer_left = _reroute(b2, s_inner, Impl(outer, left),
                          {c: c_line, inner: m_line})
    out = _reroute(b2, s_outer, left, {outer: outer_left})
    bwd = b2.build(conclusion=out, hypotheses={right})
    return EquivalencePair(fwd, bwd)


def l2_25(c, a, bf, calculus=CalculusId.P) -> EquivalencePair:
    return _distribution(c, a, bf, calculus, c_first=True)


def l2_26(a, bf, c, calculus=CalculusId.P) -> EquivalencePair:
    return _distribution(c, a, bf, calculus, c_first=False)


def l5_1(bf, c, df, calculus=CalculusId.I) -> Derivation:
    b = ProofBuilder(calculus)
    h_bd = b.hyp(Impl(bf, df))
    h_cd = b.hyp(Impl(c, df))
    h_pc = b.hyp(Impl(Impl(bf, c), c))
    dc_c = b.include(l2_10(bf, c, df, calculus),
                     hyp_map={Impl(Impl(bf, c), c): h_pc, Impl(bf, df): h_bd})
    dc_d = _compose(b, dc_c, h_cd)                    # (d -> c) -> d
    peirce = b.axiom(SchemeId.AX3, A=df, B=c)
    return b.build(conclusion=b.mp(peirce, dc_d))


# ---------------------------------------------------------------------------
# substitution of equivalents (congruence recursion along a path)

def _congruence(context: Formula, direction: str,
                pair: EquivalencePair) -> EquivalencePair:
    """Lift a derivability pair a ⇄ b one level: replace the child of
    `context` on `direction` (a) and produce the pair between the contexts."""
    bf, calculus = pair.right, pair.calculus
    other = context.right if direction == "left" else context.left
    ctor = type(context)
    new_context = ctor(*((bf, other) if direction == "left" else (other, bf)))

    def one_way(src: Formula, dst: Formula, inner_fwd: Derivation,
                inner_bwd: Derivation) -> Derivation:
        # inner_fwd: {old child} ⊢ new child; inner_bwd: the converse
        old_child = subformula_at(src, (direction,))
        new_child = subformula_at(dst, (direction,))
        b = ProofBuilder(calculus)
        h = b.hyp(src)
        if ctor is Impl:
            # assume the new antecedent, carry it back, MP, carry forward
            got = b.hyp(dst.left)
            if direction == "left":
                got = b.include(inner_bwd, hyp_map={new_child: got})
            out = b.mp(h, got)
            if direction == "right":
                out = b.include(inner_fwd, hyp_map={old_child: out})
            return _deduction_body(
                b.build(conclusion=out, hypotheses={src, dst.left}), dst.left)
        if ctor is Disj:
            child_imp = b.include(_deduction_body(inner_fwd, old_child))
            out = _reroute(b, h, dst, {old_child: _into(b, child_imp, dst)})
            return b.build(conclusion=out, hypotheses={src})
        table: dict = {}                  # &: tear down, swap, rebuild
        _extract_conjuncts(b, h, table)
        table[new_child] = b.include(inner_fwd,
                                     hyp_map={old_child: table[old_child]})
        return b.build(conclusion=_rebuild_conjunction(b, dst, table),
                       hypotheses={src})

    fwd = one_way(context, new_context, pair.forward, pair.backward)
    bwd = one_way(new_context, context, pair.backward, pair.forward)
    return EquivalencePair(fwd, bwd)


def substitute_equivalents(c: Formula, path,
                           pair: EquivalencePair) -> EquivalencePair:
    """RSE: the pair between c and c with pair.left at `path` replaced by
    pair.right, built by congruence recursion along the path.  The halves
    are unchecked."""
    path = tuple(path)
    pair = as_derivability(pair)
    if subformula_at(c, path) != pair.left:
        raise TacticError(
            f"formula at path {path} is {subformula_at(c, path)}, not {pair.left}")
    current = pair
    for depth in range(len(path) - 1, -1, -1):
        context = subformula_at(c, path[:depth])
        current = _congruence(context, path[depth], current)
    return current


# ---------------------------------------------------------------------------
# the LemmaId dispatch surface

class LemmaId(Enum):
    """The paper's lemmas, each stated once: its number and its builder,
    whose parameters before `calculus` are its formula arguments (at least
    two for a variadic one) and whose `calculus` default is its least
    calculus.  2.20 and 2.24 are operations and have no builder."""

    def __new__(cls, number: str, builder=None):
        member = object.__new__(cls)
        member._value_ = number
        member.builder = builder
        return member

    L2_5 = "2.5", l2_5
    L2_6 = "2.6", l2_6
    L2_7 = "2.7", l2_7
    L2_8 = "2.8", l2_8
    L2_9 = "2.9", l2_9
    L2_10 = "2.10", l2_10
    L2_11 = "2.11", l2_11
    L2_12 = "2.12", l2_12
    L2_13 = "2.13", l2_13
    L2_14 = "2.14", l2_14
    L2_15 = "2.15", l2_15
    L2_16 = "2.16", l2_16
    L2_17 = "2.17", l2_17
    L2_18 = "2.18", l2_18
    L2_19 = "2.19", l2_19
    L2_20 = "2.20"
    L2_21 = "2.21", l2_21
    L2_22 = "2.22", l2_22
    L2_23 = "2.23", l2_23
    L2_24 = "2.24"
    L2_25 = "2.25", l2_25
    L2_26 = "2.26", l2_26
    L5_1 = "5.1", l5_1


def lemma(lemma_id: LemmaId, args, target: CalculusId):
    """Instantiate a lemma schema in the target calculus.

    For L2_16 pass args=(sources, targets) as two sequences; for the other
    list forms (L2_15, L2_23) pass the leading formulas followed by the
    final one.  L2_20 and L2_24 are not schematic derivations; use
    pair_to_biconditional / biconditional_to_pair and conjoin /
    split_conjunction respectively.  The result is kernel-checked: a
    derivation, or both halves of an EquivalencePair: 2.15 a derivability
    pair, the others the theses the paper states.
    """
    if not isinstance(lemma_id, LemmaId):
        raise TacticError(f"lemma_id must be a LemmaId, not {lemma_id!r}")
    if lemma_id.builder is None:
        raise TacticError(
            f"{lemma_id.value} is an operation, not a derivation schema; "
            "see pair_to_biconditional/biconditional_to_pair and "
            "conjoin/split_conjunction")
    *formal, calculus = inspect.signature(lemma_id.builder).parameters.values()
    minimum = calculus.default
    if not isinstance(target, CalculusId):
        raise TacticError(f"target must be a CalculusId, not {target!r}")
    if not target.extends(minimum):
        raise TacticError(f"{target} lacks the schemes needed (requires {minimum})")
    try:
        if lemma_id is LemmaId.L2_16:
            sources, targets = args
            args = (list(sources), list(targets))
            formulas = args[0] + args[1]
        else:
            args = formulas = list(args)
    except (TypeError, ValueError):
        shape = ("two sequences of formulas, (sources, targets)"
                 if lemma_id is LemmaId.L2_16 else "a sequence of formulas")
        raise TacticError(f"{lemma_id.value} takes {shape}") from None
    if formal[0].kind is inspect.Parameter.VAR_POSITIONAL:
        if len(formulas) < 2:
            raise TacticError(f"{lemma_id.value} needs at least two formulas")
    elif lemma_id is not LemmaId.L2_16 and len(formulas) != len(formal):
        raise TacticError(
            f"{lemma_id.value} takes {len(formal)} formulas, got {len(formulas)}")
    for f in formulas:
        if not isinstance(f, (Atom, Impl, Disj, Conj)):
            raise TacticError(f"{lemma_id.value} takes formulas, got {f!r}")
        if not target.admits(f):
            raise CheckError([StepError(-1, "fragment-violation",
                                        f"{f} outside {target}")])
    result = lemma_id.builder(*args, calculus=target)
    if isinstance(result, EquivalencePair):
        if lemma_id is not LemmaId.L2_15:
            result = as_thesis(result)
        verify(result.forward)
        verify(result.backward)
    else:
        verify(result)
    return result
