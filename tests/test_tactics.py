import pytest
from hypothesis import assume, given, settings, strategies as st

from posprop.formula import Atom, Conj, Disj, Impl, conj_chain, parse
from posprop.kernel import (AxiomStep, CalculusId, CheckError, Derivation,
                            HypStep, MPStep, SchemeId, check, verify)
from posprop.semantics import entails, evaluate, assignments_over
from posprop.formula import atoms_of
from posprop.kalmar import build_line, prove
from posprop.tactics import (DERIVABILITY, THESIS, EquivalencePair, LemmaId,
                             ProofBuilder, TacticError, as_derivability,
                             as_thesis, biconditional_to_pair, compose_pairs,
                             conj_reassociation, conjoin, deduction, l2_18,
                             l2_21, l2_22, l2_25, l2_26, lemma,
                             pair_to_biconditional,
                             reflexive_pair, split_conjunction,
                             substitute_equivalents, _deduction_body,
                             _inject, _into, _prune as prune, _reroute,
                             _route, hypothesis)

from test_formula import formulas

P1, P2, P3 = Atom(1), Atom(2), Atom(3)


# the golden statements: (lemma id, args, calculus, hypotheses, conclusion)
# shapes follow the standard lemma catalogue for these calculi
GOLDEN_DERIVATIONS = [
    (LemmaId.L2_5, [P1], CalculusId.I, [], "p1 -> p1"),
    (LemmaId.L2_6, [P1, P2, P3], CalculusId.I,
     ["p1 -> p2", "p2 -> p3"], "p1 -> p3"),
    (LemmaId.L2_7, [P1, P2], CalculusId.I, [], "p1 -> (p1 -> p2) -> p2"),
    (LemmaId.L2_8, [P1, P2], CalculusId.I, [], "p1 -> (p2 -> p1) -> p1"),
    (LemmaId.L2_9, [P1, P2], CalculusId.I, [],
     "(p1 -> p1 -> p2) -> p1 -> p2"),
    (LemmaId.L2_10, [P1, P2, P3], CalculusId.I,
     ["(p1 -> p2) -> p2", "p1 -> p3"], "(p3 -> p2) -> p2"),
    (LemmaId.L2_11, [P1, P2], CalculusId.ID, [], "p1 v (p1 -> p2)"),
    (LemmaId.L2_12, [P1, P2, P3, Atom(4)], CalculusId.ID,
     ["p1 v p2", "p1 -> p3", "p2 -> p4"], "p3 v p4"),
    (LemmaId.L2_13, [P1, P2, P3], CalculusId.ID,
     ["p1 -> p2"], "p2 v (p1 -> p3)"),
    (LemmaId.L2_14, [P1, P2, P3], CalculusId.ID, ["p1"], "p2 v (p3 -> p1)"),
    (LemmaId.L2_17, [P1, P2, P3], CalculusId.ID,
     ["p1 v p2", "p3 -> p1"], "(p2 -> p3) -> p1"),
    (LemmaId.L2_18, [P1, P2], CalculusId.ID, ["p1 v p2", "p1 -> p2"], "p2"),
    (LemmaId.L2_19, [P1, P2], CalculusId.ID, ["(p1 -> p2) -> p2"], "p1 v p2"),
    (LemmaId.L5_1, [P1, P2, P3], CalculusId.I,
     ["p1 -> p3", "p2 -> p3", "(p1 -> p2) -> p2"], "p3"),
]

# (lemma id, args, calculus, left formula, right formula, mode)
GOLDEN_PAIRS = [
    (LemmaId.L2_15, [P1, P2, P3], CalculusId.ID,
     "(p1 v p2) v p3", "p1 v p2 v p3", DERIVABILITY),
    (LemmaId.L2_21, [P1, P2, P3], CalculusId.IC,
     "p1 -> p2 & p3", "(p1 -> p2) & (p1 -> p3)", THESIS),
    (LemmaId.L2_22, [P1, P2, P3], CalculusId.IC,
     "p1 & p2 -> p3", "p1 -> p2 -> p3", THESIS),
    (LemmaId.L2_23, [P1, P2, P3], CalculusId.IC,
     "(p1 & p2) & p3", "p1 & p2 & p3", THESIS),
    (LemmaId.L2_25, [P3, P1, P2], CalculusId.P,
     "p3 v p1 & p2", "(p3 v p1) & (p3 v p2)", THESIS),
    (LemmaId.L2_26, [P1, P2, P3], CalculusId.P,
     "p1 & p2 v p3", "(p1 v p3) & (p2 v p3)", THESIS),
]


# each schema's least calculus, with arguments it takes
LEAST_CALCULUS = {
    LemmaId.L2_5: (CalculusId.I, [P1]),
    LemmaId.L2_6: (CalculusId.I, [P1, P2, P3]),
    LemmaId.L2_7: (CalculusId.I, [P1, P2]),
    LemmaId.L2_8: (CalculusId.I, [P1, P2]),
    LemmaId.L2_9: (CalculusId.I, [P1, P2]),
    LemmaId.L2_10: (CalculusId.I, [P1, P2, P3]),
    LemmaId.L2_11: (CalculusId.ID, [P1, P2]),
    LemmaId.L2_12: (CalculusId.ID, [P1, P2, P3, Atom(4)]),
    LemmaId.L2_13: (CalculusId.ID, [P1, P2, P3]),
    LemmaId.L2_14: (CalculusId.ID, [P1, P2, P3]),
    LemmaId.L2_15: (CalculusId.ID, [P1, P2, P3]),
    LemmaId.L2_16: (CalculusId.ID, ([P2, P1], [P1, P2])),
    LemmaId.L2_17: (CalculusId.ID, [P1, P2, P3]),
    LemmaId.L2_18: (CalculusId.ID, [P1, P2]),
    LemmaId.L2_19: (CalculusId.ID, [P1, P2]),
    LemmaId.L2_21: (CalculusId.IC, [P1, P2, P3]),
    LemmaId.L2_22: (CalculusId.IC, [P1, P2, P3]),
    LemmaId.L2_23: (CalculusId.IC, [P1, P2, P3]),
    LemmaId.L2_25: (CalculusId.P, [P1, P2, P3]),
    LemmaId.L2_26: (CalculusId.P, [P1, P2, P3]),
    LemmaId.L5_1: (CalculusId.I, [P1, P2, P3]),
}


class TestConstructors:
    def test_hypothesis(self):
        d = hypothesis(CalculusId.ID, parse("p1 v p2"))
        assert d.conclusion == parse("p1 v p2")


class TestPrune:
    def test_drops_uncited_steps(self):
        imp = parse("p1 -> p2")
        d = Derivation(CalculusId.I, frozenset([imp, Atom(1), Atom(3)]),
                       (HypStep(Atom(3)),           # dead
                        HypStep(imp), HypStep(Atom(1)),
                        MPStep(1, 2, Atom(2))))
        out = prune(d)
        assert len(out) == 3
        assert out.conclusion == d.conclusion
        assert out.hypotheses == d.hypotheses
        assert check(out) == []

    def test_reoffsets_mp_indices(self):
        imp = parse("p1 -> p2")
        d = Derivation(CalculusId.I, frozenset([imp, Atom(1)]),
                       (HypStep(imp), HypStep(Atom(3)),   # dead, undeclared
                        HypStep(Atom(1)), MPStep(0, 2, Atom(2))))
        assert check(d) != []          # the dead line is itself invalid
        out = prune(d)
        assert check(out) == []        # but it is not cited, so pruning heals
        assert out.conclusion == Atom(2)

    def test_fully_live_returned_unchanged(self):
        d = hypothesis(CalculusId.I, Atom(1))
        assert prune(d) is d


class TestDeduction:
    def test_trivial_hypothesis(self):
        d = hypothesis(CalculusId.I, P1)
        out = deduction(d, P1)
        assert out.conclusion == parse("p1 -> p1")
        assert not out.hypotheses
        assert len(out) == 5

    def test_discharge_minor(self):
        imp = parse("p1 -> p2")
        d = verify(Derivation(CalculusId.I, frozenset([imp, P1]),
                              (HypStep(imp), HypStep(P1), MPStep(0, 1, P2))))
        out = deduction(d, P1)
        assert out.conclusion == parse("p1 -> p2")
        assert out.hypotheses == frozenset([imp])

    def test_both_orders(self):
        imp = parse("p1 -> p2")
        d = verify(Derivation(CalculusId.I, frozenset([imp, P1]),
                              (HypStep(imp), HypStep(P1), MPStep(0, 1, P2))))
        one = deduction(deduction(d, P1), imp)
        other = deduction(deduction(d, imp), P1)
        assert one.conclusion == parse("(p1 -> p2) -> p1 -> p2")
        assert other.conclusion == parse("p1 -> (p1 -> p2) -> p2")

    def test_not_a_hypothesis(self):
        d = hypothesis(CalculusId.I, P1)
        with pytest.raises(TacticError):
            deduction(d, P2)

    def test_size_bound(self):
        d = lemma(LemmaId.L2_18, [P1, P2], CalculusId.ID)
        out = deduction(d, parse("p1 v p2"))
        assert len(out) <= 3 * len(d) + 10

    def test_invalid_input_rejected(self):
        bogus = Derivation(CalculusId.I, frozenset([P1]),
                           (HypStep(P1), MPStep(0, 0, P2)))
        with pytest.raises(CheckError):
            deduction(bogus, P1)


def _cites(d, a):
    """Per step of d: whether it cites the hypothesis a, directly or
    through the premises of its MP steps."""
    out = []
    for step in d.steps:
        if isinstance(step, MPStep):
            out.append(out[step.major] or out[step.minor])
        else:
            out.append(isinstance(step, HypStep) and step.formula == a)
    return out


def _chain(n):
    """p1 -> p2 -> ... -> pn -> p1."""
    f = P1
    for i in range(n, 0, -1):
        f = Impl(Atom(i), f)
    return f


class TestDependencyAwareDeduction:
    """The deduction theorem lifts only the steps that cite the
    discharged hypothesis; the others are copied as they are."""

    @given(formulas(max_depth=3),
           st.lists(st.booleans(), min_size=3, max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_line_discharge(self, f, values, data):
        v = {i + 1: value for i, value in enumerate(values)}
        d = build_line(v, f, CalculusId.P).derivation
        assume(d.hypotheses)
        a = data.draw(st.sampled_from(sorted(d.hypotheses, key=str)))
        out = _deduction_body(d, a)
        assert check(out) == []
        assert out.conclusion == Impl(a, d.conclusion)
        assert out.hypotheses == d.hypotheses - {a}
        cites = _cites(d, a)
        # a step that does not cite a is copied, or pruned when nothing
        # cites it any more, but never lifted through Ax2
        uncited = {s.formula for s, c in zip(d.steps, cites) if not c}
        in_d = {s.formula for s in d.steps}
        assert not any(s.formula.left.left == a
                       and s.formula.right.right.right in uncited
                       for s in out.steps
                       if isinstance(s, AxiomStep) and s.scheme is SchemeId.AX2
                       and s.formula not in in_d)
        if not cites[-1]:
            assert len(out) <= len(d) + 2

    @pytest.mark.parametrize("a", [P3, Atom(4)], ids=["uncited", "absent"])
    def test_independent_conclusion_costs_two_steps(self, a):
        # an uncited hypothesis, or none at all: d, then Ax1 and MP
        imp = parse("p1 -> p2")
        d = verify(Derivation(CalculusId.I, frozenset([imp, P1, P3]),
                              (HypStep(imp), HypStep(P1), MPStep(0, 1, P2))))
        out = _deduction_body(d, a)
        assert check(out) == []
        assert out.conclusion == Impl(a, P2)
        assert out.hypotheses == d.hypotheses - {a}
        assert out.steps[:3] == d.steps
        assert len(out) == len(d) + 2

    def test_line_the_builder_holds_is_reused(self):
        # step 4 cites p1, but step 1 already proves its formula p2, so
        # step 6 is an MP of two copied lines and only p3 is lifted: 5
        # steps, where simulating step 6 by Ax2 takes 7
        imp, then = parse("p1 -> p2"), parse("p2 -> p3")
        d = verify(Derivation(CalculusId.I, frozenset([P2, imp, P1, then]),
                              (HypStep(P2), HypStep(imp), HypStep(P1),
                               MPStep(1, 2, P2), HypStep(then),
                               MPStep(4, 3, P3))))
        out = _deduction_body(d, P1)
        assert check(out) == []
        assert out.hypotheses == d.hypotheses - {P1}
        assert out.steps == (HypStep(P2), HypStep(then), MPStep(1, 0, P3),
                             AxiomStep(SchemeId.AX1, parse("p3 -> p1 -> p3")),
                             MPStep(3, 2, parse("p1 -> p3")))

    def test_step_the_identity_proof_holds_is_reused(self):
        # discharging p1 from the p1-true leaf builds the identity proof of
        # p1 -> p1 first; its third line is this formula, so the leaf's
        # step for it is copied from there rather than lifted (48 steps
        # without that lookup)
        f = parse("(p1 -> p1 -> p1) -> p1 -> p1")
        d = prove(f, CalculusId.ID)
        assert d.conclusion == f and not d.hypotheses
        assert len(d) <= 3

    def test_discharge_cites_a_line_its_builder_holds(self):
        # the builder already proves p2, the formula of the step that cites
        # p1, so the discharge copies that line and lifts only p3; the same
        # discharge in a fresh builder simulates both MPs by Ax2
        imp, then = parse("p1 -> p2"), parse("p2 -> p3")
        d = verify(Derivation(CalculusId.I, frozenset([imp, P1, then]),
                              (HypStep(imp), HypStep(P1), MPStep(0, 1, P2),
                               HypStep(then), MPStep(3, 2, P3))))
        spliced, fresh = ProofBuilder(CalculusId.I), ProofBuilder(CalculusId.I)
        spliced.hyp(P2)
        fresh.hyp(P2)
        out = spliced.build(conclusion=spliced.discharge(d, P1))
        ref = fresh.build(conclusion=fresh.include(_deduction_body(d, P1)))
        assert check(out) == [] and out.conclusion == Impl(P1, P3)
        assert HypStep(P2) in out.steps and HypStep(P2) not in ref.steps
        assert len(out) < len(ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_chain_proofs_stay_linear(self, n):
        assert len(prove(_chain(n), CalculusId.ID)) <= 6 * n


class TestGoldenLemmas:
    @pytest.mark.parametrize("lid,args,calc,hyps,concl", GOLDEN_DERIVATIONS,
                             ids=lambda v: v.value if isinstance(v, LemmaId) else None)
    def test_derivation_statements(self, lid, args, calc, hyps, concl):
        d = lemma(lid, args, calc)
        assert check(d) == []
        assert d.calculus is calc
        assert d.hypotheses == frozenset(parse(h) for h in hyps)
        assert d.conclusion == parse(concl)
        assert prune(d) is d

    @pytest.mark.parametrize("lid,args,calc,left,right,mode", GOLDEN_PAIRS,
                             ids=lambda v: v.value if isinstance(v, LemmaId) else None)
    def test_pair_statements(self, lid, args, calc, left, right, mode):
        p = lemma(lid, args, calc)
        assert isinstance(p, EquivalencePair)
        assert p.mode == mode
        assert p.left == parse(left)
        assert p.right == parse(right)
        assert check(p.forward) == [] and check(p.backward) == []
        assert prune(p.forward) is p.forward
        assert prune(p.backward) is p.backward

    def test_l2_16(self):
        d = lemma(LemmaId.L2_16, ([P2, P1], [P1, P3, P2]), CalculusId.ID)
        assert d.hypotheses == frozenset([parse("p2 v p1")])
        assert d.conclusion == parse("p1 v p3 v p2")

    def test_l2_16_inclusion_checked(self):
        with pytest.raises(TacticError):
            lemma(LemmaId.L2_16, ([P1, P2], [P1, P3]), CalculusId.ID)

    def test_l2_16_needs_a_source(self):
        with pytest.raises(TacticError):
            lemma(LemmaId.L2_16, ([], [P1]), CalculusId.ID)

    def test_l2_23_of_two_formulas_is_reflexive(self):
        # conj_reassociation of a formula with itself is {a} ⊢ a both ways
        f = parse("p1 & p2")
        assert conj_reassociation(f, f) == reflexive_pair(f, CalculusId.IC)
        p = lemma(LemmaId.L2_23, [P1, P2], CalculusId.IC)
        assert p.left == p.right == f

    def test_l2_15_singleton_is_reflexive(self):
        p = lemma(LemmaId.L2_15, [P1, P2], CalculusId.ID)
        assert p.left == p.right == parse("p1 v p2")

    def test_operations_not_schemas(self):
        for lid in (LemmaId.L2_20, LemmaId.L2_24):
            with pytest.raises(TacticError):
                lemma(lid, [P1], CalculusId.P)

    def test_insufficient_calculus(self):
        with pytest.raises(TacticError):
            lemma(LemmaId.L2_11, [P1, P2], CalculusId.I)
        with pytest.raises(TacticError):
            lemma(LemmaId.L2_25, [P1, P2, P3], CalculusId.ID)
        # a calculus with the schemes, but an argument outside its fragment
        with pytest.raises(CheckError) as exc:
            lemma(LemmaId.L2_5, [parse("p1 v p2")], CalculusId.I)
        assert [e.code for e in exc.value.errors] == ["fragment-violation"]

    def test_arity_checked(self):
        with pytest.raises(TacticError):
            lemma(LemmaId.L2_5, [P1, P2], CalculusId.I)

    @pytest.mark.parametrize("lid", LEAST_CALCULUS, ids=lambda v: v.value)
    def test_least_calculus(self, lid):
        minimum, args = LEAST_CALCULUS[lid]
        lemma(lid, args, minimum)          # kernel-checked by lemma()
        for calc in CalculusId:
            if not calc.extends(minimum):
                with pytest.raises(TacticError):
                    lemma(lid, args, calc)

    def test_least_calculus_table_covers_every_schema(self):
        operations = {LemmaId.L2_20, LemmaId.L2_24}
        assert set(LEAST_CALCULUS) == set(LemmaId) - operations

    @pytest.mark.parametrize("lid,args,calc", [
        (LemmaId.L2_16, [P1, P2], CalculusId.ID),       # not two sequences
        (LemmaId.L2_16, [P1, P1, P1], CalculusId.ID),   # three, not two
        (LemmaId.L2_5, ["p1"], CalculusId.I),           # text, not a formula
        (LemmaId.L2_5, P1, CalculusId.I),               # not a sequence
        (LemmaId.L2_5, [P1], "I"),                      # not a CalculusId
        ("2.5", [P1], CalculusId.I),                    # not a LemmaId
    ], ids=["l2_16-atoms", "l2_16-three", "l2_5-text", "l2_5-bare",
            "l2_5-calculus-text", "lemma-id-text"])
    def test_malformed_arguments_are_tactic_errors(self, lid, args, calc):
        with pytest.raises(TacticError):
            lemma(lid, args, calc)

    def test_degenerate_arguments(self):
        # repeated metavariables must not break the templates
        for lid, args, calc, *_ in GOLDEN_DERIVATIONS:
            d = lemma(lid, [P1] * len(args), calc)
            assert check(d) == []
        for lid, args, calc, *_ in GOLDEN_PAIRS:
            p = lemma(lid, [P1] * len(args), calc)
            assert check(p.forward) == [] and check(p.backward) == []
        # compound overlaps: c = a & b, and a a disjunct of c
        for c, a, bf in ((Conj(P1, P2), P1, P2), (Disj(P1, P2), P1, P3)):
            statements = {
                LemmaId.L2_25: ((c, a, bf), Disj(c, Conj(a, bf)),
                                Conj(Disj(c, a), Disj(c, bf))),
                LemmaId.L2_26: ((a, bf, c), Disj(Conj(a, bf), c),
                                Conj(Disj(a, c), Disj(bf, c)))}
            for lid, (args, left, right) in statements.items():
                p = lemma(lid, args, CalculusId.P)
                assert p.forward.conclusion == Impl(left, right)
                assert p.backward.conclusion == Impl(right, left)
                assert check(p.forward) == [] and check(p.backward) == []
        # a v context whose other side is the new child
        p = lemma(LemmaId.L2_15, [P1, P2, P3], CalculusId.ID)
        old, new = p.left, p.right
        for c, path in ((Disj(old, new), ("left",)), (Disj(new, old), ("right",))):
            out = substitute_equivalents(c, path, p)
            assert out.left == c and out.right == Disj(new, new)
            assert check(out.forward) == [] and check(out.backward) == []

    def test_lemmas_are_semantically_sound(self):
        for lid, args, calc, hyps, concl in GOLDEN_DERIVATIONS:
            assert entails([parse(h) for h in hyps], parse(concl))


class TestEquivalencePairs:
    def test_mode_conversion_round_trip(self):
        p = lemma(LemmaId.L2_15, [P1, P2, P3], CalculusId.ID)
        t = as_thesis(p)
        assert t.forward.conclusion == Impl(p.left, p.right)
        back = as_derivability(t)
        assert back.left == p.left and back.right == p.right

    def test_compose(self):
        p = lemma(LemmaId.L2_21, [P1, P2, P3], CalculusId.P)
        q = reflexive_pair(p.right, CalculusId.P)
        c = compose_pairs(p, q)
        assert c.left == p.left and c.right == p.right

    def test_compose_mismatch(self):
        p = reflexive_pair(P1, CalculusId.I)
        q = reflexive_pair(P2, CalculusId.I)
        with pytest.raises(TacticError):
            compose_pairs(p, q)

    def test_biconditional_round_trip(self):
        p = lemma(LemmaId.L2_22, [P1, P2, P3], CalculusId.IC)
        packed = pair_to_biconditional(p)
        assert packed.conclusion == Conj(Impl(p.left, p.right),
                                         Impl(p.right, p.left))
        back = biconditional_to_pair(packed)
        assert back.left == p.left and back.right == p.right

    def test_biconditional_needs_conjunction(self):
        # an ID pair has no Ax9 to pack it with
        p = lemma(LemmaId.L2_15, [P1, P2, P3], CalculusId.ID)
        with pytest.raises(TacticError):
            pair_to_biconditional(p)

    def test_biconditional_to_pair_requires_closed(self):
        f = parse("(p1 -> p2) & (p2 -> p1)")
        with pytest.raises(TacticError):
            biconditional_to_pair(hypothesis(CalculusId.IC, f))


PAIR_BUILDERS = {LemmaId.L2_21: l2_21, LemmaId.L2_22: l2_22,
                 LemmaId.L2_25: l2_25, LemmaId.L2_26: l2_26}


def build_pair(lid, args, calc):
    """The pair builder behind lemma(lid, args, calc), called directly."""
    if lid is LemmaId.L2_23:      # 2.23 is conj_reassociation on its statement
        *lead, last = args
        return conj_reassociation(Conj(conj_chain(lead), last),
                                  conj_chain(args), calc)
    return PAIR_BUILDERS[lid](*args, calc)


class TestPairBuilders:
    """The builders behind lemma() return derivability pairs; lemma()
    turns them into the theses the paper states."""

    @pytest.mark.parametrize("degenerate", [False, True],
                             ids=["golden", "all-p1"])
    @pytest.mark.parametrize("lid,args,calc", [
        row[:3] for row in GOLDEN_PAIRS if row[0] is not LemmaId.L2_15],
        ids=lambda v: v.value if isinstance(v, LemmaId) else None)
    def test_builders_return_derivability_pairs(self, lid, args, calc,
                                                degenerate):
        if degenerate:
            args = [P1] * len(args)
        stated = lemma(lid, args, calc).forward.conclusion   # left -> right
        p = build_pair(lid, args, calc)
        assert p.mode == DERIVABILITY
        assert p.forward.hypotheses == frozenset([stated.left])
        assert p.backward.hypotheses == frozenset([stated.right])
        assert p.forward.conclusion == stated.right
        assert p.backward.conclusion == stated.left
        assert check(p.forward) == [] and check(p.backward) == []


class TestSubstitution:
    def test_root(self):
        p = lemma(LemmaId.L2_25, [P3, P1, P2], CalculusId.P)
        out = substitute_equivalents(p.left, (), p)
        assert out.left == p.left and out.right == p.right

    def test_nested(self):
        p = lemma(LemmaId.L2_25, [P3, P1, P2], CalculusId.P)
        c = Impl(P1, Disj(P2, p.left))
        out = substitute_equivalents(c, ("right", "right"), p)
        assert out.left == c
        assert out.right == Impl(P1, Disj(P2, p.right))
        assert check(out.forward) == [] and check(out.backward) == []

    def test_mismatch_at_path(self):
        p = reflexive_pair(P1, CalculusId.I)
        with pytest.raises(TacticError):
            substitute_equivalents(Impl(P2, P3), ("left",), p)

    @given(formulas(max_depth=3))
    @settings(max_examples=25, deadline=None)
    def test_congruence_truth_preserving(self, c):
        # replace the leftmost deepest atom by itself disjoined trivially:
        # p ⇄ p via reflexivity lifted through any context is still p ⇄ p
        path = []
        cur = c
        while not isinstance(cur, Atom):
            path.append("left")
            cur = cur.left
        p = reflexive_pair(cur, CalculusId.P)
        out = substitute_equivalents(c, tuple(path), p)
        assert out.left == c and out.right == c
        # semantic sanity: derivability both ways implies truth-table equal
        for v in assignments_over(atoms_of(c)):
            assert evaluate(v, out.left) == evaluate(v, out.right)


class TestConjunctions:
    def closed(self, text):
        b = ProofBuilder(CalculusId.P)
        from posprop.tactics import _identity
        return b.build(conclusion=_identity(b, parse(text)), hypotheses=())

    def test_conjoin_and_split(self):
        parts = [self.closed("p1"), self.closed("p2"), self.closed("p3")]
        d = conjoin(parts)
        assert d.conclusion == parse("(p1 -> p1) & (p2 -> p2) & (p3 -> p3)")
        back = split_conjunction(d, 3)
        assert [x.conclusion for x in back] == [p.conclusion for p in parts]
        assert all(not x.hypotheses for x in back)

    def test_split_of_a_repeated_conjunct(self):
        a, bf = self.closed("p1"), self.closed("p2")
        parts = split_conjunction(conjoin([a, a, bf]), 3)
        assert [x.conclusion for x in parts] == [a.conclusion, a.conclusion,
                                                 bf.conclusion]
        assert all(not x.hypotheses and check(x) == [] for x in parts)
        assert len(parts[1]) <= len(parts[0])

    @pytest.mark.parametrize("n", [0, -1])
    def test_split_needs_a_positive_count(self, n):
        d = conjoin([self.closed("p1"), self.closed("p2")])
        with pytest.raises(TacticError):
            split_conjunction(d, n)

    def test_conjoin_singleton(self):
        d = conjoin([self.closed("p1")])
        assert d.conclusion == parse("p1 -> p1")

    def test_conjoin_requires_closed(self):
        open_d = hypothesis(CalculusId.P, P1)
        with pytest.raises(TacticError):
            conjoin([open_d])

    def test_conjoin_requires_conj_schemes(self):
        b = ProofBuilder(CalculusId.ID)
        from posprop.tactics import _identity
        d = b.build(conclusion=_identity(b, P1), hypotheses=())
        with pytest.raises(TacticError):
            conjoin([d])


class TestProofBuilder:
    def test_dedup(self):
        b = ProofBuilder(CalculusId.I)
        i = b.axiom(SchemeId.AX1, A=P1, B=P2)
        j = b.axiom(SchemeId.AX1, A=P1, B=P2)
        assert i == j
        assert len(b.steps) == 1

    def test_mp_type_checked(self):
        b = ProofBuilder(CalculusId.I)
        h = b.hyp(P1)
        with pytest.raises(TacticError):
            b.mp(h, h)

    def test_include_with_hyp_map(self):
        inner = lemma(LemmaId.L2_18, [P1, P2], CalculusId.ID)
        b = ProofBuilder(CalculusId.ID)
        ax = b.include(lemma(LemmaId.L2_11, [P1, P2], CalculusId.ID))
        # nonsense mapping targets are rejected by the kernel if misused;
        # here route p1 v p2 to a fresh hypothesis line
        h1 = b.hyp(parse("p1 v p2"))
        h2 = b.hyp(parse("p1 -> p2"))
        out = b.include(inner, hyp_map={parse("p1 v p2"): h1,
                                        parse("p1 -> p2"): h2})
        d = b.build(conclusion=out)
        assert d.conclusion == P2
        assert d.hypotheses == frozenset([parse("p1 v p2"), parse("p1 -> p2")])

    def test_build_freezes_a_non_last_line(self):
        b = ProofBuilder(CalculusId.I)
        first = b.axiom(SchemeId.AX1, A=P1, B=P2)
        b.axiom(SchemeId.AX1, A=P2, B=P1)
        steps = list(b.steps)
        d = b.build(conclusion=first)
        assert d.conclusion == parse("p1 -> p2 -> p1")
        assert b.steps == steps

    def test_second_freeze_matches_a_fresh_builder(self):
        def moves(b):
            first = b.axiom(SchemeId.AX1, A=P1, B=P2)
            b.mp(b.axiom(SchemeId.AX1, A=parse("p1 -> p2 -> p1"), B=P3), first)
            return first

        b = ProofBuilder(CalculusId.I)
        first = moves(b)
        assert b.build(conclusion=first) == b.build(conclusion=first)
        fresh = ProofBuilder(CalculusId.I)
        moves(fresh)
        assert b.build() == fresh.build()
        assert b.build().conclusion == parse("p3 -> p1 -> p2 -> p1")


class TestRouter:
    def test_inject_beside_sibling_is_one_axiom_step(self):
        b = ProofBuilder(CalculusId.ID)
        line = _inject(b, P2, Disj(P1, P2))
        assert len(b.steps) == 1
        assert b.steps[line] == AxiomStep(SchemeId.AX5, parse("p2 -> p1 v p2"))

    def test_inject_into_a_child_before_a_deeper_occurrence(self):
        b = ProofBuilder(CalculusId.ID)
        line = _inject(b, P1, parse("(p1 v p2) v p1"))
        assert len(b.steps) == 1
        assert b.steps[line] == AxiomStep(SchemeId.AX5,
                                          parse("p1 -> (p1 v p2) v p1"))

    def test_inject_along_a_path(self):
        b = ProofBuilder(CalculusId.ID)
        line = _inject(b, P2, parse("p1 v (p2 v p3) v p4"))
        d = b.build(conclusion=line, hypotheses=())
        assert check(d) == [] and d.conclusion == parse("p2 -> p1 v (p2 v p3) v p4")

    def test_reroute_of_the_target_appends_nothing(self):
        b = ProofBuilder(CalculusId.ID)
        h = b.hyp(parse("p1 v p2"))
        assert _reroute(b, h, parse("p1 v p2")) == h
        assert len(b.steps) == 1

    def test_disjunction_in_the_target_is_one_injection(self):
        b = ProofBuilder(CalculusId.ID)
        line = _route(b, parse("p2 v p3"), parse("p1 v p2 v p3"), {})
        assert len(b.steps) == 1
        assert b.steps[line] == AxiomStep(SchemeId.AX5,
                                          parse("p2 v p3 -> p1 v p2 v p3"))

    def test_target_itself_splits_by_cases(self):
        b = ProofBuilder(CalculusId.ID)
        line = _route(b, parse("p1 v p2"), parse("p1 v p2"), {})
        d = b.build(conclusion=line, hypotheses=())
        assert check(d) == [] and len(d) == 5
        assert d.steps[2].scheme is SchemeId.AX6

    def test_leaves_and_into(self):
        b = ProofBuilder(CalculusId.ID)
        target = parse("p3 v p2")
        leaves = {P1: _into(b, b.hyp(parse("p1 -> p2")), target)}
        out = _reroute(b, b.hyp(parse("p1 v p2")), target, leaves)
        d = b.build(conclusion=out)
        assert check(d) == [] and d.conclusion == target
        assert d.hypotheses == frozenset([parse("p1 -> p2"), parse("p1 v p2")])

    def test_into_a_child_of_the_target_is_one_injection(self):
        b = ProofBuilder(CalculusId.ID)
        line = _into(b, b.hyp(parse("p1 -> p2")), parse("p1 v p2"))
        assert b.steps[line] == AxiomStep(SchemeId.AX4, parse("p1 -> p1 v p2"))

    @pytest.mark.parametrize("c,a,bf,most", [
        (Conj(P1, P2), P1, P2, 17), (Conj(P1, P1), P1, P1, 13)],
        ids=["p1&p2", "p1&p1"])
    def test_2_25_forward_injects_c_beside_a_and_b(self, c, a, bf, most):
        # c = a & b is a child of each side c v a, c v b: one Ax4 step,
        # not a route through the a & b projection line
        d = lemma(LemmaId.L2_25, [c, a, bf], CalculusId.P).forward
        assert d.conclusion == Impl(Disj(c, Conj(a, bf)),
                                    Conj(Disj(c, a), Disj(c, bf)))
        assert len(d) <= most

    def test_case_split_of_a_disjunctive_side_is_routed(self):
        # 2.18 with b = p1 v p2: the router splits b by Ax6 over Ax4/Ax5
        # lines, with no Ax1/Ax2 identity of b
        d = l2_18(P3, parse("p1 v p2"), CalculusId.ID)
        assert check(d) == [] and d.conclusion == parse("p1 v p2")
        schemes = {s.scheme for s in d.steps if isinstance(s, AxiomStep)}
        assert schemes <= {SchemeId.AX4, SchemeId.AX5, SchemeId.AX6}

    def test_2_17_injects_a_disjunct_b_of_a(self):
        # b = p1 is a disjunct of a = p1 v p2: the router injects it, and
        # no leaf b -> a cites the hypothesis b -> c that 2.17 discharges
        d = lemma(LemmaId.L2_17, [parse("p1 v p2"), P1, P3], CalculusId.ID)
        assert check(d) == []
        assert d.hypotheses == frozenset([parse("(p1 v p2) v p1"),
                                          parse("p3 -> p1 v p2")])
        assert d.conclusion == parse("(p1 -> p3) -> p1 v p2")
        assert len(d) <= 23

    def test_missing_leaf_is_a_tactic_error(self):
        with pytest.raises(TacticError):
            _route(ProofBuilder(CalculusId.ID), parse("p1 v p3"), P1, {})
