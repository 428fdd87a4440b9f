import random

import pytest

from posprop import kalmar, transform
from posprop.formula import (Atom, Conj, Disj, Impl, atoms_of,
                             enumerate_formulas, parse)
from posprop.kernel import CalculusId, check
from posprop.semantics import (assignments_over, evaluate, find_countermodel,
                               is_tautology)
from posprop.kalmar import (_LINE_CACHE, NotTautology, derive_from_hypotheses,
                            prove)
from posprop.tactics import TacticError, _prune as prune
from posprop.transform import (Decomposition, GammaForm, decompose,
                               decompose_to_implicative, gamma,
                               gamma_equivalence, is_gamma_normal, prove_I,
                               prove_IC, prove_P_reduction, tau,
                               tau_equivalence, translate_derivation)

from conftest import proof_log


def truth_equal(a, b):
    for v in assignments_over(atoms_of(a) | atoms_of(b)):
        if evaluate(v, a) != evaluate(v, b):
            return False
    return True


class TestGamma:
    @pytest.mark.parametrize("src,expected", [
        ("p1 -> p2 & p3", "(p1 -> p2) & (p1 -> p3)"),
        ("p1 & p2 -> p3", "p1 -> p2 -> p3"),
        ("p1 v p2 & p3", "(p1 v p2) & (p1 v p3)"),
        ("p1 & p2 v p3", "(p1 v p3) & (p2 v p3)"),
    ])
    def test_single_rules(self, src, expected):
        g = gamma(parse(src))
        assert g.formula == parse(expected)
        assert len(g.trace) == 1 and g.trace[0][1] == ()

    def test_normal_fixed_point(self):
        f = parse("(p1 -> p2) & (p1 v p3)")
        g = gamma(f)
        assert g.formula == f and g.trace == ()
        assert is_gamma_normal(f)

    def test_innermost_leftmost(self):
        # both the antecedent and the consequent contain redexes; the
        # leftmost-innermost one must fire first
        f = parse("(p1 & p2 -> p3) -> (p1 -> p2 & p3)")
        g = gamma(f)
        assert g.trace[0] == ("ii", ("left",))

    def test_output_has_no_nested_conj(self):
        f = parse("(p1 v p2 & p3) -> (p1 & p2 -> p3 & p1)")
        g = gamma(f)
        assert is_gamma_normal(g.formula)

        def conj_only_on_spine(x, below=False):
            if isinstance(x, Atom):
                return True
            if isinstance(x, Conj):
                if below:
                    return False
                return (conj_only_on_spine(x.left, False)
                        and conj_only_on_spine(x.right, False))
            return (conj_only_on_spine(x.left, True)
                    and conj_only_on_spine(x.right, True))

        assert conj_only_on_spine(g.formula)

    def test_truth_preserving(self):
        rng = random.Random(3)
        pool = list(enumerate_formulas(4, [1, 2, 3], CalculusId.P))
        for f in rng.sample(pool, 150):
            g = gamma(f)
            assert is_gamma_normal(g.formula)
            assert truth_equal(f, g.formula)

    def test_equivalence_kernel_checked(self):
        f = parse("(p1 v p2 & p3) & (p1 -> p2 & p1)")
        pair = gamma_equivalence(f)
        assert pair.left == f
        assert pair.right == gamma(f).formula
        assert check(pair.forward) == [] and check(pair.backward) == []

    def test_equivalence_reflexive_when_normal(self):
        f = parse("p1 -> p2")
        pair = gamma_equivalence(f)
        assert pair.left == pair.right == f


class TestDecompose:
    def test_conjuncts_conjunction_free(self):
        dec = decompose(parse("(p1 v p2 & p3) -> p1 & p2"))
        assert all(
            CalculusId(c.mask) in (CalculusId.I, CalculusId.ID)
            for c in dec.conjuncts)
        assert dec.equivalence.left == parse("(p1 v p2 & p3) -> p1 & p2")
        assert dec.equivalence.right == dec.chain

    def test_flattens_left_nested_spine(self):
        f = parse("(p1 & p2) & p3")
        dec = decompose(f)
        assert dec.conjuncts == (Atom(1), Atom(2), Atom(3))
        assert dec.chain == parse("p1 & p2 & p3")

    def test_trivial(self):
        f = parse("p1 v p2")
        dec = decompose(f)
        assert dec.conjuncts == (f,)

    def test_ic_restriction(self):
        f = parse("(p1 & p2 -> p3) & p1")
        dec = decompose(f, CalculusId.IC)
        assert all(CalculusId(c.mask) is CalculusId.I
                   for c in dec.conjuncts)
        assert dec.equivalence.calculus is CalculusId.IC


# One formula per congruence context: gamma's first rewrite sits at depth 1,
# under the connective and on the side named; the bounds are the lengths of
# the decompose halves when these tests were written.
CONGRUENCE_CONTEXTS = [
    ("p1 -> (p2 & p3 -> p1)", Impl, "right", 31, 31),
    ("(p1 & p2 -> p3) -> p1", Impl, "left", 31, 31),
    ("p1 v (p2 -> p3 & p1)", Disj, "right", 58, 71),
    ("(p2 -> p3 & p1) v p1", Disj, "left", 58, 63),
    ("p1 & (p2 -> p3 & p1)", Conj, "right", 23, 21),
    ("(p2 -> p3 & p1) & p1", Conj, "left", 23, 21),
]


class TestCongruenceContexts:
    @pytest.mark.parametrize("text,ctor,side,fwd_most,bwd_most",
                             CONGRUENCE_CONTEXTS,
                             ids=[f"{c.__name__}-{s}"
                                  for _, c, s, _, _ in CONGRUENCE_CONTEXTS])
    def test_decompose_through_one_context(self, text, ctor, side,
                                           fwd_most, bwd_most):
        f = parse(text)
        assert type(f) is ctor and gamma(f).trace[0][1] == (side,)
        dec = decompose(f)
        pair = dec.equivalence
        assert (pair.left, pair.right) == (f, dec.chain)
        assert check(pair.forward) == [] and check(pair.backward) == []
        assert len(pair.forward) <= fwd_most
        assert len(pair.backward) <= bwd_most


class TestTau:
    def test_atom_and_impl_fixed(self):
        assert tau(Atom(1)) == Atom(1)
        assert tau(parse("p1 -> p2")) == parse("p1 -> p2")

    def test_disjunction(self):
        assert tau(parse("p1 v p2")) == parse("(p1 -> p2) -> p2")

    def test_nested(self):
        assert tau(parse("(p1 v p2) -> p3 v p1")) == \
            parse("((p1 -> p2) -> p2) -> (p3 -> p1) -> p1")

    def test_rejects_conjunction(self):
        with pytest.raises(TacticError):
            tau(parse("p1 & p2"))

    def test_truth_preserving_and_disjunction_free(self):
        rng = random.Random(4)
        pool = list(enumerate_formulas(4, [1, 2, 3], CalculusId.ID))
        for f in rng.sample(pool, 150):
            t = tau(f)
            assert CalculusId(t.mask) is CalculusId.I
            assert truth_equal(f, t)

    def test_equivalence_kernel_checked(self):
        f = parse("p1 v (p2 -> p1 v p3)")
        pair = tau_equivalence(f)
        assert pair.left == f and pair.right == tau(f)
        assert check(pair.forward) == [] and check(pair.backward) == []
        assert pair.calculus is CalculusId.ID

    @pytest.mark.parametrize("calc", [CalculusId.I, CalculusId.IC])
    def test_equivalence_needs_disjunction_schemes(self, calc):
        with pytest.raises(TacticError):
            tau_equivalence(parse("p1 v p2"), calc)


class TestTranslateDerivation:
    def test_translates_to_tau_image(self):
        f = parse("p1 v (p1 -> p2)")
        d = prove(f, CalculusId.ID)
        t = translate_derivation(d)
        assert t.calculus is CalculusId.I
        assert not t.hypotheses
        assert t.conclusion == tau(f)
        assert check(t) == []

    def test_implicative_conclusion_fixed(self):
        f = parse("((p1 -> p2) -> p1) -> p1")
        t = translate_derivation(prove(f, CalculusId.ID))
        assert t.conclusion == f

    def test_rejects_open(self):
        from posprop.tactics import hypothesis
        with pytest.raises(TacticError):
            translate_derivation(hypothesis(CalculusId.ID, Atom(1)))

    def test_rejects_wrong_calculus(self):
        d = prove(parse("p1 & p2 -> p1"), CalculusId.P)
        with pytest.raises(TacticError):
            translate_derivation(d)


class TestRoutes:
    def test_prove_I(self):
        f = parse("(p1 -> p2) -> ((p2 -> p3) -> p1 -> p3)")
        d = prove_I(f)
        assert d.calculus is CalculusId.I
        assert d.conclusion == f and not d.hypotheses

    def test_prove_I_takes_the_short_id_proof(self):
        f = parse("(p3 -> p2) -> p3 -> p2")
        d = prove_I(f)
        assert d.conclusion == f and not d.hypotheses
        assert len(d) <= 349

    def test_prove_I_fragment_checked(self):
        with pytest.raises(TacticError):
            prove_I(parse("p1 v p2"))

    def test_prove_I_countermodel(self):
        with pytest.raises(NotTautology):
            prove_I(parse("p1 -> p2"))

    def test_prove_IC(self):
        f = parse("p1 & p2 -> p2 & p1")
        d = prove_IC(f)
        assert d.calculus is CalculusId.IC
        assert d.conclusion == f and not d.hypotheses
        assert check(d) == []

    def test_prove_IC_countermodel(self):
        with pytest.raises(NotTautology) as exc:
            prove_IC(parse("p1 & p2 -> p3"))
        assert exc.value.countermodel is not None

    def test_prove_P_reduction(self):
        f = parse("(p1 v p2 & p3) -> (p1 v p2) & (p1 v p3)")
        d = prove_P_reduction(f)
        assert d.calculus is CalculusId.P
        assert d.conclusion == f and not d.hypotheses
        assert check(d) == []

    @pytest.mark.parametrize("route,text", [
        (prove_P_reduction, "(p1 v p2 & p3) -> (p1 v p2) & (p1 v p3)"),
        (prove_IC, "(p1 -> p2 & p3) -> (p1 -> p3) & (p1 -> p2)"),
    ], ids=["P-reduction", "IC"])
    def test_gamma_routes_decide_once(self, monkeypatch, route, text):
        # the conjuncts of a tautology are tautologies: only the whole
        # formula is searched for a countermodel
        searched = []

        def counting(a):
            searched.append(a)
            return find_countermodel(a)

        monkeypatch.setattr(kalmar, "find_countermodel", counting)
        monkeypatch.setattr(transform, "find_countermodel", counting)
        f = parse(text)
        assert len(decompose(f).conjuncts) == 2
        route(f)
        assert searched == [f]

    def test_gamma_routes_splice_derivability_halves(self):
        # the rule pairs reach compose_pairs in derivability mode, so no
        # thesis half is turned back into a derivability one on the way
        f = parse("p1 & p2 -> p2 & p1")
        assert len(prove_P_reduction(f)) <= 11
        assert len(prove_IC(f)) <= 11

    def test_route_agreement_small(self):
        rng = random.Random(5)
        pool = [f for f in enumerate_formulas(3, [1, 2], CalculusId.P)
                if is_tautology(f)]
        for f in rng.sample(pool, 25):
            direct = prove(f, CalculusId.P)
            reduced = prove_P_reduction(f)
            assert direct.conclusion == reduced.conclusion == f
            assert not direct.hypotheses and not reduced.hypotheses


class TestDecomposeToImplicative:
    def test_conjuncts_implicative(self):
        f = parse("(p1 v p2) & (p1 -> p2 & p1)")
        dec = decompose_to_implicative(f)
        assert all(CalculusId(c.mask) is CalculusId.I
                   for c in dec.conjuncts)
        assert dec.equivalence.left == f
        assert dec.equivalence.right == dec.chain
        assert check(dec.equivalence.forward) == []
        assert check(dec.equivalence.backward) == []

    def test_truth_preserved(self):
        f = parse("p1 & (p2 v p3)")
        dec = decompose_to_implicative(f)
        assert truth_equal(f, dec.chain)


@pytest.fixture
def fresh_proof_log():
    """conftest's proof log over an empty line cache, which is restored
    afterwards."""
    saved = dict(_LINE_CACHE)
    _LINE_CACHE.clear()
    try:
        with proof_log() as records:
            yield records
    finally:
        _LINE_CACHE.clear()
        _LINE_CACHE.update(saved)


class TestCheckOnce:
    """A proof is checked where it leaves the package, not at every step
    that builds it: the log holds the results of the public provers and
    nothing else."""

    def test_prove(self, fresh_proof_log):
        f = parse("((p1 -> p2) -> p1) -> p1")
        prove(f, CalculusId.ID)
        assert list(fresh_proof_log) == [(frozenset(), f)]

    def test_prove_P_reduction(self, fresh_proof_log):
        # the conjuncts' ID proofs are checked inside the assembled proof only
        f = parse("p1 & p2 -> p2 & p1")
        prove_P_reduction(f)
        log = list(fresh_proof_log)
        assert [c for hyps, c in log if not hyps] == [f]
        assert all(hyps == {c} for hyps, c in log if hyps)

    def test_prove_IC(self, fresh_proof_log):
        # each conjunct's I proof is checked inside the assembled proof only
        f = parse("(p1 -> p2 & p3) -> (p1 -> p3) & (p1 -> p2)")
        prove_IC(f)
        assert list(fresh_proof_log) == [(frozenset(), f)]

    def test_prove_I(self, fresh_proof_log):
        # only the I proof is checked, not the ID proof it is built from
        f = parse("((p1 -> p2) -> p1) -> p1")
        prove_I(f)
        log = list(fresh_proof_log)
        assert [c for hyps, c in log if not hyps] == [f]
        assert all(hyps == {c} for hyps, c in log if hyps)

    def test_derive_from_hypotheses(self, fresh_proof_log):
        hyps = [parse("p1"), parse("p1 -> p2")]
        d = derive_from_hypotheses(hyps, parse("p2"), CalculusId.ID)
        assert check(d) == []
        log = list(fresh_proof_log)
        assert log[-1] == (frozenset(hyps), parse("p2"))
        assert all(hyps for hyps, _ in log)

    def test_decompose_to_implicative(self, fresh_proof_log):
        decompose_to_implicative(parse("p1 v p2 & p3"))
        assert list(fresh_proof_log) == []


_PROVERS = {
    "ID": lambda f: prove(f, CalculusId.ID),
    "P": lambda f: prove(f, CalculusId.P),
    "I": prove_I,
    "IC": prove_IC,
    "P-reduction": prove_P_reduction,
    "translate": lambda f: translate_derivation(prove(f, CalculusId.ID)),
}


@pytest.mark.parametrize("route,text", [
    ("ID", "((p1 -> p2) -> p1) -> p1"),
    ("P", "p1 & p2 -> p2 & p1"),
    ("I", "((p1 -> p2) -> p1) -> p1"),
    ("IC", "p1 & p2 -> p2 & p1"),
    ("P-reduction", "p1 v p2 & p3 -> (p1 v p2) & (p1 v p3)"),
    ("translate", "p1 v (p1 -> p2)"),
])
def test_proofs_cite_every_step(route, text):
    """Every step of a returned proof is cited by its conclusion."""
    d = _PROVERS[route](parse(text))
    assert prune(d) is d
