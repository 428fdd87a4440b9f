import os
import random
import subprocess
import sys

import pytest

import posprop
import posprop.kalmar as kalmar

from posprop.formula import (Atom, Disj, Impl, atoms_of, delta_set,
                             disj_chain, enumerate_formulas, gamma_set,
                             neg_encode, parse, pos_encode)
from posprop.kernel import AxiomStep, CalculusId, SchemeId, check
from posprop.semantics import assignments_over, evaluate, is_tautology
from posprop.kalmar import (LineCertificate, NotTautology, build_line,
                            derive_from_hypotheses, eliminate, lemma_3_1,
                            lemma_3_2, lemma_3_3, lemma_3_4, lemma_3_5,
                            lemma_4_1, lemma_4_2, prove)
from posprop.tactics import TacticError, hypothesis


def _cert_ok(cert: LineCertificate):
    v = cert.assignment
    f = cert.formula
    truth = evaluate(v, f)
    assert cert.polarity == ("positive" if truth else "negative")
    expected = (pos_encode(delta_set(v, f), f) if truth
                else neg_encode(delta_set(v, f), f))
    assert cert.derivation.conclusion == expected
    assert cert.derivation.hypotheses == gamma_set(v, f)
    assert check(cert.derivation) == []


class TestLemmaConstructors:
    def test_3_1_all_true(self):
        # degenerate case: from B conclude A -> B
        v = {1: True, 2: True}
        db = build_line(v, Atom(2), CalculusId.ID).derivation
        d = lemma_3_1(v, Atom(1), Atom(2), db)
        assert d.conclusion == parse("p1 -> p2")

    def test_3_1_encoded(self):
        v = {1: False, 2: True}
        db = build_line(v, Atom(2), CalculusId.ID).derivation
        d = lemma_3_1(v, Atom(1), Atom(2), db)
        assert d.conclusion == parse("p1 v (p1 -> p2)")
        assert check(d) == []

    def test_3_1_nested_consequent(self):
        a, b = Atom(1), parse("p2 v p3")
        v = {1: False, 2: True, 3: False}
        db = build_line(v, b, CalculusId.ID).derivation
        d = lemma_3_1(v, a, b, db)
        assert d.conclusion == pos_encode({Atom(1), Atom(3)}, Impl(a, b))
        assert check(d) == []

    def test_3_1_requires_true_consequent(self):
        v = {1: True, 2: False}
        db = hypothesis(CalculusId.ID, Atom(2))
        with pytest.raises(TacticError):
            lemma_3_1(v, Atom(1), Atom(2), db)

    def test_3_2(self):
        v = {1: False, 2: False}
        da = build_line(v, Atom(1), CalculusId.ID).derivation  # p1 -> p1
        d = lemma_3_2(v, Atom(1), Atom(2), da)
        assert d.conclusion == parse("p1 v p2 v (p1 -> p2)")
        assert check(d) == []

    def test_3_3(self):
        v = {1: True, 2: False}
        da = build_line(v, Atom(1), CalculusId.ID).derivation
        db = build_line(v, Atom(2), CalculusId.ID).derivation
        d = lemma_3_3(v, Atom(1), Atom(2), da, db)
        assert d.conclusion == parse("(p1 -> p2) -> p2")
        assert check(d) == []

    def test_3_4(self):
        v = {1: True, 2: False}
        da = build_line(v, Atom(1), CalculusId.ID).derivation
        d = lemma_3_4(v, Atom(1), Atom(2), da)
        assert d.conclusion == parse("p2 v (p1 v p2)")
        assert d.hypotheses == frozenset([Atom(1)])

    def test_case_read_from_assignment(self):
        # 3.4 takes either true disjunct's line; 4.2 projects the first
        # false conjunct; neither applies when v leaves it no such part
        v = {1: True, 2: True}
        for x in (Atom(1), Atom(2)):
            d = lemma_3_4(v, Atom(1), Atom(2),
                          build_line(v, x, CalculusId.ID).derivation)
            assert d.conclusion == parse("p1 v p2") and check(d) == []
        v = {1: False, 2: False}
        da = build_line(v, Atom(1), CalculusId.P).derivation
        d = lemma_4_2(v, Atom(1), Atom(2), da)
        assert d.conclusion == parse("p1 & p2 -> p1 v p2") and check(d) == []
        assert AxiomStep(SchemeId.AX7, parse("p1 & p2 -> p1")) in d.steps
        with pytest.raises(TacticError, match="3.4 needs a true disjunct"):
            lemma_3_4(v, Atom(1), Atom(2), da)
        v = {1: True, 2: True}
        da = build_line(v, Atom(1), CalculusId.P).derivation
        with pytest.raises(TacticError, match="4.2 needs a false conjunct"):
            lemma_4_2(v, Atom(1), Atom(2), da)

    def test_3_5(self):
        v = {1: False, 2: False}
        da = build_line(v, Atom(1), CalculusId.ID).derivation
        db = build_line(v, Atom(2), CalculusId.ID).derivation
        d = lemma_3_5(v, Atom(1), Atom(2), da, db)
        assert d.conclusion == parse("p1 v p2 -> p1 v p2")

    def test_4_1_no_deltas(self):
        v = {1: True, 2: True}
        da = build_line(v, Atom(1), CalculusId.P).derivation
        db = build_line(v, Atom(2), CalculusId.P).derivation
        d = lemma_4_1(v, Atom(1), Atom(2), da, db)
        assert d.conclusion == parse("p1 & p2")
        assert d.hypotheses == frozenset([Atom(1), Atom(2)])

    def test_4_1_encoded(self):
        a, b = parse("p1 v p3"), Atom(2)
        v = {1: True, 2: True, 3: False}
        da = build_line(v, a, CalculusId.P).derivation
        db = build_line(v, b, CalculusId.P).derivation
        d = lemma_4_1(v, a, b, da, db)
        assert d.conclusion == pos_encode({Atom(3)}, parse("(p1 v p3) & p2"))
        assert check(d) == []

    def test_4_2_both_orders(self):
        v = {1: False, 2: True}
        da = build_line(v, Atom(1), CalculusId.P).derivation
        d_ab = lemma_4_2(v, Atom(1), Atom(2), da)
        d_ba = lemma_4_2(v, Atom(2), Atom(1), da)
        assert d_ab.conclusion == parse("p1 & p2 -> p1")
        assert d_ba.conclusion == parse("p2 & p1 -> p1")
        assert check(d_ab) == [] and check(d_ba) == []


class TestBuildLine:
    def test_atom_positive(self):
        cert = build_line({1: True}, Atom(1), CalculusId.ID)
        assert cert.polarity == "positive"
        assert len(cert.derivation) == 1
        _cert_ok(cert)

    def test_atom_negative(self):
        cert = build_line({1: False}, Atom(1), CalculusId.ID)
        assert cert.derivation.conclusion == parse("p1 -> p1")
        assert not cert.derivation.hypotheses

    def test_implication_true_false(self):
        cert = build_line({1: True, 2: False}, parse("p1 -> p2"), CalculusId.ID)
        assert cert.derivation.conclusion == parse("(p1 -> p2) -> p2")
        assert cert.derivation.hypotheses == frozenset([Atom(1)])

    def test_fragment_checked(self):
        with pytest.raises(TacticError):
            build_line({1: True, 2: True}, parse("p1 & p2"), CalculusId.ID)

    def test_calculus_checked(self):
        with pytest.raises(TacticError):
            build_line({1: True}, Atom(1), CalculusId.I)

    def test_uncovered_atom_named(self):
        with pytest.raises(KeyError, match="assignment does not cover atom p2"):
            build_line({1: True}, parse("p1 -> p2"), CalculusId.ID)

    @pytest.mark.parametrize("calc", [CalculusId.ID, CalculusId.P])
    def test_certificates_random(self, calc):
        rng = random.Random(7)
        pool = list(enumerate_formulas(4, [1, 2, 3], calc))
        for f in rng.sample(pool, 80):
            for v in assignments_over(atoms_of(f)):
                _cert_ok(build_line(v, f, calc))
                break  # one assignment per formula here; sweep in acceptance

    @pytest.mark.parametrize("text,v,calc,scheme", [
        ("p2 -> p1 v p2", {1: True, 2: True}, CalculusId.ID, SchemeId.AX5),
        # negative encodings: ((p1 -> p1) -> p1) -> p1 and
        # p1 & (p1 v p2) -> p1 v p2
        ("(p1 -> p1) -> p1", {1: False}, CalculusId.ID, SchemeId.AX3),
        ("p1 & (p1 v p2)", {1: False, 2: False}, CalculusId.P, SchemeId.AX8),
    ])
    def test_axiom_instance_target_is_one_step(self, text, v, calc, scheme):
        cert = build_line(v, parse(text), calc)
        assert cert.derivation.steps == (
            AxiomStep(scheme, cert.derivation.conclusion),)
        _cert_ok(cert)

    def test_axiom_instance_subformula_line_is_one_step(self):
        # the line of p2 -> p1 v p2 is Ax5, lifted once by 3.1's Ax1
        cert = build_line({1: True, 2: True, 3: True},
                          parse("p3 -> p2 -> p1 v p2"), CalculusId.ID)
        assert len(cert.derivation) == 3
        _cert_ok(cert)

    def test_first_matching_scheme_in_declaration_order(self):
        # p1 -> p1 v p1 instantiates both Ax4 and Ax5
        cert = build_line({1: True}, parse("p1 -> p1 v p1"), CalculusId.ID)
        assert cert.derivation.steps == (
            AxiomStep(SchemeId.AX4, parse("p1 -> p1 v p1")),)


class TestEliminate:
    def test_full_pipeline(self):
        a = parse("p1 v (p1 -> p2)")
        d = eliminate(a, CalculusId.ID)
        assert d.conclusion == a
        assert not d.hypotheses
        assert check(d) == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_peirce_is_one_ax3_step(self, n):
        # ((p1 -> p2 v ... v pn) -> p1) -> p1
        tail = disj_chain([Atom(i) for i in range(2, n + 1)])
        f = Impl(Impl(Impl(Atom(1), tail), Atom(1)), Atom(1))
        assert prove(f, CalculusId.ID).steps == (AxiomStep(SchemeId.AX3, f),)

    @pytest.mark.parametrize("text,leaves", [
        # p1 never cited below p2 = T or p2 = F: one leaf per value of p2
        ("p1 -> p2 -> p2", 2),
        ("(p1 -> p2) -> (p2 -> p3) -> p1 -> p3", 4),
        # an axiom goal is the line target of the all-true leaf
        ("((p1 -> p2) -> p1) -> p1", 1),
    ])
    def test_uncited_false_subtrees_are_not_built(self, monkeypatch, text,
                                                   leaves):
        calls = []

        def counting(v, a, calc):
            calls.append(dict(v))
            return build_line(v, a, calc)

        monkeypatch.setattr(kalmar, "build_line", counting)
        f = parse(text)
        d = prove(f, CalculusId.ID)
        assert d.conclusion == f and not d.hypotheses
        assert len(calls) == leaves


class TestProve:
    @pytest.mark.parametrize("text", [
        "p1 -> p1",
        "((p1 -> p2) -> p1) -> p1",
        "p1 v (p1 -> p2)",
        "(p1 -> p2) v (p2 -> p3)",
    ])
    def test_id_tautologies(self, text):
        f = parse(text)
        d = prove(f, CalculusId.ID)
        assert d.conclusion == f
        assert not d.hypotheses
        assert d.calculus is CalculusId.ID
        assert check(d) == []

    @pytest.mark.parametrize("text", [
        "p1 & p2 -> p2 & p1",
        "(p1 & p2 -> p3) -> p1 -> p2 -> p3",
        "p1 & p2 v (p1 -> p2)  ->  (p1 -> p2)",
    ])
    def test_p_tautologies(self, text):
        f = parse(text)
        d = prove(f, CalculusId.P)
        assert d.conclusion == f and not d.hypotheses
        assert d.calculus is CalculusId.P

    def test_not_tautology(self):
        with pytest.raises(NotTautology) as exc:
            prove(parse("p1 -> p2"), CalculusId.ID)
        assert exc.value.countermodel == {1: True, 2: False}

    def test_wrong_calculus(self):
        with pytest.raises(TacticError):
            prove(parse("p1 -> p1"), CalculusId.I)

    def test_fragment_violation(self):
        with pytest.raises(TacticError):
            prove(parse("p1 & p1 -> p1"), CalculusId.ID)

    def test_sweep_proof_sizes_do_not_grow(self):
        # every 2-atom ->/v tautology with at most 3 connectives (346);
        # upper bounds, so shorter proofs still pass
        lengths = [len(prove(f, CalculusId.ID)) for f in enumerate_formulas(
            3, [1, 2], CalculusId.ID) if is_tautology(f)]
        assert len(lengths) == 346
        assert sum(lengths) <= 9_963 and max(lengths) <= 170

    @pytest.mark.parametrize("text,calc,most", [
        # the p1-false leaf is the identity proof of p1 -> p1 (2.5), which
        # already holds the goal
        ("p1 -> p1", CalculusId.ID, 5),
        ("p1 -> ((p1 -> p1) -> p2) -> p2", CalculusId.ID, 21),
        ("(p1 v (p1 -> p2)) & (p2 v (p2 -> p3)) & (p3 v (p3 -> p1))",
         CalculusId.P, 69),
    ], ids=["identity", "nested", "excluded-middle"])
    def test_node_discharge_reuses_the_false_child(self, text, calc, most):
        f = parse(text)
        d = prove(f, calc)
        assert d.conclusion == f and not d.hypotheses
        assert len(d) <= most

    def test_join_splits_a_disjunctive_side_by_the_router(self):
        # the 2.18 joins split each disjunctive side by Ax6 over Ax4/Ax5
        # lines the proof already holds
        assert len(prove(parse("(p1 -> p2) v (p2 -> p1)"), CalculusId.ID)) <= 122

    def test_exhaustive_tiny(self):
        for f in enumerate_formulas(2, [1, 2], CalculusId.ID):
            if is_tautology(f):
                d = prove(f, CalculusId.ID)
                assert d.conclusion == f and check(d) == []
            else:
                with pytest.raises(NotTautology):
                    prove(f, CalculusId.ID)


# Atoms hash by identity, so a set of atoms iterates in an order set by
# object addresses; creating them in another order moves those addresses.
_PROVE_IN_ATOM_ORDER = """
import sys
from posprop.formula import Atom, parse
from posprop.kalmar import prove
from posprop.kernel import CalculusId
from posprop.proofio import write_text
for i in map(int, sys.argv[1].split(",")):
    Atom(i)
for text in sys.argv[2:]:
    sys.stdout.write(write_text(prove(parse(text), CalculusId.ID)))
"""


def _proof_texts(atom_order: str, formulas, hash_seed: str = "random") -> str:
    src = os.path.dirname(os.path.dirname(posprop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROVE_IN_ATOM_ORDER, atom_order, *formulas],
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_proofs_do_not_depend_on_atom_creation_order():
    formulas = ["p1 v p2 v p3 -> p3 v p2 v p1",
                "(p1 -> p2) v (p2 -> p3) v p1",
                "((p1 -> p2) -> p3) -> (p3 -> p1) -> p3 v p1",
                "(p1 -> p2 v p3) -> (p4 -> p1) -> p4 -> p3 v p2"]
    assert (_proof_texts("1,2,3,4", formulas)
            == _proof_texts("4,3,2,1", formulas))


def test_proofs_do_not_depend_on_hash_seed():
    # Each formula below has a goal or a line target that instantiates both
    # Ax4 and Ax5, and its proof must take Ax4 under every hash seed.
    # SchemeId members hash by name, so any set or dict of schemes on the
    # way would iterate in an order set by the seed; CalculusId.ID.schemes
    # is a tuple in SchemeId order, Ax4 first.
    formulas = ["p1 -> p1 v p1",
                "p2 -> p1 -> p1 v p1",
                "(p2 -> p2 v p2) v (p2 -> p1)",
                "p1 v p2 -> (p1 v p2) v (p1 v p2)"]
    assert (_proof_texts("1,2", formulas, hash_seed="0")
            == _proof_texts("1,2", formulas, hash_seed="1"))


class TestDeriveFromHypotheses:
    def test_modus_ponens_shape(self):
        hyps = [parse("p1 v p2"), parse("p1 -> p2")]
        d = derive_from_hypotheses(hyps, Atom(2), CalculusId.ID)
        assert d.conclusion == Atom(2)
        assert d.hypotheses == frozenset(hyps)
        assert check(d) == []

    def test_empty_hypotheses(self):
        d = derive_from_hypotheses([], parse("p1 -> p1"), CalculusId.ID)
        assert not d.hypotheses

    def test_non_entailed(self):
        with pytest.raises(NotTautology) as exc:
            derive_from_hypotheses([Atom(1)], Atom(2), CalculusId.ID)
        assert exc.value.countermodel == {1: True, 2: False}
