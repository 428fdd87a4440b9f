import os
import random
import subprocess
import sys

import pytest

import posprop

from posprop.formula import (Atom, Disj, Impl, atoms_of, delta_set,
                             enumerate_formulas, gamma_set, neg_encode, parse,
                             pos_encode, Fragment)
from posprop.kernel import CalculusId, check, hypothesis
from posprop.semantics import assignments_over, evaluate, is_tautology
from posprop.kalmar import (LineCertificate, NotTautology, build_line,
                            derive_from_hypotheses, eliminate, lemma_3_1,
                            lemma_3_2, lemma_3_3, lemma_3_4, lemma_3_5,
                            lemma_4_1, lemma_4_2, prove)
from posprop.tactics import TacticError


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
        d = lemma_3_4(v, Atom(1), Atom(2), da, "left")
        assert d.conclusion == parse("p2 v (p1 v p2)")
        assert d.hypotheses == frozenset([Atom(1)])

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
        d_ab, d_ba = lemma_4_2(v, Atom(1), Atom(2), da)
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

    @pytest.mark.parametrize("calc,fragment", [
        (CalculusId.ID, Fragment.IMPLICATIVE_DISJUNCTIVE),
        (CalculusId.P, Fragment.POSITIVE),
    ])
    def test_certificates_random(self, calc, fragment):
        rng = random.Random(7)
        pool = list(enumerate_formulas(4, [1, 2, 3], fragment))
        for f in rng.sample(pool, 80):
            for v in assignments_over(atoms_of(f)):
                _cert_ok(build_line(v, f, calc))
                break  # one assignment per formula here; sweep in acceptance


class TestEliminate:
    def test_full_pipeline(self):
        a = parse("p1 v (p1 -> p2)")
        d = eliminate(a, CalculusId.ID)
        assert d.conclusion == a
        assert not d.hypotheses
        assert check(d) == []


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

    def test_exhaustive_tiny(self):
        for f in enumerate_formulas(2, [1, 2], Fragment.IMPLICATIVE_DISJUNCTIVE):
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


def _proof_texts(atom_order: str, formulas) -> str:
    src = os.path.dirname(os.path.dirname(posprop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROVE_IN_ATOM_ORDER, atom_order, *formulas],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300, check=True)
    return done.stdout


def test_proofs_do_not_depend_on_atom_creation_order():
    formulas = ["p1 v p2 v p3 -> p3 v p2 v p1",
                "(p1 -> p2) v (p2 -> p3) v p1",
                "((p1 -> p2) -> p3) -> (p3 -> p1) -> p3 v p1",
                "(p1 -> p2 v p3) -> (p4 -> p1) -> p4 -> p3 v p2"]
    assert (_proof_texts("1,2,3,4", formulas)
            == _proof_texts("4,3,2,1", formulas))


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
