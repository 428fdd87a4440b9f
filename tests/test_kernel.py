import json

import pytest

from posprop.formula import Atom, Fragment, parse
from posprop.kernel import (AxiomStep, CalculusId, CheckError, Derivation,
                            HypStep, MPStep, SchemeId, check, hypothesis,
                            instantiate_scheme, match_scheme, prune, verify,
                            _instantiate, _is_instance)
from posprop.proofio import (ProofFormatError, from_json, read_text, to_json,
                             write_text)


def codes(errors):
    return [e.code for e in errors]


class TestSchemes:
    def test_match_ax1(self):
        subst = match_scheme(SchemeId.AX1, parse("p1 -> p2 -> p1"))
        assert subst == {"A": Atom(1), "B": Atom(2)}

    def test_match_requires_consistency(self):
        assert match_scheme(SchemeId.AX1, parse("p1 -> p2 -> p3")) is None

    def test_match_peirce(self):
        assert match_scheme(SchemeId.AX3, parse("((p1 -> p2) -> p1) -> p1"))

    def test_instantiate_round_trip(self):
        for scheme in SchemeId:
            subst = {"A": parse("p1 v p2"), "B": Atom(3), "C": parse("p1 -> p3")}
            f = instantiate_scheme(scheme, subst)
            got = match_scheme(scheme, f)
            assert all(got[k] == subst[k] for k in got)

    def test_scheme_caches_bounded(self):
        assert _is_instance.cache_info().maxsize is not None
        assert _instantiate.cache_info().maxsize is not None

    def test_instantiate_missing_metavariable(self):
        with pytest.raises(KeyError):
            instantiate_scheme(SchemeId.AX2, {"A": Atom(1)})


class TestCalculi:
    def test_scheme_sets(self):
        assert len(CalculusId.I.schemes) == 3
        assert len(CalculusId.ID.schemes) == 6
        assert len(CalculusId.IC.schemes) == 6
        assert len(CalculusId.P.schemes) == 9

    def test_extends(self):
        assert CalculusId.P.extends(CalculusId.ID)
        assert CalculusId.ID.extends(CalculusId.I)
        assert not CalculusId.ID.extends(CalculusId.IC)
        assert CalculusId.I.extends(CalculusId.I)

    def test_fragments(self):
        assert CalculusId.IC.fragment is Fragment.IMPLICATIVE_CONJUNCTIVE


class TestCheck:
    def test_good_derivation(self):
        imp = parse("p1 -> p2")
        d = Derivation(CalculusId.I, frozenset([imp, Atom(1)]),
                       (HypStep(imp), HypStep(Atom(1)),
                        MPStep(0, 1, Atom(2))))
        assert check(d) == []

    def test_bad_axiom_instance(self):
        d = Derivation(CalculusId.I, frozenset(),
                       (AxiomStep(SchemeId.AX1, parse("p1 -> p2")),))
        assert codes(check(d)) == ["bad-axiom-instance"]

    def test_scheme_not_in_calculus(self):
        d = Derivation(CalculusId.I, frozenset(),
                       (AxiomStep(SchemeId.AX4, parse("p1 -> p1 v p2")),))
        # Ax4 also mentions v, outside I's fragment
        assert "scheme-not-in-calculus" in codes(check(d)) or \
            "fragment-violation" in codes(check(d))

    def test_undeclared_hypothesis(self):
        d = Derivation(CalculusId.I, frozenset(), (HypStep(Atom(1)),))
        assert codes(check(d)) == ["hypothesis-not-declared"]

    def test_mp_mismatch(self):
        d = Derivation(CalculusId.I, frozenset([Atom(1), Atom(2)]),
                       (HypStep(Atom(1)), HypStep(Atom(2)),
                        MPStep(0, 1, Atom(2))))
        assert codes(check(d)) == ["mp-mismatch"]

    def test_forward_reference(self):
        imp = parse("p1 -> p2")
        d = Derivation(CalculusId.I, frozenset([imp, Atom(1)]),
                       (HypStep(imp), HypStep(Atom(1)),
                        MPStep(0, 3, Atom(2))))
        assert codes(check(d)) == ["forward-reference"]

    def test_self_reference_rejected(self):
        imp = parse("p1 -> p2")
        d = Derivation(CalculusId.I, frozenset([imp]),
                       (HypStep(imp), MPStep(1, 0, Atom(2))))
        assert codes(check(d)) == ["forward-reference"]

    def test_fragment_violation(self):
        d = Derivation(CalculusId.I, frozenset([parse("p1 v p2")]),
                       (HypStep(parse("p1 v p2")),))
        assert set(codes(check(d))) == {"fragment-violation"}

    def test_unused_declared_hypothesis_allowed(self):
        d = Derivation(CalculusId.I, frozenset([Atom(1), Atom(2)]),
                       (HypStep(Atom(1)),))
        assert check(d) == []

    def test_verify_raises(self):
        d = Derivation(CalculusId.I, frozenset(), (HypStep(Atom(1)),))
        with pytest.raises(CheckError):
            verify(d)

    def test_empty_derivation_rejected(self):
        with pytest.raises(ValueError):
            Derivation(CalculusId.I, frozenset(), ())


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


class TestProofIO:
    def sample(self):
        imp = parse("p1 -> p2")
        return Derivation(
            CalculusId.ID, frozenset([imp, Atom(1)]),
            (HypStep(imp), HypStep(Atom(1)), MPStep(0, 1, Atom(2)),
             AxiomStep(SchemeId.AX4, parse("p2 -> p2 v p1"))))

    def test_text_round_trip(self):
        d = self.sample()
        text = write_text(d)
        assert read_text(text) == d
        assert write_text(read_text(text)) == text

    def test_text_shape(self):
        lines = write_text(self.sample()).splitlines()
        assert lines[0] == "calculus: ID"
        assert lines[1] == "hyp: p1"               # hypotheses sorted by R
        assert lines[2] == "hyp: p1 -> p2"
        assert lines[3] == "1. hyp p1 -> p2"
        assert lines[5] == "3. mp 1 2 p2"          # 1-based, major first

    def test_json_round_trip(self):
        d = self.sample()
        assert from_json(to_json(d)) == d

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("calculus: ID", "calculus: XX"),
        lambda t: t.replace("1. hyp", "7. hyp"),
        lambda t: t.replace("mp 1 2", "mp one 2"),
        lambda t: "\n".join(t.splitlines()[1:]),   # drop the header
        lambda t: t.splitlines()[0] + "\n",        # no steps
    ])
    def test_malformed_rejected(self, mangle):
        with pytest.raises(ProofFormatError):
            read_text(mangle(write_text(self.sample())))

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"calculus": "ID", "hypotheses": [], "steps": []}',
    ], ids=["invalid-json", "no-steps"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ProofFormatError):
            from_json(text)

    @pytest.mark.parametrize("mangle", [
        lambda doc: doc["steps"][2].update(major=1.5),
        lambda doc: doc["steps"][2].update(minor=True),
        lambda doc: doc.update(hypotheses="p1"),
        lambda doc: doc.update(steps={"1": doc["steps"][0]}),
    ], ids=["float-index", "bool-index", "string-hypotheses", "object-steps"])
    def test_ill_typed_json_rejected(self, mangle):
        doc = json.loads(to_json(self.sample()))
        mangle(doc)
        with pytest.raises(ProofFormatError):
            from_json(json.dumps(doc))

    def test_checked_after_reading(self):
        d = read_text(write_text(self.sample()))
        assert check(d) == []
