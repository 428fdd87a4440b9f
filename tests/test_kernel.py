import inspect
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from posprop.formula import (Atom, Conj, Disj, Formula, Impl,
                             parse, replace_at, subformula_at)
from posprop.kalmar import build_line, prove
from posprop.kernel import (AxiomStep, CalculusId, CheckError, Derivation,
                            HypStep, MPStep, SchemeId, check, match_scheme,
                            verify, _instantiate, _is_instance)
from posprop.proofio import (ProofFormatError, from_json, read_text, to_json,
                             write_text)
from posprop.semantics import entails
from posprop.tactics import ProofBuilder

from test_formula import formulas


def codes(errors):
    return [e.code for e in errors]


def nodes(f, path=()):
    """(node, path) for every node of f, in preorder."""
    if isinstance(f, Atom):
        return [(f, path)]
    return ([(f, path)] + nodes(f.left, path + ("left",))
            + nodes(f.right, path + ("right",)))


def pattern_nodes(scheme):
    """The nodes of the scheme's instance built from distinct atoms, in
    which each atom stands for one metavariable."""
    n = len(inspect.signature(scheme.build).parameters)
    return nodes(scheme.build(*map(Atom, range(1, n + 1))))


def compound_subst(scheme):
    """Distinct compound formulas for the scheme's metavariables, keyed by
    the constructor's parameter names."""
    names = inspect.signature(scheme.build).parameters
    return dict(zip(names, map(parse, ("p1 v p2", "p2 -> p3", "p1 & p3"))))


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
            names = scheme.metavariables.values()
            f = scheme.build(**{name: subst[name] for name in names})
            got = match_scheme(scheme, f)
            assert all(got[k] == subst[k] for k in got)

    def test_scheme_caches_bounded(self):
        assert _is_instance.cache_info().maxsize is not None
        assert _instantiate.cache_info().maxsize is not None

    def test_instantiate_missing_metavariable(self):
        with pytest.raises(TypeError):
            SchemeId.AX2.build(A=Atom(1))

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_constructor_instance_matches_back(self, scheme):
        subst = compound_subst(scheme)
        assert match_scheme(scheme, scheme.build(**subst)) == subst

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_broken_repeat_is_not_matched(self, scheme):
        atoms = [(g, path) for g, path in pattern_nodes(scheme)
                 if isinstance(g, Atom)]
        repeated = [path for g, path in atoms
                    if sum(h is g for h, _ in atoms) > 1]
        assert repeated, f"{scheme} repeats no metavariable"
        instance = scheme.build(**compound_subst(scheme))
        for path in repeated:
            broken = replace_at(instance, path, parse("p4 -> p4"))
            assert match_scheme(scheme, broken) is None, path

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_changed_connective_is_not_matched(self, scheme):
        instance = scheme.build(**compound_subst(scheme))
        other = {Impl: Disj, Disj: Conj, Conj: Impl}
        for g, path in pattern_nodes(scheme):
            if not isinstance(g, Atom):
                node = subformula_at(instance, path)
                changed = other[type(node)](node.left, node.right)
                assert match_scheme(scheme, replace_at(instance, path,
                                                       changed)) is None, path

    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_builder_axiom_is_instantiate_scheme(self, scheme):
        subst = compound_subst(scheme)
        b = ProofBuilder(CalculusId.P)
        assert b.formula_at(b.axiom(scheme, **subst)) is scheme.build(**subst)


class TestCalculi:
    def test_scheme_sets(self):
        labels = {c: [s.value for s in c.schemes] for c in CalculusId}
        assert labels == {
            CalculusId.I: ["Ax1", "Ax2", "Ax3"],
            CalculusId.ID: ["Ax1", "Ax2", "Ax3", "Ax4", "Ax5", "Ax6"],
            CalculusId.IC: ["Ax1", "Ax2", "Ax3", "Ax7", "Ax8", "Ax9"],
            CalculusId.P: ["Ax1", "Ax2", "Ax3", "Ax4", "Ax5", "Ax6",
                           "Ax7", "Ax8", "Ax9"]}
        assert all(type(c.schemes) is tuple for c in CalculusId)

    def test_extends(self):
        assert CalculusId.P.extends(CalculusId.ID)
        assert CalculusId.ID.extends(CalculusId.I)
        assert not CalculusId.ID.extends(CalculusId.IC)
        assert CalculusId.I.extends(CalculusId.I)

    @pytest.mark.parametrize("a", list(CalculusId), ids=str)
    @pytest.mark.parametrize("b", list(CalculusId), ids=str)
    def test_extends_is_scheme_inclusion(self, a, b):
        assert a.extends(b) == (set(b.schemes) <= set(a.schemes))

    def test_fragments(self):
        # a calculus is the mask of the connectives its language allows
        assert [c.mask for c in CalculusId] == [
            Impl.bit, Disj.bit, Conj.bit, Disj.bit | Conj.bit]
        assert all(c.value == c.mask for c in CalculusId)


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
        # Ax4 also mentions v, outside I's language
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

    def test_minor_self_reference_rejected(self):
        # the identity proof of p1 -> p1, then an MP whose minor premise is
        # itself: accepted, it would be a closed proof of p1
        p1, aa = Atom(1), parse("p1 -> p1")
        steps = (AxiomStep(SchemeId.AX2, SchemeId.AX2.build(p1, aa, p1)),
                 AxiomStep(SchemeId.AX1, SchemeId.AX1.build(p1, aa)),
                 MPStep(0, 1, parse("(p1 -> p1 -> p1) -> p1 -> p1")),
                 AxiomStep(SchemeId.AX1, SchemeId.AX1.build(p1, p1)),
                 MPStep(2, 3, aa))
        assert check(Derivation(CalculusId.I, frozenset(), steps)) == []
        d = Derivation(CalculusId.I, frozenset(), steps + (MPStep(4, 5, p1),))
        assert codes(check(d)) == ["forward-reference"]

    def test_fragment_violation(self):
        d = Derivation(CalculusId.I, frozenset([parse("p1 v p2")]),
                       (HypStep(parse("p1 v p2")),))
        assert set(codes(check(d))) == {"fragment-violation"}

    def test_uncited_hypothesis_outside_the_calculus(self):
        d = Derivation(CalculusId.I, frozenset([Atom(1), parse("p1 v p2")]),
                       (HypStep(Atom(1)),))
        assert [(e.index, e.code) for e in check(d)] == [(-1, "fragment-violation")]

    def test_steps_are_frozen(self):
        steps = [HypStep(Atom(1))]
        d = Derivation(CalculusId.I, frozenset([Atom(1)]), steps)
        steps.append(HypStep(Atom(2)))
        assert d.steps == (HypStep(Atom(1)),)
        assert check(d) == []

    def test_fragment_violation_names_the_calculus(self):
        d = Derivation(CalculusId.I, frozenset(),
                       (AxiomStep(SchemeId.AX4, parse("p1 -> p1 v p2")),))
        assert [str(e) for e in check(d)] == [
            "step 1: fragment-violation: p1 -> p1 v p2 outside I"]

    def test_unused_declared_hypothesis_allowed(self):
        d = Derivation(CalculusId.I, frozenset([Atom(1), Atom(2)]),
                       (HypStep(Atom(1)),))
        assert check(d) == []

    def test_verify_raises(self):
        d = Derivation(CalculusId.I, frozenset(), (HypStep(Atom(1)),))
        with pytest.raises(CheckError):
            verify(d)

    def test_check_error_text_joins_its_errors(self):
        d = Derivation(CalculusId.I, frozenset(),
                       (HypStep(Atom(1)), HypStep(Atom(2))))
        with pytest.raises(CheckError) as exc:
            verify(d)
        assert str(exc.value) == (
            "step 1: hypothesis-not-declared: p1 not among the declared "
            "hypotheses; step 2: hypothesis-not-declared: p2 not among the "
            "declared hypotheses")

    _IMP = parse("p1 -> p2")
    _I = CalculusId.I

    @pytest.mark.parametrize("calc, hyps, steps, code", [
        (_I, (), (object(),), "unknown-step"),
        (_I, (), (HypStep("p1"),), "not-a-formula"),
        (_I, ("p1",), (AxiomStep(SchemeId.AX1, parse("p1 -> p2 -> p1")),),
         "not-a-formula"),
        (_I, (_IMP, Atom(1)),
         (HypStep(_IMP), HypStep(Atom(1)), MPStep("0", 1, Atom(2))),
         "forward-reference"),
        (_I, (_IMP, Atom(1)),
         (HypStep(_IMP), HypStep(Atom(1)), MPStep(0, True, Atom(2))),
         "forward-reference"),
        (_I, (), (object(), MPStep(0, 0, Atom(2))), "mp-mismatch"),
        (_I, (), (AxiomStep([], parse("p1 -> p2 -> p1")),), "scheme-not-in-calculus"),
        ("I", (Atom(1),), (HypStep(Atom(1)),), "unknown-calculus"),
        (_I, (), (HypStep(Formula()),), "not-a-formula"),
        (_I, (Formula(),), (AxiomStep(SchemeId.AX1, parse("p1 -> p2 -> p1")),),
         "not-a-formula"),
    ], ids=["unknown-step", "step-formula", "hypothesis", "str-index", "bool-index",
            "cites-unknown-step", "unhashable-scheme", "str-calculus",
            "bare-formula-step", "bare-formula-hypothesis"])
    def test_malformed_reported_not_raised(self, calc, hyps, steps, code):
        d = Derivation(calc, frozenset(hyps), steps)
        assert code in codes(check(d))
        with pytest.raises(CheckError):
            verify(d)

    def test_empty_derivation_rejected(self):
        with pytest.raises(ValueError):
            Derivation(CalculusId.I, frozenset(), ())


_TAUTOLOGIES = [parse(t) for t in (
    "p1 -> p1", "p1 -> p2 -> p1", "((p1 -> p2) -> p1) -> p1",
    "p1 v p2 -> p2 v p1", "p1 -> p1 v p2",
    "(p1 -> p3) -> (p2 -> p3) -> p1 v p2 -> p3",
    "p1 & p2 -> p2 & p1", "p1 -> p2 -> p1 & p2",
    "p1 & (p2 v p3) -> p1 & p2 v p1 & p3")]


@st.composite
def _checked_proofs(draw):
    """A small closed prove() proof or an open build_line() line, in ID or P."""
    calc = draw(st.sampled_from([CalculusId.ID, CalculusId.P]))
    if draw(st.booleans()):
        return prove(draw(st.sampled_from(
            [t for t in _TAUTOLOGIES if calc.admits(t)])), calc)
    f = draw(formulas(max_depth=2).filter(calc.admits))
    values = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    v = {i + 1: value for i, value in enumerate(values)}
    return build_line(v, f, calc).derivation


@st.composite
def _mutants(draw):
    """A checked proof with one step or the hypothesis set changed: new MP
    indices, another scheme tag, a random formula in any step or in the
    last one (the only step whose formula is what the proof concludes), or
    a dropped hypothesis."""
    d = draw(_checked_proofs())
    steps, hyps = list(d.steps), d.hypotheses
    where = {"mp": [i for i, s in enumerate(steps) if isinstance(s, MPStep)],
             "scheme": [i for i, s in enumerate(steps)
                        if isinstance(s, AxiomStep)],
             "formula": list(range(len(steps))),
             "conclusion": [len(steps) - 1],
             "hypothesis": [0] if hyps else []}
    kind = draw(st.sampled_from([k for k, at in where.items() if at]))
    i = draw(st.sampled_from(where[kind]))
    step = steps[i]
    if kind == "mp":
        index = st.integers(0, len(steps) - 1)
        major, minor = draw(index), draw(index)
        assume((major, minor) != (step.major, step.minor))
        steps[i] = MPStep(major, minor, step.formula)
    elif kind == "scheme":
        steps[i] = AxiomStep(draw(st.sampled_from(
            [s for s in SchemeId if s is not step.scheme])), step.formula)
    elif kind in ("formula", "conclusion"):
        g = draw(formulas(max_depth=2))
        assume(g is not step.formula)
        if isinstance(step, AxiomStep):
            steps[i] = AxiomStep(step.scheme, g)
        elif isinstance(step, HypStep):
            steps[i] = HypStep(g)
        else:
            steps[i] = MPStep(step.major, step.minor, g)
    else:
        hyps = hyps - {draw(st.sampled_from(sorted(hyps, key=str)))}
    return Derivation(d.calculus, hyps, tuple(steps))


class TestSoundnessUnderMutation:
    """A single-step mutation of a checked proof is either rejected by the
    checker or still concludes something its hypotheses entail."""

    @given(_mutants())
    @settings(max_examples=300, deadline=None)
    def test_rejected_or_entailed(self, d):
        assert check(d) or entails(list(d.hypotheses), d.conclusion)


_DEEP = "(" * 5000 + "p1" + ")" * 5000   # deeper than the recursion limit


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
        lambda t: t.replace("1. hyp p1 -> p2", "1. hyp p1 ->"),  # bad formula
        lambda t: t.replace("1. hyp p1 -> p2", f"1. hyp {_DEEP}"),
    ])
    def test_malformed_rejected(self, mangle):
        with pytest.raises(ProofFormatError):
            read_text(mangle(write_text(self.sample())))

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"calculus": "ID", "hypotheses": [], "steps": []}',
        "[" * 100_000,
    ], ids=["invalid-json", "no-steps", "deep-array"])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ProofFormatError):
            from_json(text)

    @pytest.mark.parametrize("mangle", [
        lambda doc: doc["steps"][2].update(major=1.5),
        lambda doc: doc["steps"][2].update(minor=True),
        lambda doc: doc.update(hypotheses="p1"),
        lambda doc: doc.update(steps={"1": doc["steps"][0]}),
        lambda doc: doc["steps"][3].update(scheme="Ax0"),
        lambda doc: doc["steps"][0].update(formula="p1 ->"),
        lambda doc: doc["steps"][0].update(formula=_DEEP),
    ], ids=["float-index", "bool-index", "string-hypotheses", "object-steps",
            "unknown-scheme", "unparsable-formula", "deep-formula"])
    def test_ill_typed_json_rejected(self, mangle):
        doc = json.loads(to_json(self.sample()))
        mangle(doc)
        with pytest.raises(ProofFormatError):
            from_json(json.dumps(doc))

    def test_checked_after_reading(self):
        d = read_text(write_text(self.sample()))
        assert check(d) == []
