import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from posprop.formula import (Atom, Conj, Disj, Formula, Impl, ParseError,
                             atoms_of, compare_R, conj_chain, delta_set,
                             disj_chain, enumerate_formulas, gamma_set,
                             neg_encode, parse, pos_encode, pretty, r_key,
                             r_sorted, replace_at, subformula_at, subformulas)
from posprop.kernel import AxiomStep, CalculusId, Derivation, HypStep, SchemeId


def formulas(max_depth=4, atoms=(1, 2, 3)):
    atom = st.sampled_from([Atom(i) for i in atoms])
    return st.recursive(
        atom,
        lambda sub: st.builds(Impl, sub, sub) | st.builds(Disj, sub, sub)
        | st.builds(Conj, sub, sub),
        max_leaves=2 ** max_depth)


class TestParse:
    def test_atom(self):
        assert parse("p1") == Atom(1)
        assert parse("  p42 ") == Atom(42)

    def test_precedence(self):
        # & binds tighter than v binds tighter than ->
        assert parse("p1 & p2 v p3 -> p4") == \
            Impl(Disj(Conj(Atom(1), Atom(2)), Atom(3)), Atom(4))

    def test_right_associativity(self):
        assert parse("p1 -> p2 -> p3") == Impl(Atom(1), Impl(Atom(2), Atom(3)))
        assert parse("p1 v p2 v p3") == Disj(Atom(1), Disj(Atom(2), Atom(3)))
        assert parse("p1 & p2 & p3") == Conj(Atom(1), Conj(Atom(2), Atom(3)))

    def test_parens_override(self):
        assert parse("(p1 -> p2) -> p3") == Impl(Impl(Atom(1), Atom(2)), Atom(3))

    def test_whitespace_insignificant(self):
        assert parse("p1->p2&p3") == parse("p1 -> p2 & p3")

    _ATOM = "an atom or '('"
    _TOKEN = "a token ('->', 'v', '&', '(', ')' or 'pN')"

    _REJECTS = [
        ("", 0, _ATOM), ("p0", 0, _TOKEN), ("q1", 0, _TOKEN),
        ("p1 ->", 5, _ATOM), ("(p1", 3, "')'"), ("p1)", 2, "end of input"),
        ("p1 p2", 3, "end of input"), ("-> p1", 0, _ATOM), ("p1 v v p2", 5, _ATOM),
        ("p1 -> )", 6, _ATOM), ("p1 -> p2 x", 9, _TOKEN),
        # one digit more than int() converts
        ("p" + "9" * (sys.get_int_max_str_digits() + 1), 0,
         f"an atom index of at most {sys.get_int_max_str_digits()} digits")]

    @pytest.mark.parametrize("bad, position, expected", _REJECTS,
                             ids=[bad if len(bad) < 20 else "oversized-atom"
                                  for bad, _, _ in _REJECTS])
    def test_rejects(self, bad, position, expected):
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert (exc.value.position, exc.value.expected) == (position, expected)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("p1 -> )")
        assert exc.value.position == 6

    @given(formulas())
    def test_pretty_round_trip(self, f):
        assert parse(pretty(f)) == f

    def test_pretty_minimal_parens(self):
        assert pretty(parse("p1 -> (p2 -> p3)")) == "p1 -> p2 -> p3"
        assert pretty(parse("(p1 & p2) v p3")) == "p1 & p2 v p3"
        assert pretty(parse("(p1 v p2) & p3")) == "(p1 v p2) & p3"

    @given(formulas(), st.data())
    def test_redundant_parens_and_spacing(self, f, data):
        def space():
            return data.draw(st.text(" \t\n", max_size=2))

        def show(g):
            # pretty's parentheses, plus up to two redundant pairs anywhere
            if isinstance(g, Atom):
                text = f"p{g.index}"
            else:
                ls, rs = show(g.left), show(g.right)
                if not isinstance(g.left, Atom) and g.left.precedence <= g.precedence:
                    ls = f"({space()}{ls}{space()})"
                if not isinstance(g.right, Atom) and g.right.precedence < g.precedence:
                    rs = f"({space()}{rs}{space()})"
                text = f"{ls}{space()}{g.symbol}{space()}{rs}"
            for _ in range(data.draw(st.integers(0, 2))):
                text = f"({space()}{text}{space()})"
            return text

        assert parse(space() + show(f) + space()) is f

    @given(st.lists(st.sampled_from(["p1", "p2", "p10", "p", "0", "->", "-",
                                     ">", "v", "&", "(", ")", " ", "x"]),
                    max_size=12).map("".join))
    def test_random_tokens_fail_only_with_parse_error(self, text):
        try:
            assert isinstance(parse(text), Formula)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text)

    def test_redundant_parens_within_the_limit(self):
        assert parse("(" * 500 + "p1 -> p1" + ")" * 500) is Impl(Atom(1), Atom(1))

    def test_pretty_of_a_deep_formula(self):
        f = Atom(1)
        for _ in range(5000):
            f = Impl(f, Atom(1))
        text = pretty(f)
        assert text.startswith("(" * 4999 + "p1 -> p1) -> p1) -> p1")
        assert text.count("->") == 5000


class TestInterning:
    def test_equal_trees_are_identical(self):
        assert parse("p1 v p2 -> p3") is parse("p1 v p2 -> p3")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            parse("p1").index = 7

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom(0)
        with pytest.raises(ValueError):
            Atom("1")
        with pytest.raises(ValueError):
            Atom(True)      # an int, and == 1, but not an atom index
        with pytest.raises(ValueError, match="digits"):
            Atom(10 ** 5000)  # more digits than pretty can print

    def test_copy_and_pickle_reintern(self):
        f = parse("p1 -> p2 v p3 & p1")
        for clone in (copy.copy, copy.deepcopy,
                      lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(f) is f and clone(Atom(1)) is Atom(1)
        d = Derivation(CalculusId.I, frozenset([Atom(1)]),
                       (HypStep(Atom(1)),
                        AxiomStep(SchemeId.AX1, parse("p1 -> p2 -> p1"))))
        assert pickle.loads(pickle.dumps(d)) == d == copy.deepcopy(d)


class TestFragments:
    def test_fragment_of(self):
        assert CalculusId(parse("p1 -> p2").mask) is CalculusId.I
        assert CalculusId(parse("p1 v p2").mask) is CalculusId.ID
        assert CalculusId(parse("p1 & p2").mask) is CalculusId.IC
        assert CalculusId(parse("p1 & p2 v p3").mask) is CalculusId.P

    def test_includes_partial_order(self):
        assert CalculusId.P.extends(CalculusId.I)
        assert not CalculusId.ID.extends(CalculusId.IC)

    @given(formulas())
    def test_admits_consistent_with_fragment_of(self, f):
        # CalculusId(f.mask) is the least calculus admitting f
        least = CalculusId(f.mask)
        assert least.admits(f)
        for calc in CalculusId:
            assert calc.admits(f) == calc.extends(least)


class TestOrderR:
    def test_atoms_by_index(self):
        assert compare_R(Atom(1), Atom(2)) == -1
        assert compare_R(Atom(3), Atom(3)) == 0

    def test_size_dominates(self):
        assert compare_R(Atom(9), parse("p1 -> p1")) == -1

    @given(formulas(), formulas(), formulas())
    def test_linear_order(self, a, b, c):
        # total: exactly one of <, =, > holds; transitive via sort keys
        assert (compare_R(a, b) == 0) == (a == b)
        assert compare_R(a, b) == -compare_R(b, a)
        if compare_R(a, b) <= 0 and compare_R(b, c) <= 0:
            assert compare_R(a, c) <= 0

    def test_r_sorted_deterministic(self):
        atoms = [Atom(3), Atom(1), Atom(2)]
        assert r_sorted(atoms) == (Atom(1), Atom(2), Atom(3))


class TestAtomSetsAndEncodings:
    def test_atoms_of_collapses_duplicates(self):
        assert atoms_of(parse("p1 -> p1 v p2")) == frozenset({Atom(1), Atom(2)})

    def test_gamma_delta_partition(self):
        f = parse("p1 -> p2 & p3")
        v = {1: True, 2: False, 3: True}
        assert gamma_set(v, f) == frozenset({Atom(1), Atom(3)})
        assert delta_set(v, f) == frozenset({Atom(2)})

    def test_lookup_failure_names_atom(self):
        with pytest.raises(KeyError, match="p2"):
            gamma_set({1: True}, parse("p1 v p2"))

    def test_chains_right_associated(self):
        assert disj_chain([Atom(1), Atom(2), Atom(3)]) == parse("p1 v p2 v p3")
        assert conj_chain([Atom(1), Atom(2)]) == parse("p1 & p2")
        with pytest.raises(ValueError):
            disj_chain([])

    def test_pos_encode(self):
        a = parse("p1 -> p2")
        assert pos_encode([], a) == a
        assert pos_encode([Atom(2), Atom(1)], a) == parse("p1 v p2 v (p1 -> p2)")

    def test_pos_encode_singleton_is_genuine_disjunction(self):
        assert pos_encode([Atom(1)], Atom(2)) == Disj(Atom(1), Atom(2))

    def test_neg_encode(self):
        a = parse("p1 v p2")
        assert neg_encode([], a) == a
        assert neg_encode([Atom(1), Atom(2)], a) == parse("p1 v p2 -> p1 v p2")


class TestPaths:
    def test_subformula_at(self):
        f = parse("p1 -> p2 & p3")
        assert subformula_at(f, ()) == f
        assert subformula_at(f, ("right", "left")) == Atom(2)

    def test_replace_at(self):
        f = parse("p1 -> p2")
        assert replace_at(f, ("left",), Atom(9)) == parse("p9 -> p2")
        assert replace_at(f, (), Atom(9)) == Atom(9)

    def test_bad_path(self):
        with pytest.raises(ValueError):
            subformula_at(Atom(1), ("left",))

    @given(formulas())
    def test_subformulas_contains_self_and_atoms(self, f):
        subs = list(subformulas(f))
        assert subs[0] == f
        assert atoms_of(f) <= set(subs)


class TestEnumeration:
    def test_counts_small(self):
        # 2 atoms, ID's language: 2 atoms + 8 one-connective formulas
        got = list(enumerate_formulas(1, [1, 2], CalculusId.ID))
        assert len(got) == 10
        assert len(set(got)) == 10

    def test_negative_count_yields_nothing(self):
        assert list(enumerate_formulas(-1, [1, 2], CalculusId.P)) == []

    def test_respects_fragment(self):
        for f in enumerate_formulas(2, [1, 2], CalculusId.I):
            assert CalculusId(f.mask) is CalculusId.I

    def test_levelwise_order(self):
        sizes = [f.size for f in
                 enumerate_formulas(2, [1], CalculusId.P)]
        assert sizes == sorted(sizes)
