"""The principal-theorem table: its rows are sound, and it is not trusted."""

import random

import pytest

import posprop.kalmar as kalmar
from posprop import principal
from posprop.formula import (Atom, Conj, Disj, Impl, atoms_of, enumerate_formulas,
                             parse, subformulas)
from posprop.kalmar import _line_target, prove
from posprop.kernel import CalculusId, CheckError, HypStep, SchemeId, check
from posprop.semantics import assignments_over
from posprop.transform import prove_I

CALCULI = [CalculusId.ID, CalculusId.P]


def _general_instance(row):
    """row's theorem with a distinct atom for each metavariable."""
    return principal._instance(row.theorem,
                               [Atom(i) for i in range(1, row.arity + 1)])


def _scan(calc, goal):
    """The first row of the whole table, in rank order, that goal matches."""
    return next((row for row in principal.table(calc)[0]
                 if principal._match(row.theorem, goal, [None] * row.arity)), None)


def _random_formula(rng, calc, depth):
    """A formula of calc over p1-p3, at most depth connectives deep."""
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.randint(1, 3))
    ctor = rng.choice([c for c in (Impl, Disj, Conj) if c.bit & ~calc.mask == 0])
    return ctor(_random_formula(rng, calc, depth - 1),
                _random_formula(rng, calc, depth - 1))


@pytest.mark.parametrize("calc", CALCULI, ids=str)
def test_every_row_proves_its_theorem(calc):
    rows, _ = principal.table(calc)
    for row in rows:
        goal = _general_instance(row)
        d = principal.emit(calc, row, goal)
        assert check(d) == [], row.dterm
        assert d.conclusion is goal
        assert not any(isinstance(s, HypStep) for s in d.steps)


@pytest.mark.parametrize("calc,count", [(CalculusId.ID, 892), (CalculusId.P, 485)],
                         ids=str)
def test_rows_begin_with_the_schemes_in_order(calc, count):
    rows, _ = principal.table(calc)
    assert len(rows) == count
    assert tuple(row.dterm for row in rows[:len(calc.schemes)]) == calc.schemes
    assert len({row.theorem for row in rows}) == count   # one row per theorem


def test_first_row_is_the_least_in_rank():
    # an instance of both Ax4 and Ax5 takes Ax4; of no row, None
    assert principal.first_row(CalculusId.ID, parse("p1 -> p1 v p1")).dterm is SchemeId.AX4
    assert principal.first_row(CalculusId.ID, parse("p1 -> p2")) is None
    assert principal.first_row(CalculusId.ID, Atom(1)) is None
    # p1 -> p1 is Ax2, Ax1, Ax1 (SKK); its instance (p1 -> p2) -> p1 -> p2
    # also instantiates a later 5-node row, Ax2, Ax1, Ax6
    identity = principal.first_row(CalculusId.ID, parse("p1 -> p1"))
    assert principal.first_row(CalculusId.ID, parse("(p1 -> p2) -> p1 -> p2")) is identity
    assert len(principal.emit(CalculusId.ID, identity, parse("p2 -> p2"))) == 5


@pytest.mark.parametrize("calc", CALCULI, ids=str)
def test_first_row_is_a_rank_order_scan(calc):
    # the discrimination tree finds what a scan of every row finds, for
    # every line target of every formula of at most 2 connectives over 3 atoms
    targets = {_line_target(v, g) for f in enumerate_formulas(2, [1, 2, 3], calc)
               for v in assignments_over(atoms_of(f)) for g in subformulas(f)}
    found = 0
    for goal in targets:
        scan = _scan(calc, goal)
        assert principal.first_row(calc, goal) is scan, goal
        found += scan is not None
    assert 0 < found < len(targets)


@pytest.mark.parametrize("calc", CALCULI, ids=str)
def test_first_row_is_a_rank_order_scan_on_random_goals(calc):
    # instances of random rows, each metavariable drawn from a pool of two
    # formulas so that a repeated one gets equal or unequal instances, and
    # random formulas up to 6 deep
    rng = random.Random(44)
    rows, _ = principal.table(calc)
    found = 0
    for _ in range(1500):
        pool = [_random_formula(rng, calc, rng.randint(0, 3)) for _ in range(2)]
        row = rng.choice(rows)
        goals = (principal._instance(row.theorem,
                                     [rng.choice(pool) for _ in range(row.arity)]),
                 _random_formula(rng, calc, 6))
        for goal in goals:
            scan = _scan(calc, goal)
            assert principal.first_row(calc, goal) is scan, goal
            found += scan is not None
    assert 1500 < found < 3000


@pytest.mark.parametrize("calc", CALCULI, ids=str)
@pytest.mark.parametrize("text,scheme", [
    # not Ax6, whose C would be both p3 and p1; every connective of the
    # goal is where Ax6 has one, so only the match in the leaf rejects it
    ("(p1 -> p3) -> (p2 -> p1) -> p1 v p2 -> p3", None),
    # Ax6 with A = B: the theorem is deeper than the tree, so its leaf's
    # check sees the repeats
    ("(p2 -> p1) -> (p2 -> p1) -> p2 v p2 -> p1", SchemeId.AX6),
    ("(p2 -> p1) -> (p2 -> p3) -> p2 v p2 -> p1", None),
])
def test_first_row_checks_repeated_metavariables(calc, text, scheme):
    goal = parse(text)
    row = principal.first_row(calc, goal)
    assert row is _scan(calc, goal)
    assert (None if row is None else row.dterm) is scheme


@pytest.mark.parametrize("calc", CALCULI, ids=str)
def test_each_row_sits_in_one_leaf_within_the_depth(calc):
    rows, tree = principal.table(calc)
    assert [row.rank for row in rows] == list(range(len(rows)))
    placed = []
    todo = [(tree, [])]
    while todo:
        node, path = todo.pop()
        if type(node) is not list:
            todo += ((child, path + [symbol]) for symbol, child in node.items())
            continue
        assert 0 < len(path) <= principal.DEPTH
        assert [row.rank for row in node] == sorted({row.rank for row in node})
        assert all(principal._path(row.theorem) == path for row in node)
        placed += node
    assert len(placed) == len(rows) and set(placed) == set(rows)


def test_a_deep_goal_is_looked_up_without_recursion():
    deep = Atom(1)
    for _ in range(5000):
        deep = Impl(deep, Atom(2))
    calc = CalculusId.ID
    assert principal.first_row(calc, Impl(deep, Impl(Atom(3), deep))).dterm is SchemeId.AX1
    assert principal.first_row(calc, Impl(deep, deep)) is principal.first_row(
        calc, parse("p1 -> p1"))
    assert principal.first_row(calc, Impl(deep, Atom(3))) is None


@pytest.mark.parametrize("text", ["(p1 -> p2) -> p1 -> p2",
                                  "(p1 -> p3) -> p1 -> p3"])
def test_identity_instances_stay_implicative(text):
    # the identity row cites only Ax1 and Ax2, which the translation into I
    # keeps; it would expand a row citing Ax4-Ax6 into many steps
    assert len(prove_I(parse(text))) == 5


def test_free_metavariables_are_p1():
    # SKK's second Ax1 instance, a -> (b -> a), leaves b free
    d = principal.derive(CalculusId.ID, {Atom(3)}, parse("p3 -> p3"))
    assert d.hypotheses == {Atom(3)}
    assert parse("p3 -> p1 -> p3") in {s.formula for s in d.steps}
    assert check(d) == []


@pytest.mark.parametrize("scheme,wrong,text", [
    # a leaf row: p1 -> p1 v p2 is Ax4, not Ax5
    (SchemeId.AX4, SchemeId.AX5, "p1 -> p1 v p2"),
    # a leaf of a larger row: the identity proof cites Ax1
    (SchemeId.AX1, SchemeId.AX4, "p1 -> p1"),
])
def test_a_wrong_row_is_rejected_by_the_kernel(monkeypatch, scheme, wrong, text):
    rows, _ = principal.table(CalculusId.ID)
    monkeypatch.setattr(rows[list(CalculusId.ID.schemes).index(scheme)],
                        "dterm", wrong)
    monkeypatch.setattr(kalmar, "_LINE_CACHE", {})
    with pytest.raises(CheckError):
        prove(parse(text), CalculusId.ID)
