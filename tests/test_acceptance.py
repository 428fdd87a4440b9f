"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The proof log of conftest.py records for the whole module, so that the
soundness criterion can audit every derivation verified anywhere in the
run; it is checked last on purpose.
"""

import functools
import gc
import random
import time

import pytest

from posprop.formula import (Atom, Conj, Disj, Impl, atoms_of, delta_set,
                             enumerate_formulas, gamma_set, neg_encode, parse,
                             pos_encode, pretty)
from posprop.kernel import CalculusId, check
from posprop.semantics import (assignments_over, entails, evaluate,
                               find_countermodel, is_tautology)
from posprop.kalmar import build_line, derive_from_hypotheses, prove
from posprop.proofio import read_text, write_text
from posprop.tactics import (LemmaId, as_derivability, biconditional_to_pair,
                             conjoin, deduction, lemma, pair_to_biconditional,
                             split_conjunction)
from posprop.transform import (gamma, gamma_equivalence, is_gamma_normal,
                               prove_P_reduction, tau, tau_equivalence,
                               translate_derivation)

from conftest import proof_log
from test_tactics import GOLDEN_DERIVATIONS, GOLDEN_PAIRS, P1, P2, P3


@pytest.fixture(scope="module", autouse=True)
def verified():
    """(hypotheses, conclusion) of every derivation verified in this module."""
    with proof_log() as records:
        yield records


def report(num, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    if failures:
        line += f"; first failure: {failures[0]}"
    print(line)
    assert not failures, line


def truth_equal(a, b):
    return all(evaluate(v, a) == evaluate(v, b)
               for v in assignments_over(atoms_of(a) | atoms_of(b)))


def random_formula(rng, n_connectives, atom_indices, connectives):
    """A uniform-ish random formula tree with exactly n_connectives nodes."""
    if n_connectives == 0:
        return Atom(rng.choice(atom_indices))
    left = rng.randint(0, n_connectives - 1)
    ctor = rng.choice(connectives)
    return ctor(random_formula(rng, left, atom_indices, connectives),
                random_formula(rng, n_connectives - 1 - left,
                               atom_indices, connectives))


# ---------------------------------------------------------------------------
# shared corpora (cached so criteria can be run individually)

@functools.lru_cache(maxsize=None)
def sweep_results():
    """Criterion-1 sweep: every ->/v formula over {p1,p2} with <= 4
    connectives, proved in ID or refuted."""
    proofs = []
    countermodels = 0
    # the proof log keeps millions of small tuples alive; cyclic-GC passes
    # over them dominate the timing noise, and nothing here builds cycles
    gc.disable()
    try:
        start = time.monotonic()
        for f in enumerate_formulas(4, [1, 2], CalculusId.ID):
            v = find_countermodel(f)
            if v is None:
                proofs.append(prove(f, CalculusId.ID))
            else:
                assert evaluate(v, f) is False, pretty(f)
                countermodels += 1
        elapsed = time.monotonic() - start
    finally:
        gc.enable()
    return proofs, countermodels, elapsed


@functools.lru_cache(maxsize=None)
def normal_form_corpus():
    """Criterion-5 corpus: exhaustive to 3 connectives over 3 atoms, plus
    seeded random samples at 4 and 5 connectives (the exhaustive 5-connective
    space has several million formulas; see the sample counts below)."""
    corpus = list(enumerate_formulas(3, [1, 2, 3], CalculusId.P))
    rng = random.Random(20260823)
    ctors = [Impl, Disj, Conj]
    seen = set(corpus)
    for n in (4, 5):
        for _ in range(1500):
            f = random_formula(rng, n, [1, 2, 3], ctors)
            if f not in seen:
                seen.add(f)
                corpus.append(f)
    return corpus


def test_criterion_1_completeness_sweep():
    proofs, countermodels, elapsed = sweep_results()
    failures = []
    seen = set()
    for d in proofs:
        if d.hypotheses or d.calculus is not CalculusId.ID or check(d):
            failures.append(pretty(d.conclusion))
        seen.add(d.conclusion)
    total = len(proofs) + countermodels
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f}s (budget 60s)")
    report(1, failures,
           f"{total} formulas over 2 atoms, {len(seen)} distinct tautologies "
           f"proved in ID, {countermodels} countermodels, {elapsed:.1f}s")


def test_criterion_3_line_property():
    rng = random.Random(3)
    failures = []
    total = 0
    for calc, ctors in ((CalculusId.ID, [Impl, Disj]),
                        (CalculusId.P, [Impl, Disj, Conj])):
        for _ in range(500):
            f = random_formula(rng, rng.randint(0, 6), [1, 2, 3], ctors)
            v = {a.index: rng.random() < 0.5 for a in atoms_of(f)}
            cert = build_line(v, f, calc)
            truth = evaluate(v, f)
            expected = (pos_encode(delta_set(v, f), f) if truth
                        else neg_encode(delta_set(v, f), f))
            ok = (cert.polarity == ("positive" if truth else "negative")
                  and cert.derivation.conclusion == expected
                  and cert.derivation.hypotheses == gamma_set(v, f)
                  and not check(cert.derivation))
            if not ok:
                failures.append(f"{calc}: {pretty(f)} under {v}")
            total += 1
    report(3, failures, f"{total} build_line certificates "
                        "(500 per calculus, ID and P) verified")


def test_criterion_4_deduction_contract():
    rng = random.Random(4)
    failures = []
    inputs = []
    # modus-ponens-shaped targets always have both hypotheses
    while len(inputs) < 50:
        a = random_formula(rng, rng.randint(0, 3), [1, 2, 3], [Impl, Disj])
        b = random_formula(rng, rng.randint(0, 3), [1, 2, 3], [Impl, Disj])
        if a != Impl(a, b):
            inputs.append(derive_from_hypotheses([a, Impl(a, b)], b,
                                                 CalculusId.ID))
    # line derivations with at least one true atom in the assignment
    while len(inputs) < 200:
        f = random_formula(rng, rng.randint(1, 6), [1, 2, 3],
                           [Impl, Disj, Conj])
        v = {x.index: rng.random() < 0.5 for x in atoms_of(f)}
        d = build_line(v, f, CalculusId.P).derivation
        if d.hypotheses:
            inputs.append(d)
    for d in inputs:
        a = rng.choice(sorted(d.hypotheses, key=pretty))
        out = deduction(d, a)
        ok = (out.hypotheses == d.hypotheses - {a}
              and out.conclusion == Impl(a, d.conclusion)
              and not check(out)
              and len(out) <= 3 * len(d) + 10)
        if not ok:
            failures.append(f"discharging {pretty(a)} from "
                            f"|- {pretty(d.conclusion)}")
    report(4, failures, f"{len(inputs)} deduction applications: exact "
                        "discharge, checked output, size <= 3n+10")


def test_criterion_5_normal_forms():
    corpus = normal_form_corpus()
    failures = []
    id_subset = []
    for f in corpus:
        g = gamma(f)
        if not (is_gamma_normal(g.formula) and truth_equal(f, g.formula)):
            failures.append(f"gamma {pretty(f)}")
        if CalculusId.ID.admits(f):
            id_subset.append(f)
            t = tau(f)
            if not (CalculusId(t.mask) is CalculusId.I
                    and truth_equal(f, t)):
                failures.append(f"tau {pretty(f)}")
        if len(failures) > 3:
            break
    rng = random.Random(5)
    eq_gamma = rng.sample(corpus, min(300, len(corpus)))
    eq_tau = rng.sample(id_subset, min(300, len(id_subset)))
    for f in eq_gamma:
        p = gamma_equivalence(f)
        if p.right != gamma(f).formula or check(p.forward) or check(p.backward):
            failures.append(f"gamma_equivalence {pretty(f)}")
    for f in eq_tau:
        p = tau_equivalence(f)
        if p.right != tau(f) or check(p.forward) or check(p.backward):
            failures.append(f"tau_equivalence {pretty(f)}")
    report(5, failures,
           f"{len(corpus)} formulas (exhaustive to 3 connectives plus seeded "
           f"4-5 connective samples): gamma redex-free and truth-equal; tau "
           f"v-free and truth-equal on {len(id_subset)} ->/v formulas; "
           f"{len(eq_gamma)}+{len(eq_tau)} kernel-checked equivalences")


def test_criterion_6_route_agreement():
    corpus = normal_form_corpus()
    failures = []
    rng = random.Random(6)

    p_tautologies = [f for f in corpus
                     if f.size <= 7 and is_tautology(f)]
    recheck = set(rng.sample(range(len(p_tautologies)),
                             min(200, len(p_tautologies))))
    for i, f in enumerate(p_tautologies):
        direct = prove(f, CalculusId.P)
        reduced = prove_P_reduction(f)
        ok = (direct.conclusion == f and reduced.conclusion == f
              and not direct.hypotheses and not reduced.hypotheses
              and direct.calculus is reduced.calculus is CalculusId.P)
        if ok and i in recheck:
            ok = not check(direct) and not check(reduced)
        if not ok:
            failures.append(f"routes disagree on {pretty(f)}")
        if len(failures) > 3:
            break

    larger = [f for f in corpus if f.size > 7 and is_tautology(f)]
    larger_sample = rng.sample(larger, min(150, len(larger)))
    for f in larger_sample:
        direct = prove(f, CalculusId.P)
        reduced = prove_P_reduction(f)
        if not (direct.conclusion == f and reduced.conclusion == f
                and not direct.hypotheses and not reduced.hypotheses):
            failures.append(f"routes disagree on {pretty(f)}")

    id_tautologies = [f for f in p_tautologies
                      if CalculusId.ID.admits(f)]
    translated = rng.sample(id_tautologies, min(60, len(id_tautologies)))
    for f in translated:
        t = translate_derivation(prove(f, CalculusId.ID))
        if not (t.calculus is CalculusId.I and not t.hypotheses
                and t.conclusion == tau(f) and not check(t)):
            failures.append(f"translate {pretty(f)}")

    implicative = [f for f in id_tautologies
                   if CalculusId(f.mask) is CalculusId.I]
    for f in implicative:
        if tau(f) != f:
            failures.append(f"tau not identity on {pretty(f)}")

    report(6, failures,
           f"{len(p_tautologies)} tautologies proved by both P routes "
           f"(3-connective corpus) plus {len(larger_sample)} seeded larger "
           f"ones, {len(translated)} ID proofs translated "
           f"into I, tau fixed on all {len(implicative)} implicative inputs")


def test_criterion_7_lemma_golden_suite():
    failures = []
    count = 0
    for lid, args, calc, hyps, concl in GOLDEN_DERIVATIONS:
        d = lemma(lid, args, calc)
        if not (d.calculus is calc
                and d.hypotheses == frozenset(parse(h) for h in hyps)
                and d.conclusion == parse(concl) and not check(d)):
            failures.append(lid.value)
        count += 1
    for lid, args, calc, left, right, mode in GOLDEN_PAIRS:
        p = lemma(lid, args, calc)
        if not (p.mode == mode and p.left == parse(left)
                and p.right == parse(right)
                and not check(p.forward) and not check(p.backward)):
            failures.append(lid.value)
        count += 1

    # 2.16: disjunction-set inclusion, fixed instance
    d = lemma(LemmaId.L2_16, ([P2, P1], [P1, P3, P2]), CalculusId.ID)
    if not (d.hypotheses == frozenset([parse("p2 v p1")])
            and d.conclusion == parse("p1 v p3 v p2") and not check(d)):
        failures.append("2.16")
    count += 1

    # 2.20: |- A <-> B exactly when A and B are syntactical equivalents;
    # fixed instance via the 2.21 pair, in both directions
    p21 = lemma(LemmaId.L2_21, [P1, P2, P3], CalculusId.IC)
    bicond = pair_to_biconditional(p21)
    expected = Conj(Impl(p21.left, p21.right), Impl(p21.right, p21.left))
    back = biconditional_to_pair(bicond)
    back = as_derivability(back)
    if not (bicond.conclusion == expected and not bicond.hypotheses
            and not check(bicond)
            and back.left == p21.left and back.right == p21.right
            and back.forward.hypotheses == frozenset([p21.left])
            and back.backward.hypotheses == frozenset([p21.right])
            and not check(back.forward) and not check(back.backward)):
        failures.append("2.20")
    count += 1

    # 2.24: |- B1 & ... & Bn exactly when |- Bj for every j; fixed instance
    theses = [lemma(LemmaId.L2_5, [a], CalculusId.IC) for a in (P1, P2, P3)]
    joined = conjoin(theses)
    split = split_conjunction(joined, 3)
    if not (joined.conclusion == parse("(p1 -> p1) & (p2 -> p2) & (p3 -> p3)")
            and not joined.hypotheses and not check(joined)
            and [d.conclusion for d in split] ==
                [d.conclusion for d in theses]
            and all(not d.hypotheses and not check(d) for d in split)):
        failures.append("2.24")
    count += 1

    report(7, failures, f"{count} golden lemma statements matched and "
                        "kernel-checked (2.5-2.26 and 5.1)")


def test_criterion_8_proof_file_round_trip():
    proofs, _, _ = sweep_results()
    failures = []
    for d in proofs:
        text = write_text(d)
        back = read_text(text)
        if check(back) or back != d or write_text(back) != text:
            failures.append(pretty(d.conclusion))
            if len(failures) > 3:
                break
    report(8, failures, f"{len(proofs)} proof files: write -> read -> check "
                        "preserved validity with byte-identical output")


def test_criterion_2_global_soundness(verified):
    sweep_results()  # guarantee a large population even when run alone
    records = list(verified)
    failures = []
    for hyps, conclusion in records:
        if not entails(list(hyps), conclusion):
            failures.append(pretty(conclusion))
            if len(failures) > 3:
                break
    if len(records) < 1000:
        failures.append(f"only {len(records)} derivations logged")
    report(2, failures, f"{len(records)} verified derivations logged this "
                        "run; every conclusion entailed by its hypotheses")
