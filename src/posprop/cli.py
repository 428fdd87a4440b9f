"""Command-line front end.

Exit codes: 0 success; 1 logical negative (non-tautology with countermodel,
proof that fails checking); 2 usage or syntax errors, including input
nested too deeply to parse.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .formula import (Fragment, ParseError, fragment_of, parse, pretty)
from .kernel import (AxiomStep, CalculusId, CheckError, check, verify)
from .kalmar import NotTautology, prove
from .proofio import (ProofFormatError, from_json, read_text, to_json,
                      write_text)
from .semantics import find_countermodel, format_assignment
from .transform import (decompose, decompose_to_implicative, gamma, prove_I,
                        prove_IC, prove_P_reduction, tau, translate_derivation)
from .tactics import TacticError


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        sys.exit(2)


def _read_proof(path: str):
    """The derivation in a proof file, text or JSON (a file whose first
    non-blank character is `{`); exits 2 if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return from_json(text)
        return read_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except (ProofFormatError, ParseError, UnicodeDecodeError) as exc:
        print(f"malformed proof file: {exc}", file=sys.stderr)
    sys.exit(2)


def _emit(text: str, out) -> None:
    """Write text to the --out path, or to stdout without one; exits 2 if
    the file cannot be written."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def _synthesize(f, calculus: CalculusId, route: str):
    if route == "reduction":
        if calculus is CalculusId.P:
            return prove_P_reduction(f)
        raise TacticError("the reduction route applies to calculus P")
    if calculus is CalculusId.I:
        return prove_I(f)
    if calculus is CalculusId.IC:
        return prove_IC(f)
    return prove(f, calculus)


def _cmd_prove(args) -> int:
    f = _parse_formula(args.formula)
    calculus = CalculusId[args.calculus]
    try:
        d = _synthesize(f, calculus, args.route)
    except NotTautology as exc:
        print(f"not a tautology: {format_assignment(exc.countermodel)}")
        return 1
    except TacticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(write_text(d) if args.format == "text" else to_json(d), args.out)
    print(f"proved {pretty(d.conclusion)} in {calculus} ({len(d)} steps)",
          file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    d = _read_proof(args.path)
    errors = check(d)
    if errors:
        for e in errors:
            print(str(e))
        return 1
    hyps = ", ".join(pretty(h) for h in sorted(d.hypotheses, key=str)) or "(none)"
    print(f"ok: {len(d)} steps in {d.calculus}; hypotheses: {hyps}; "
          f"conclusion: {pretty(d.conclusion)}")
    return 0


def _cmd_tautology(args) -> int:
    f = _parse_formula(args.formula)
    countermodel = find_countermodel(f)
    if countermodel is None:
        print("tautology")
        return 0
    print(f"not a tautology: {format_assignment(countermodel)}")
    return 1


def _cmd_translate(args) -> int:
    d = _read_proof(args.path)
    try:
        out = translate_derivation(d)
    except (TacticError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(write_text(out), args.out)
    print(f"translated to {len(out)} steps in I", file=sys.stderr)
    return 0


def _cmd_normalize(args) -> int:
    f = _parse_formula(args.formula)
    if args.mode == "gamma":
        g = gamma(f)
        print(pretty(g.formula))
        for rule, path in g.trace:
            loc = ".".join(path) or "(root)"
            print(f"  rule {rule} at {loc}")
        return 0
    if not Fragment.IMPLICATIVE_DISJUNCTIVE.admits(f):
        print("error: tau applies to the ->/v fragment only", file=sys.stderr)
        return 2
    print(pretty(tau(f)))
    return 0


def _cmd_decompose(args) -> int:
    f = _parse_formula(args.formula)
    try:
        dec = (decompose_to_implicative(f) if args.mode == "implicative"
               else decompose(f))
        verify(dec.equivalence.forward)
        verify(dec.equivalence.backward)
    except (TacticError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for conjunct in dec.conjuncts:
        print(pretty(conjunct))
    print(f"equivalence checked: {len(dec.equivalence.forward)} + "
          f"{len(dec.equivalence.backward)} steps", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    from .formula import enumerate_formulas
    from .semantics import is_tautology

    calculus = CalculusId[args.calculus]
    atoms = list(range(1, args.atoms + 1))
    lengths = []
    total = taut = 0
    for f in enumerate_formulas(args.max_connectives, atoms, calculus.fragment):
        total += 1
        if not is_tautology(f):
            continue
        taut += 1
        d = _synthesize(f, calculus, "direct")
        lengths.append(len(d))
    print(f"calculus {calculus}: {total} formulas, {taut} tautologies")
    if lengths:
        print(f"proof steps: max {max(lengths)}, "
              f"mean {sum(lengths) / len(lengths):.1f}")
    return 0


def _cmd_stats(args) -> int:
    d = _read_proof(args.path)
    by_scheme = Counter(str(s.scheme) for s in d.steps if isinstance(s, AxiomStep))
    print(f"calculus: {d.calculus}")
    print(f"steps: {len(d)}")
    print(f"hypotheses: {len(d.hypotheses)}")
    print(f"conclusion: {pretty(d.conclusion)}")
    print(f"fragment: {fragment_of(d.conclusion).name}")
    for scheme, n in sorted(by_scheme.items()):
        print(f"  {scheme}: {n}")
    return 0


def _count(text: str) -> int:
    """argparse type for a count: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="posprop",
                                description="positive propositional proofs")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prove", help="synthesize a checked derivation")
    sp.add_argument("formula")
    sp.add_argument("--calculus", "-c", choices=sorted(CalculusId.__members__),
                    default="P")
    sp.add_argument("--route", choices=["direct", "reduction"], default="direct")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--out", "-o")
    sp.set_defaults(func=_cmd_prove)

    sp = sub.add_parser("check", help="validate a proof file")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("tautology", help="truth-table decision")
    sp.add_argument("formula")
    sp.set_defaults(func=_cmd_tautology)

    sp = sub.add_parser("translate", help="map a closed ID proof into I")
    sp.add_argument("path")
    sp.add_argument("--out", "-o")
    sp.set_defaults(func=_cmd_translate)

    sp = sub.add_parser("normalize", help="gamma or tau normal form")
    sp.add_argument("formula")
    sp.add_argument("--mode", choices=["gamma", "tau"], default="gamma")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("decompose", help="split into conjunction-free parts")
    sp.add_argument("formula")
    sp.add_argument("--mode", choices=["id", "implicative"], default="id")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("enumerate", help="sweep and prove small tautologies")
    sp.add_argument("--max-connectives", type=_count, default=3)
    sp.add_argument("--atoms", type=_count, default=2)
    sp.add_argument("--calculus", "-c", choices=sorted(CalculusId.__members__),
                    default="ID")
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("stats", help="summarize a proof file")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_stats)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
