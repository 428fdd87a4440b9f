"""Command-line front end.

Exit codes: 0 success, 1 logical negative, 2 usage or syntax error.
Commands raise; `main` alone maps each exception to its stream, message
prefix and code (stderr unless marked):

    NotTautology                          1  stdout "not a tautology: "
    ParseError                            2  "parse error: "
    ProofFormatError, UnicodeDecodeError  2  "malformed proof file: "
    OSError, TacticError, CheckError      2  "error: "
    RecursionError                        2  "error: input nested too deeply"

`parse` does not recurse, but raises RecursionError where a formula's open
parentheses and pending connectives together pass the recursion limit; the
functions that still recurse raise it on formulas nested nearly as deeply.
A proof file nested too deeply to read is a ProofFormatError, so the
RecursionError row is a formula argument nested too deeply, or a synthesis
or check that recursed too deeply.
`check` of a proof that fails and `translate` of a proof it cannot map
into I are those commands' own negatives, exit 1.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import cache

from .formula import ParseError, enumerate_formulas, parse, pretty, r_key
from .kernel import (AxiomStep, CalculusId, CheckError, check, verify)
from .kalmar import NotTautology, prove
from .proofio import (ProofFormatError, from_json, read_text, to_json,
                      write_text)
from .semantics import find_countermodel, format_assignment
from .transform import (decompose, decompose_to_implicative, gamma, prove_I,
                        prove_IC, prove_P_reduction, tau, translate_derivation)
from .tactics import TacticError


def _read_proof(path: str):
    """The derivation in a proof file, text or JSON (a file whose first
    non-blank character is `{`)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return from_json(text) if text.lstrip().startswith("{") else read_text(text)


def _emit(text: str, out) -> None:
    """Write text to the --out path, or to stdout without one."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    calculus = CalculusId[args.calculus]
    d = _synthesize(parse(args.formula), calculus, args.route)
    _emit(write_text(d) if args.format == "text" else to_json(d), args.out)
    print(f"proved {pretty(d.conclusion)} in {calculus} ({len(d)} steps)",
          file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    d = _read_proof(args.path)
    errors = check(d)
    if errors:
        print(*errors, sep="\n")
        return 1
    hyps = ", ".join(pretty(h) for h in sorted(d.hypotheses, key=r_key)) or "(none)"
    print(f"ok: {len(d)} steps in {d.calculus}; hypotheses: {hyps}; "
          f"conclusion: {pretty(d.conclusion)}")
    return 0


def _cmd_tautology(args) -> int:
    countermodel = find_countermodel(parse(args.formula))
    if countermodel is not None:
        raise NotTautology(countermodel)
    print("tautology")
    return 0


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
    f = parse(args.formula)
    if args.mode == "tau":
        print(pretty(tau(f)))
        return 0
    g = gamma(f)
    print(pretty(g.formula))
    for rule, path in g.trace:
        print(f"  rule {rule} at {'.'.join(path) or '(root)'}")
    return 0


def _cmd_decompose(args) -> int:
    f = parse(args.formula)
    dec = (decompose_to_implicative(f) if args.mode == "implicative"
           else decompose(f))
    verify(dec.equivalence.forward)
    verify(dec.equivalence.backward)
    for conjunct in dec.conjuncts:
        print(pretty(conjunct))
    print(f"equivalence checked: {len(dec.equivalence.forward)} + "
          f"{len(dec.equivalence.backward)} steps", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    calculus = CalculusId[args.calculus]
    atoms = list(range(1, args.atoms + 1))
    lengths = []
    total = 0
    for f in enumerate_formulas(args.max_connectives, atoms, calculus):
        total += 1
        try:
            lengths.append(len(_synthesize(f, calculus, "direct")))
        except NotTautology:
            pass
    print(f"calculus {calculus}: {total} formulas, {len(lengths)} tautologies")
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
    print(f"fragment: {CalculusId(d.conclusion.mask)}")
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
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
    except NotTautology as exc:
        print(f"not a tautology: {format_assignment(exc.countermodel)}")
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except (ProofFormatError, UnicodeDecodeError) as exc:
        print(f"malformed proof file: {exc}", file=sys.stderr)
    except (OSError, TacticError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
