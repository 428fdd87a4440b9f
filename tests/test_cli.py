import json
import sys

import pytest

from posprop.cli import main
from posprop.formula import parse
from posprop.kernel import CalculusId, check
from posprop.proofio import from_json, read_text, write_text


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProve:
    def test_stdout_text(self, capsys):
        code, out, err = run(capsys, "prove", "p1 -> p1", "-c", "I")
        assert code == 0
        d = read_text(out)
        assert d.conclusion == parse("p1 -> p1")
        assert d.calculus is CalculusId.I
        assert check(d) == []
        assert "proved" in err

    def test_out_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "proof.txt"
        code, out, _ = run(capsys, "prove", "p1 v (p1 -> p2)",
                           "-c", "ID", "-o", str(path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert out.startswith("ok:")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "prove", "p1 -> p1", "-c", "I",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["calculus"] == "I"

    def test_reduction_route(self, capsys):
        code, out, _ = run(capsys, "prove", "p1 & p2 -> p2 & p1",
                           "-c", "P", "--route", "reduction")
        assert code == 0
        d = read_text(out)
        assert d.conclusion == parse("p1 & p2 -> p2 & p1")
        assert check(d) == []

    def test_ic(self, capsys):
        code, out, _ = run(capsys, "prove", "p1 & p2 -> p2 & p1", "-c", "IC")
        assert code == 0
        d = read_text(out)
        assert d.calculus is CalculusId.IC
        assert d.conclusion == parse("p1 & p2 -> p2 & p1")
        assert check(d) == [] and not d.hypotheses

    def test_reduction_route_wrong_calculus(self, capsys):
        code, _, err = run(capsys, "prove", "p1 -> p1", "-c", "I",
                           "--route", "reduction")
        assert code == 2 and "error" in err

    def test_non_tautology(self, capsys):
        code, out, _ = run(capsys, "prove", "p1 -> p2", "-c", "I")
        assert code == 1
        assert "not a tautology" in out and "p1=T p2=F" in out

    def test_out_file_not_writable(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "proof.txt"
        code, _, err = run(capsys, "prove", "p1 -> p1", "-o", str(path))
        assert code == 2 and err.startswith("error:")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "prove", "p1 ->")
        assert code == 2 and "parse error" in err

    def test_fragment_error(self, capsys):
        code, _, err = run(capsys, "prove", "p1 v p2", "-c", "I")
        assert code == 2 and "error" in err


class TestCheck:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a proof\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and "malformed" in err

    @pytest.mark.parametrize("stray", ["foo", "hyp: p1"])
    def test_stray_line_after_steps(self, capsys, tmp_path, stray):
        path = tmp_path / "stray.txt"
        path.write_text(f"calculus: I\nhyp: p1\n1. hyp p1\n{stray}\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err == f"malformed proof file: malformed step line: {stray!r}\n"

    def test_invalid_proof(self, capsys, tmp_path):
        path = tmp_path / "wrong.txt"
        path.write_text("calculus: I\n1. axiom Ax1 p1 -> p2\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1 and "bad-axiom-instance" in out

    def test_forward_reference_names_the_cited_steps(self, capsys, tmp_path):
        path = tmp_path / "forward.txt"
        path.write_text("calculus: I\nhyp: p1\n1. hyp p1\n2. mp 3 1 p1\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert out == "step 2: forward-reference: MP cites steps 3, 1\n"

    def test_hypothesis_nested_near_the_recursion_limit(self, capsys, tmp_path):
        # parse takes a chain this deep, and so must sorting the hypotheses
        # by R and printing them
        chain = " -> ".join(["p1"] * (sys.getrecursionlimit() - 5))
        text = f"calculus: I\nhyp: {chain}\n1. hyp {chain}\n"
        path = tmp_path / "deep.txt"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and out.startswith("ok: 1 steps in I")
        assert write_text(read_text(text)) == text

    def test_hypotheses_listed_in_R_order(self, capsys, tmp_path):
        # as the proof file lists them: p2 precedes p10 in R, not in str
        path = tmp_path / "open.txt"
        path.write_text("calculus: I\nhyp: p2\nhyp: p10\n1. hyp p10\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "hypotheses: p2, p10;" in out


@pytest.mark.parametrize("command", ["check", "translate", "stats"])
def test_non_utf8_proof_file_is_malformed(capsys, tmp_path, command):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xffcalculus: ID\n1. axiom Ax1 p1 -> p2 -> p1\n")
    code, _, err = run(capsys, command, str(path))
    assert code == 2 and err.startswith("malformed proof file:")


class TestJsonProofFile:
    """A proof written with --format json is read back by check, stats and
    translate."""

    def prove_json(self, capsys, tmp_path, text):
        path = tmp_path / "proof.json"
        code, out, _ = run(capsys, "prove", text, "-c", "ID",
                           "--format", "json", "-o", str(path))
        assert code == 0 and out == ""
        return path, len(from_json(path.read_text()))

    def test_check_and_stats(self, capsys, tmp_path):
        path, n = self.prove_json(capsys, tmp_path, "p1 v (p1 -> p2)")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and out.startswith(f"ok: {n} steps in ID")
        code, out, _ = run(capsys, "stats", str(path))
        assert code == 0 and f"steps: {n}\n" in out

    def test_translate(self, capsys, tmp_path):
        path, _ = self.prove_json(capsys, tmp_path, "p1 v (p1 -> p2)")
        code, out, _ = run(capsys, "translate", str(path))
        assert code == 0
        assert check(read_text(out)) == []

    @pytest.mark.parametrize("command", ["check", "translate", "stats"])
    def test_malformed_json(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text('  {"calculus": "ID", "steps": [\n')
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and err.startswith("malformed proof file:")


_DEEP = "(" * 1000 + "p1" + ")" * 1000 + " -> p1"


@pytest.mark.parametrize("command", ["tautology"])
def test_deep_nesting_exits_2(capsys, command):
    # a formula argument; a proof file nested as deeply is a row below
    code, _, err = run(capsys, command, _DEEP)
    assert code == 2 and err == "error: input nested too deeply\n"


_LONG = "9" * (sys.get_int_max_str_digits() + 1)   # more than int() converts


@pytest.mark.parametrize("command, text, prefix", [
    ("tautology", f"p{_LONG}", "parse error:"),
    ("check", f"calculus: I\n{_LONG}. hyp p1\n", "malformed proof file:"),
    ("check", f"calculus: I\nhyp: p1\n1. hyp p1\n2. mp {_LONG} 1 p1\n",
     "malformed proof file:"),
    ("check", f'{{"calculus": "I", "hypotheses": [], "steps": [{{"kind": "mp", '
              f'"major": {_LONG}, "minor": 1, "formula": "p1"}}]}}',
     "malformed proof file:"),
    ("check", f"calculus: I\nhyp: {_DEEP}\n1. hyp {_DEEP}\n",
     "malformed proof file: input nested too deeply"),
    ("check", "calculus: I\nhyp: p1\n\u0661. hyp p1\n", "malformed proof file:"),
    ("check", "calculus: I\nhyp: p1\n1. hyp p1\n2. mp \u0661 \u0661 p1\n",
     "malformed proof file:"),
    ("check", '{"calculus": "I", "hypotheses": [], "steps": [5]}',
     "malformed proof file:"),
    ("check", '{"calculus": "I", "hypotheses": [], "steps": [null]}',
     "malformed proof file:"),
    ("check", '{"calculus": "I", "hypotheses": [], "steps": [true]}',
     "malformed proof file:"),
], ids=["atom", "step-number", "mp-index", "json-integer", "deep-nesting",
        "non-ascii-step-number", "non-ascii-mp-index", "json-step-number",
        "json-step-null", "json-step-true"])
def test_oversized_integer_exits_2(capsys, tmp_path, command, text, prefix):
    arg = text
    if command == "check":
        path = tmp_path / "long.txt"
        path.write_text(text, encoding="utf-8")
        arg = str(path)
    code, _, err = run(capsys, command, arg)
    assert code == 2 and err.startswith(prefix)


class TestTautology:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "tautology", "p1 -> p2 -> p1")
        assert code == 0 and out.strip() == "tautology"

    def test_no(self, capsys):
        code, out, _ = run(capsys, "tautology", "p1 v p2")
        assert code == 1 and "p1=F p2=F" in out

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "tautology", "p1 &")
        assert code == 2


class TestTranslate:
    def test_round_trip(self, capsys, tmp_path):
        src = tmp_path / "id.txt"
        dst = tmp_path / "i.txt"
        run(capsys, "prove", "p1 v (p1 -> p2)", "-c", "ID", "-o", str(src))
        code, _, err = run(capsys, "translate", str(src), "-o", str(dst))
        assert code == 0 and "translated" in err
        d = read_text(dst.read_text())
        assert d.calculus is CalculusId.I
        assert d.conclusion == parse("(p1 -> p1 -> p2) -> p1 -> p2")
        assert check(d) == []

    def test_rejects_non_id(self, capsys, tmp_path):
        src = tmp_path / "p.txt"
        run(capsys, "prove", "p1 & p2 -> p1", "-c", "P", "-o", str(src))
        code, _, err = run(capsys, "translate", str(src))
        assert code == 1

    def test_rejects_open_proof(self, capsys, tmp_path):
        src = tmp_path / "open.txt"
        src.write_text("calculus: ID\nhyp: p1\n1. hyp p1\n")
        code, _, err = run(capsys, "translate", str(src))
        assert code == 1 and err.startswith("error:")


class TestNormalize:
    def test_gamma_with_trace(self, capsys):
        code, out, _ = run(capsys, "normalize", "p1 & p2 -> p3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "p1 -> p2 -> p3"
        assert "rule ii" in lines[1]

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "normalize", "p1 v p2", "--mode", "tau")
        assert code == 0 and out.strip() == "(p1 -> p2) -> p2"

    def test_tau_rejects_conjunction(self, capsys):
        code, _, err = run(capsys, "normalize", "p1 & p2", "--mode", "tau")
        assert code == 2


class TestDecompose:
    def test_id_mode(self, capsys):
        code, out, _ = run(capsys, "decompose", "p1 -> p2 & p3")
        assert code == 0
        assert out.splitlines() == ["p1 -> p2", "p1 -> p3"]

    def test_implicative_mode(self, capsys):
        code, out, _ = run(capsys, "decompose", "p1 v p2 & p3",
                           "--mode", "implicative")
        assert code == 0
        assert out.splitlines() == ["(p1 -> p2) -> p2", "(p1 -> p3) -> p3"]


class TestEnumerateAndStats:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-connectives", "2",
                           "--atoms", "2", "-c", "ID")
        assert code == 0
        assert "tautologies" in out and "proof steps" in out

    @pytest.mark.parametrize("flag", ["--max-connectives", "--atoms"])
    def test_enumerate_rejects_negative(self, capsys, flag):
        code, out, err = run(capsys, "enumerate", flag, "-1")
        assert code == 2
        assert out == "" and "negative" in err

    def test_stats(self, capsys, tmp_path):
        path = tmp_path / "proof.txt"
        run(capsys, "prove", "p1 -> p1", "-c", "I", "-o", str(path))
        code, out, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "calculus: I" in out and "conclusion: p1 -> p1" in out

    def test_stats_names_the_least_calculus(self, capsys, tmp_path):
        path = tmp_path / "proof.txt"
        run(capsys, "prove", "p1 v (p1 -> p2)", "-c", "P", "-o", str(path))
        code, out, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "calculus: P\n" in out and "fragment: ID\n" in out


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2
