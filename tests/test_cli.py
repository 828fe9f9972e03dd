import json
import math
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tropinf.cli import main

from conftest import CORPUS, LATE_RUNS, WIDE_MULTISETS

M1 = str(CORPUS / "m1.pcfx")
M2 = str(CORPUS / "m2.pcfx")
M3 = str(CORPUS / "m3.pcfx")
GOLDEN_ENUMERATE = Path(__file__).resolve().parent / "golden" / "enumerate.txt"


@pytest.fixture()
def runner():
    return CliRunner()


class TestCheck:
    def test_ok(self, runner):
        res = runner.invoke(main, ["check", M1])
        assert res.exit_code == 0
        assert "Bool" in res.output

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["check", "nope.pcfx"])
        assert res.exit_code == 1

    def test_ill_typed(self, runner, tmp_path):
        bad = tmp_path / "bad.pcfx"
        bad.write_text("params 1\n(0 +[X1] 1) 2\n")
        res = runner.invoke(main, ["check", str(bad)])
        assert res.exit_code == 1

    def test_not_utf8(self, runner, tmp_path):
        # A file the UTF-8 codec cannot read is a user error, not an internal one.
        bad = tmp_path / "bytes.pcfx"
        bad.write_bytes(b"params 1; 0 +[X1] 1 \xff\n")
        res = runner.invoke(main, ["check", str(bad)])
        assert res.exit_code == 1
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff in position 20" in res.output

    def test_second_params_declaration(self, runner, tmp_path):
        bad = tmp_path / "twice.pcfx"
        bad.write_text("params 1; params 3; 0 +[X1] 1\n")
        res = runner.invoke(main, ["check", str(bad)])
        assert res.exit_code == 1
        assert "unexpected 'params' at line 1, column 11" in res.output


    @pytest.mark.parametrize("command", [
        ["check"], ["enumerate"], ["analyze"], ["i1", "--probs", "1/2"],
        ["i2", "--monomial", "1,0"],
    ])
    def test_arrow_type_refused(self, runner, tmp_path, command):
        # Every command refuses a program of arrow type with one message.
        bad = tmp_path / "arrow.pcfx"
        bad.write_text("params 1; \\x. succ x\n")
        res = runner.invoke(main, [command[0], str(bad), *command[1:]])
        assert res.exit_code == 1
        assert "program has an arrow type; a ground type is required" in res.output


class TestEnumerate:
    def test_trajectory_table(self, runner):
        res = runner.invoke(main, ["enumerate", M1])
        assert res.exit_code == 0
        lines = [l for l in res.output.splitlines() if l.strip()]
        assert len(lines) == 6
        assert lines[0].startswith("00") and "X1^2" in lines[0]
        assert lines[-1].startswith("111") and "~X1^3" in lines[-1]

    def test_target_filter(self, runner):
        res = runner.invoke(main, ["enumerate", M1, "--target", "0"])
        words = [l.split()[0] for l in res.output.splitlines() if l.strip()]
        assert words == ["01", "101", "110"]

    def test_corpus_matches_golden(self, runner):
        # Every run of every corpus program, with its word, weight, outcome
        # and step count.  m2 branches at every unfolding, so its runs within
        # the default budget of 200 steps are too many to list.
        golden = GOLDEN_ENUMERATE.read_text()
        out = []
        for path in sorted(CORPUS.glob("*.pcfx")):
            budget = "60" if path.stem == "m2" else "200"
            res = runner.invoke(main, ["enumerate", str(path), "--budget", budget])
            assert res.exit_code == 0, res.output
            out.append(f"# {path.name} --budget {budget}\n" + res.output)
        assert "".join(out) == golden


class TestAnalyze:
    def test_text_output(self, runner):
        res = runner.invoke(main, ["analyze", M1])
        assert res.exit_code == 0
        assert "~X1^3 + X1^2" in res.output
        assert "word=111" in res.output and "word=00" in res.output
        assert "stable: true  exact: true  rounds: [1]" in res.output

    def test_json_output(self, runner):
        res = runner.invoke(main, ["analyze", M1, "--output", "json"])
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["schema"] == "tropinf-report/2"
        assert blob["stable"] is True and blob["exact"] is True
        assert blob["rounds"] == [1]
        assert blob["polynomial_text"] == "~X1^3 + X1^2"
        assert len(blob["selected"]) == 2

    def test_other_target(self, runner):
        res = runner.invoke(main, ["analyze", M1, "--target", "0"])
        assert res.exit_code == 0
        assert "X1*~X1" in res.output

    def test_recursive_sampler(self, runner):
        res = runner.invoke(main, ["analyze", M2])
        assert res.exit_code == 0
        assert "stable: true" in res.output

    def test_max_rounds_cutoff(self, runner, tmp_path):
        # This loop needs rounds n = 2, 3 and 4 before the dominance
        # certificate settles it.
        path = tmp_path / "loop.pcfx"
        path.write_text(LATE_RUNS[1][0] + "\n")
        res = runner.invoke(main, ["analyze", str(path), "--max-rounds", "1"])
        assert res.exit_code == 0
        assert "stable: false  exact: false  rounds: [2]" in res.output


class TestEnumeratedAnswers:
    """Programs whose answer the search once cut short, or whose minimization
    once kept a monomial that never wins, give the minimized enumerated answer
    through `tropinf analyze`."""

    @pytest.mark.parametrize(
        "source, target, text",
        WIDE_MULTISETS + LATE_RUNS + [
            (r"params 1; (\t. t (t (\y. succ y)) 0) (\f. \x. f (f x))", 4, "1"),
            (r"params 2; (\d. d (d (\z. z +[X2] succ z))) (\h. \x. h (h x)) 0", 2,
             "X2^2*~X2^2"),
            # X1^3*~X1^3 is a vertex of the Newton polytope that no weight
            # makes the strict minimum.
            (r"params 1; (((1 +[X1] 0) +[X1] 0) +[X1] ((0 +[X1] ((0 +[X1] 1) +[X1] 0))"
             r" +[X1] 0)) +[X1] (0 +[X1] (0 +[X1] (0 +[X1] 1)))", 1, "~X1^4 + X1^4"),
        ],
    )
    def test_analyze(self, runner, tmp_path, source, target, text):
        path = tmp_path / "program.pcfx"
        path.write_text(source + "\n")
        res = runner.invoke(main, ["analyze", str(path), "--target", str(target),
                                   "--output", "json"])
        assert res.exit_code == 0, res.output
        blob = json.loads(res.output)
        assert blob["stable"] is True
        assert blob["polynomial_text"] == text


class TestI1:
    def test_fair_coin(self, runner):
        res = runner.invoke(main, ["i1", M1, "--probs", "1/2"])
        assert res.exit_code == 0
        assert "winners: X1^2" in res.output
        assert "probability: 1/4" in res.output

    def test_certain_winner_json_value_is_positive_zero(self, runner):
        res = runner.invoke(main, ["i1", M1, "--probs", "0", "--output", "json"])
        assert res.exit_code == 0
        value = json.loads(res.output)["value"]
        assert value == 0 and math.copysign(1, value) == 1
        assert "-0.0" not in res.output

    def test_bad_probs(self, runner):
        assert runner.invoke(main, ["i1", M1, "--probs", "bad"]).exit_code == 1
        assert runner.invoke(main, ["i1", M1, "--probs", "3/2"]).exit_code == 1
        assert runner.invoke(main, ["i1", M1, "--probs", "1/2,1/2"]).exit_code == 1


class TestI2:
    def test_region(self, runner):
        res = runner.invoke(main, ["i2", M1, "--monomial", "0,3"])
        assert res.exit_code == 0
        assert "-2*X1 + 3*~X1 <= 0" in res.output

    def test_membership(self, runner):
        res = runner.invoke(main, ["i2", M1, "--monomial", "0,3", "--probs", "1/4"])
        assert "member: true" in res.output
        res = runner.invoke(main, ["i2", M1, "--monomial", "0,3", "--probs", "1/2"])
        assert "member: false" in res.output

    def test_bad_monomial(self, runner):
        assert runner.invoke(main, ["i2", M1, "--monomial", "9,9"]).exit_code == 1
        assert runner.invoke(main, ["i2", M1, "--monomial", "x"]).exit_code == 1

    def test_parameter_free_program(self, runner, tmp_path):
        # Its one monomial has no exponents, written as blank text.
        path = tmp_path / "one.pcfx"
        path.write_text("1\n")
        res = runner.invoke(main, ["i2", str(path), "--monomial", "", "--probs", ""])
        assert res.exit_code == 0, res.output
        assert "monomial: 1" in res.output and "member: true" in res.output
        res = runner.invoke(main, ["i2", str(path), "--monomial", " ", "--output", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["monomial"] == []


class TestDeepNesting:
    """Deeply nested programs end with exit 0 or 1, never an internal error."""

    @pytest.mark.parametrize(
        "source",
        ["3000\n", "(" * 2000 + "0" + ")" * 2000 + "\n"],
        ids=["numeral-3000", "parens-2000"],
    )
    def test_check_exits_cleanly(self, tmp_path, source):
        path = tmp_path / "deep.pcfx"
        path.write_text(source)
        proc = subprocess.run(
            [sys.executable, "-m", "tropinf.cli", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        if proc.returncode == 1:
            assert "nesting" in proc.stderr and "internal error" not in proc.stderr


class TestDigitStrings:
    """Digit strings the parser cannot take end with exit 1 and a message
    that names their place, in well under the time a numeral of their value
    would take to build."""

    @pytest.mark.parametrize(
        "source",
        ["params 1; \u00b2\n", "params 1; \u0663\n", "params 1; 0 +[X\u00b2] 1\n",
         "params 1; " + "9" * 5000 + "\n",
         "params " + "1" * 5000 + "; 0\n", "params 1; 0 +[X" + "1" * 5000 + "] 1\n"],
        ids=["superscript", "arabic", "superscript-index",
             "literal-5000-digits", "count-5000-digits", "index-5000-digits"],
    )
    def test_check_exits_1(self, tmp_path, source):
        path = tmp_path / "digits.pcfx"
        path.write_text(source, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "tropinf.cli", "check", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "line 1, column" in proc.stderr and "internal error" not in proc.stderr


class TestLargeLiterals:
    """A numeral is one node, so a literal of any value within 640 digits
    checks, analyzes and enumerates like a small one."""

    @staticmethod
    def _run(tmp_path, source, *args):
        path = tmp_path / "literal.pcfx"
        path.write_text(source)
        proc = subprocess.run(
            [sys.executable, "-m", "tropinf.cli", args[0], str(path), *args[1:]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("source", ["params 1; 150\n", "params 1; 2000000\n"],
                             ids=["three-digits", "seven-digits"])
    def test_check_ok(self, tmp_path, source):
        assert self._run(tmp_path, source, "check") == "ok: Nat with 1 parameter(s)\n"

    def test_pred_of_a_large_argument(self, tmp_path):
        source = "params 1; (\\x. pred x) 100000\n"
        assert "polynomial: 1\n" in self._run(tmp_path, source, "analyze", "--target", "99999")
        assert "-> 99999  [2 steps]" in self._run(tmp_path, source, "enumerate")


class TestBadBounds:
    """Search bounds below 1 are bad arguments: exit 1 with a message."""

    @pytest.mark.parametrize("option", ["--max-rounds", "--window"])
    def test_zero_exits_1(self, option):
        proc = subprocess.run(
            [sys.executable, "-m", "tropinf.cli", "analyze", M1, option, "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert option in proc.stderr and "internal error" not in proc.stderr


class TestBadArguments:
    """Out-of-range or ill-shaped arguments exit 1 with a message that names
    what was expected."""

    @staticmethod
    def _run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tropinf.cli", *args],
            capture_output=True,
            text=True,
            timeout=60,
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", M1, "--target", "-1"],
            ["i1", M1, "--probs", "1/2", "--target", "-1"],
            ["i2", M1, "--monomial", "0,3", "--target", "-1"],
            ["enumerate", M1, "--target", "-1"],
        ],
        ids=["analyze", "i1", "i2", "enumerate"],
    )
    def test_negative_target(self, args):
        proc = self._run(*args)
        assert proc.returncode == 1, proc.stderr
        assert "--target" in proc.stderr and "internal error" not in proc.stderr

    @pytest.mark.parametrize(
        "monomial",
        ["0,3,1", "-1,3", "3", "x", ""],
        ids=["three", "negative", "one", "text", "blank"],
    )
    def test_monomial_layout(self, monomial):
        proc = self._run("i2", M1, f"--monomial={monomial}")
        assert proc.returncode == 1, proc.stderr
        assert "X1,~X1" in proc.stderr and "not a monomial" not in proc.stderr

    def test_i2_parses_probs_before_the_analysis(self):
        # The monomial is well formed but not in m2's polynomial; the bad
        # probability list must be reported first.
        proc = self._run("i2", M2, "--monomial", ",".join("0" * 10), "--probs", "bad")
        assert proc.returncode == 1, proc.stderr
        assert "bad probability list" in proc.stderr
        assert "not a monomial" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["i1", M1, "--probs", "1/2,,"],
            ["i2", M1, "--monomial", "0,3", "--probs", ",1/4"],
        ],
        ids=["i1-trailing", "i2-leading"],
    )
    def test_empty_probability_item(self, args):
        # An empty item is malformed, not a shorter list.
        proc = self._run(*args)
        assert proc.returncode == 1, proc.stderr
        assert "bad probability list" in proc.stderr

    @pytest.mark.parametrize(
        "query", [["i1", M1], ["i2", M1, "--monomial", "0,3"]], ids=["i1", "i2"]
    )
    @pytest.mark.parametrize("probs", ["1e100000", "1e-100000000"], ids=["large", "small"])
    def test_probability_beyond_the_digit_limit(self, query, probs):
        # Converted unchecked, the large literal overflowed the digits Python
        # writes as text in the "outside [0, 1]" message, and the small one
        # made Fraction compute 10**100000000.
        proc = self._run(*query, "--probs", probs)
        assert proc.returncode == 1, proc.stderr
        assert "bad probability list" in proc.stderr and "640 digits" in proc.stderr

    def test_negative_budget(self):
        proc = self._run("enumerate", M1, "--budget", "-5")
        assert proc.returncode == 1, proc.stderr
        assert "--budget" in proc.stderr and "internal error" not in proc.stderr


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tropinf.cli", "check", M1],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_pipe_ends_like_a_filter(self):
        # m2 has millions of runs within the default budget; the reader closes
        # the pipe after the first line, as `head -n 1` would.
        proc = subprocess.Popen(
            [sys.executable, "-m", "tropinf.cli", "enumerate", M2],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGPIPE
        assert stderr == b""
