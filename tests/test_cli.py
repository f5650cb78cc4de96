"""End-to-end command-line behavior: schemas, determinism, exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import signal
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import leaky_chain

from lfpsolve import rat
from lfpsolve.cli import main
from lfpsolve.mps import serialize_mps

CHAIN3 = json.dumps(
    {
        "vars": ["x0", "x1", "x2"],
        "eqs": [
            [{"c": "1/2", "m": {"x0": 2}}, {"c": "1/2", "m": {}}],
            [{"c": "1/2", "m": {"x1": 2}}, {"c": "1/2", "m": {"x0": 1}}],
            [{"c": "1/2", "m": {"x2": 2}}, {"c": "1/2", "m": {"x1": 1}}],
        ],
    }
)

# chain3 with the bottom constant 1/2 - 2**-200: P_0(1) < 1, so no
# coordinate is proved to be exactly 1 and every grid runs Newton steps.
LEAKY_CHAIN3 = serialize_mps(leaky_chain(3, rat(1, 2**200)))

GAMBLER = json.dumps(
    {
        "states": ["s"],
        "delta": [
            {"from": "s", "p": "1/3", "k": -1, "to": "s"},
            {"from": "s", "p": "2/3", "k": 1, "to": "s"},
        ],
        "delta0": [],
    }
)

LINEAR = json.dumps({"vars": ["x"], "eqs": [[{"c": "1/2", "m": {"x": 1}}, {"c": "1/4", "m": {}}]]})
QUADRATIC = json.dumps({"vars": ["x"], "eqs": [[{"c": "1/4", "m": {"x": 2}}, {"c": "1/2", "m": {}}]]})

BAD_P1CA = json.dumps(
    {
        "states": ["s"],
        "delta": [
            {"from": "s", "p": "2/3", "k": -1, "to": "s"},
            {"from": "s", "p": "1/2", "k": 1, "to": "s"},
        ],
        "delta0": [],
    }
)


class _Unfinished(Exception):
    pass


def run_cli(args, path_content=None, tmp_path=None):
    argv = list(args)
    if path_content is not None:
        model = tmp_path / "model.json"
        model.write_text(path_content)
        argv.append(str(model))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestSolveCommand:
    def test_chain_solve_success(self, tmp_path):
        code, out, _ = run_cli(
            ["solve", "--epsilon", "1/65536", "--assume-prob"], LEAKY_CHAIN3, tmp_path
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "certified-eps"
        assert doc["vars"] == ["x0", "x1", "x2"]
        assert len(doc["approximation"]) == 3
        assert doc["bounds"]["qmax_source"] == "probability-flag"
        assert doc["params"]["g"] == doc["params"]["h"] - 1

    def test_deterministic_bytes(self, tmp_path):
        args = ["solve", "--epsilon", "1/256", "--assume-prob", "--no-snf"]
        first = run_cli(args, CHAIN3, tmp_path)
        second = run_cli(args, CHAIN3, tmp_path)
        assert first == second
        assert first[0] == 0

    def test_trace_lines_on_stderr(self, tmp_path):
        code, out, err = run_cli(
            ["solve", "--epsilon", "1/16", "--assume-prob", "--no-snf", "--trace", "--h", "8"],
            LEAKY_CHAIN3,
            tmp_path,
        )
        assert code == 0
        lines = [json.loads(line) for line in err.strip().splitlines()]
        assert lines
        assert {"scc", "k", "x", "residual"} <= set(lines[0])
        assert json.loads(out)["params"]["h"] == 8

    def test_exit_parse_error(self, tmp_path):
        code, out, _ = run_cli(["solve", "--epsilon", "1/2"], "{broken", tmp_path)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize(
        "command,doc",
        [
            (["solve"], '{"vars":["x"],"eqs":[[{"c":"1/2","m":{"x":' + "1" * 5001 + "}}]]}"),
            (["p1ca-term"], '{"states":["s"],"delta":[{"from":"s","p":"1/2","k":' + "1" * 5001 + ',"to":"s"}]}'),
        ],
        ids=["solve", "p1ca-term"],
    )
    def test_exit_parse_error_on_an_integer_past_the_digit_limit(self, tmp_path, command, doc):
        code, out, _ = run_cli(command + ["--epsilon", "1/2"], doc, tmp_path)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_exit_not_monotone(self, tmp_path):
        doc = '{"vars":["x"],"eqs":[[{"c":"-1","m":{}}]]}'
        code, out, _ = run_cli(["solve", "--epsilon", "1/2"], doc, tmp_path)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotMonotone"

    def test_exit_diverged(self, tmp_path):
        doc = '{"vars":["x"],"eqs":[[{"c":"1","m":{"x":2}},{"c":"1","m":{}}]]}'
        code, out, _ = run_cli(["solve", "--epsilon", "1/2"], doc, tmp_path)
        assert code == 2
        assert json.loads(out)["status"] == "diverged"

    def test_exit_singular(self, tmp_path):
        doc = '{"vars":["x"],"eqs":[[{"c":"1","m":{"x":1}},{"c":"1","m":{}}]]}'
        code, out, _ = run_cli(["solve", "--epsilon", "1/2"], doc, tmp_path)
        assert code == 3
        assert json.loads(out)["status"] == "singular"

    def test_exit_params_infeasible(self, tmp_path):
        code, out, _ = run_cli(
            ["solve", "--epsilon", "1/65536", "--assume-prob", "--max-h", "16"],
            LEAKY_CHAIN3,
            tmp_path,
        )
        assert code == 4
        assert json.loads(out)["error"]["type"] == "ParamsInfeasible"

    @pytest.mark.parametrize("iters", ["0", "5"])
    def test_iters_without_h_is_refused(self, tmp_path, iters):
        # An iteration count means nothing on the doubling schedule.
        code, out, _ = run_cli(
            ["solve", "--epsilon", "1/16", "--assume-prob", "--iters", iters], LEAKY_CHAIN3, tmp_path
        )
        assert code == 1
        assert "h override" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("system", [LINEAR, QUADRATIC], ids=["linear", "quadratic"])
    @pytest.mark.parametrize(
        "grid",
        [["--h", "-3"], ["--h", "0"], ["--h", "5", "--iters", "0"], ["--h", "5", "--iters", "-2"]],
        ids=["h-3", "h0", "iters0", "iters-2"],
    )
    def test_grid_override_below_one_is_refused(self, tmp_path, system, grid):
        # Refused before any work, whether or not a component is nonlinear.
        code, out, _ = run_cli(["solve", "--epsilon", "1/1024", *grid], system, tmp_path)
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ValueError", "message": "need h >= 1 and g >= 1"}

    @pytest.mark.parametrize("max_h", ["-3", "0"])
    def test_max_h_below_one_is_refused(self, tmp_path, max_h):
        code, out, _ = run_cli(["solve", "--epsilon", "1/1024", "--max-h", max_h], LINEAR, tmp_path)
        assert code == 1
        assert json.loads(out)["error"] == {"type": "ValueError", "message": "need max_h >= 1"}

    def test_rejects_decimal_epsilon(self, tmp_path):
        code, out, _ = run_cli(["solve", "--epsilon", "0.5"], CHAIN3, tmp_path)
        assert code == 1


class TestOtherSubcommands:
    def test_decompose(self, tmp_path):
        code, out, _ = run_cli(["decompose"], CHAIN3, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 3
        assert doc["nonlinear_depth"] == 3
        assert [s["vars"] for s in doc["sccs"]] == [["x0"], ["x1"], ["x2"]]
        assert all(s["nonlinear"] for s in doc["sccs"])

    def test_bounds(self, tmp_path):
        code, out, _ = run_cli(["bounds"], CHAIN3, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["qmin_lower"] == "1/8"
        assert doc["qmax_upper_exponent"] > 0
        code, out, _ = run_cli(["bounds", "--assume-prob"], CHAIN3, tmp_path)
        assert json.loads(out)["qmax_upper_exponent"] == 0

    def test_value_iter(self, tmp_path):
        code, out, _ = run_cli(["value-iter", "--steps", "3"], CHAIN3, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["iterate"] == ["89/128", "11/32", "1/8"]

    def test_value_iter_stops_at_the_bit_budget(self, tmp_path):
        # x = x^2/4 + 1: exact iterates double in size every step, so 40
        # steps would not finish; the run stops at the budget, within a second.
        doc = '{"vars":["x"],"eqs":[[{"c":"1/4","m":{"x":2}},{"c":"1","m":{}}]]}'

        def give_up(signum, frame):
            raise _Unfinished  # not an error the CLI catches

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.setitimer(signal.ITIMER_REAL, 5)
        start = time.perf_counter()
        try:
            code, out, _ = run_cli(["value-iter", "--steps", "40"], doc, tmp_path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 1
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith("value iterate 14 has a numerator or denominator")

    def test_value_iter_stops_before_the_print_limit(self, tmp_path):
        # x = x^2/3 + 1/3: iterate 13 has 12983 bits and prints; iterate 14
        # has 25967, past the 4300 digits CPython prints, so the run stops
        # with its own message instead of the int-to-str error.
        doc = json.dumps({"vars": ["x"], "eqs": [[{"c": "1/3", "m": {"x": 2}}, {"c": "1/3", "m": {}}]]})
        code, out, _ = run_cli(["value-iter", "--steps", "13"], doc, tmp_path)
        assert code == 0
        assert json.loads(out)["steps"] == 13
        code, out, _ = run_cli(["value-iter", "--steps", "14"], doc, tmp_path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].endswith("stopped before step 15")

    def test_snf_and_clean(self, tmp_path):
        from lfpsolve import system_from_json, system_to_json

        code, out, _ = run_cli(["snf"], CHAIN3, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["system"]["vars"]) == 6
        assert doc["forms"].count("star") == 3
        # embedded system documents round-trip through the wire schema
        assert system_to_json(system_from_json(doc["system"])) == doc["system"]
        zero = '{"vars":["a","b"],"eqs":[[{"c":"1","m":{"b":1}}],[{"c":"1","m":{"a":1}}]]}'
        code, out, _ = run_cli(["clean"], zero, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["removed"] == ["a", "b"]
        assert doc["system"]["vars"] == []

    def test_p1ca_term(self, tmp_path):
        code, out, _ = run_cli(["p1ca-term", "--epsilon", "1/1048576"], GAMBLER, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["h"] == 72
        value = doc["entries"][0][0]
        num, den = value.split("/")
        assert abs(int(num) / int(den) - 0.5) < 1e-6

    def test_p1ca_validate_ok(self, tmp_path):
        code, out, _ = run_cli(["p1ca-validate"], GAMBLER, tmp_path)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_p1ca_validate_bad(self, tmp_path):
        code, out, _ = run_cli(["p1ca-validate"], BAD_P1CA, tmp_path)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert len(doc["violations"]) == 1

    @pytest.mark.parametrize(
        "command,state",
        [(["p1ca-validate"], {"from": ["s"]}), (["p1ca-term", "--epsilon", "1/1024"], {"to": {"a": 1}})],
    )
    def test_p1ca_non_string_state_is_a_parse_error(self, tmp_path, command, state):
        entry = {"from": "s", "p": "1/2", "k": 0, "to": "s", **state}
        doc = json.dumps({"states": ["s"], "delta": [entry], "delta0": []})
        code, out, _ = run_cli(command, doc, tmp_path)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_decompose_fully_zero_system(self, tmp_path):
        zero = '{"vars":["a","b"],"eqs":[[{"c":"1","m":{"b":1}}],[{"c":"1","m":{"a":1}}]]}'
        code, out, _ = run_cli(["decompose"], zero, tmp_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["sccs"] == []
        assert doc["depth"] == 0
        assert doc["removed_zero_variables"] == ["a", "b"]

    def test_stdin_input(self, tmp_path, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(CHAIN3))
        code, out, _ = run_cli(["value-iter", "--steps", "1", "-"])
        assert code == 0
        assert json.loads(out)["iterate"] == ["1/2", "0", "0"]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "schemas" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        code, out, _ = run_cli(["solve", "--epsilon", "1/2", str(tmp_path / "nope.json")])
        assert code == 1


class TestCanonicalOutput:
    """Every subcommand, and an error exit, writes indent-2 JSON exactly as
    ``json.dumps(..., indent=2)`` writes it."""

    ZERO = '{"vars":["a","b"],"eqs":[[{"c":"1","m":{"b":1}}],[{"c":"1","m":{"a":1}}]]}'
    CASES = {
        "solve": (["solve", "--epsilon", "1/256", "--assume-prob", "--no-snf"], CHAIN3, 0),
        "solve-witness": (["solve", "--epsilon", "1/65536", "--assume-prob"], LEAKY_CHAIN3, 0),
        "clean": (["clean"], ZERO, 0),
        "snf": (["snf"], CHAIN3, 0),
        "decompose": (["decompose"], CHAIN3, 0),
        "decompose-empty": (["decompose"], ZERO, 0),
        "bounds": (["bounds"], CHAIN3, 0),
        "value-iter": (["value-iter", "--steps", "3"], CHAIN3, 0),
        "p1ca-term": (["p1ca-term", "--epsilon", "1/1024"], GAMBLER, 0),
        "p1ca-validate": (["p1ca-validate"], BAD_P1CA, 1),
        "error": (["solve", "--epsilon", "1/2"], '{"vars":["x"],"eqs":[[{"c":"-1","m":{}}]]}', 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stdout_is_indent_2_json(self, case, tmp_path):
        args, model, expected_code = self.CASES[case]
        code, out, _ = run_cli(args, model, tmp_path)
        assert code == expected_code
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestTracePinned:
    """``--trace`` lines and the JSON report, byte for byte: the rounded
    Newton kernel builds the iterates that the trace prints."""

    CASES = {
        "chain3-h8": (
            ["solve", "--epsilon", "1/16", "--assume-prob", "--trace", "--h", "8"],
            LEAKY_CHAIN3,
            "5b9133909062c9d4ebfcedbdac1058928c4bd594dfe329897a93a99cd6215aed",
            "29728799b63c86ef67abf6ee0c87c0ab17c60d68cfe691f6d40baf946ec2b932",
        ),
        "gambler": (
            ["p1ca-term", "--epsilon", "1/1024", "--trace"],
            GAMBLER,
            "a61947ffcc6acbc05486ed7901a1013958220775db908c4617f62e6683bf315f",
            "b167c8352e10359a076c365de257dab3992979f577604a5ec1a1ace8cffcce59",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_bytes(self, case, tmp_path):
        args, model, stdout_digest, stderr_digest = self.CASES[case]
        code, out, err = run_cli(args, model, tmp_path)
        assert code == 0
        assert err.count("\n") > 1
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(err.encode()).hexdigest() == stderr_digest
