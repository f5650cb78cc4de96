"""No solve or command calls the rational reference operators.

Every computation of a solve or a command runs on Python integers, and a
``Rat`` is built only where a rational enters or leaves.  ``evaluate``,
``eval_jacobian``, ``solve_linear``, ``newton_step``, ``round_down_dyadic``
and ``Monomial.evaluate`` stay for the benchmark's traced spans and for
independent checks; here each is replaced, in every ``lfpsolve`` module
namespace that holds it, by a function that records the call and raises,
and then every command runs through ``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import random

import pytest
from conftest import gamblers_ruin, random_p1ca, random_substochastic
from test_cli import CHAIN3, run_cli

import lfpsolve
from lfpsolve import DegreeTooHigh, Monomial, RnmConfig, run_rnm, system_of
from lfpsolve.mps import eval_jacobian, serialize_mps
from lfpsolve.p1ca import p1ca_to_json
from lfpsolve.ratmath import ZERO

OPERATORS = ("evaluate", "eval_jacobian", "solve_linear", "newton_step", "round_down_dyadic")

# q* <= 1, and in both modes certified by a witness on the first grid
SUBSTOCH = serialize_mps(random_substochastic(random.Random(0), 4))
CUBIC = json.dumps({"vars": ["x"], "eqs": [[{"c": "1/2", "m": {"x": 3}}, {"c": "1/2", "m": {}}]]})
DIVERGENT = json.dumps({"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": 2}}, {"c": "1", "m": {}}]]})
SINGULAR = json.dumps({"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": 1}}, {"c": "1", "m": {}}]]})
GAMBLER = json.dumps(p1ca_to_json(gamblers_ruin("2/3")))
P1CA_7_2 = json.dumps(p1ca_to_json(random_p1ca(random.Random(7), 2)))

DOCS = {
    "substoch": SUBSTOCH,
    "chain3": CHAIN3,
    "cubic": CUBIC,
    "divergent": DIVERGENT,
    "singular": SINGULAR,
    "gambler": GAMBLER,
    "p1ca-7-2": P1CA_7_2,
}
SOLVE_VARIANTS = ([], ["--trace"], ["--h", "40"], ["--no-snf"])
CASES = [
    (["solve", "--epsilon", "1/65536", "--assume-prob", "--mode", mode, *extra], name, 0)
    for mode in ("certified", "adaptive")
    for extra in SOLVE_VARIANTS
    for name in ("substoch", "chain3")
] + [
    (["solve", "--epsilon", "1/16"], "divergent", 2),
    (["solve", "--epsilon", "1/16"], "singular", 3),
    (["p1ca-term", "--epsilon", "1/1048576"], "gambler", 0),
    (["p1ca-term", "--epsilon", "1/1048576"], "p1ca-7-2", 0),
    (["p1ca-term", "--epsilon", "1/1048576", "--mode", "adaptive", "--trace"], "p1ca-7-2", 0),
] + [
    (argv, name, 0)
    for argv in (["clean"], ["snf"], ["decompose"], ["bounds"], ["value-iter", "--steps", "5"])
    for name in ("substoch", "chain3", "cubic")
]

@pytest.fixture
def refused(monkeypatch):
    """Replace every reference operator by a refusing stand-in; returns the
    list of the calls that reached one."""
    calls = []

    def refusing(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        return refuse

    modules = [lfpsolve] + [
        importlib.import_module(f"lfpsolve.{info.name}") for info in pkgutil.iter_modules(lfpsolve.__path__)
    ]
    patched = set()
    for module in modules:
        for name in OPERATORS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refusing(f"{module.__name__}.{name}"))
                patched.add(name)
    monkeypatch.setattr(Monomial, "evaluate", refusing("Monomial.evaluate"))
    assert patched == set(OPERATORS)
    return calls


@pytest.mark.parametrize("argv,name,code", CASES, ids=[f"{name}: {' '.join(argv)}" for argv, name, _ in CASES])
def test_command_runs_without_the_reference_operators(refused, tmp_path, argv, name, code):
    status, out, _ = run_cli(argv, DOCS[name], tmp_path)
    assert refused == []
    assert status == code
    if argv[0] == "solve" and name == "substoch" and "--h" not in argv:
        assert json.loads(out)["certificate"]["kind"] == "witness"


def test_degree_guard_names_the_equation_as_eval_jacobian_does(refused):
    # Row b's first term of degree above 2 has degree 4, and a later one 3.
    sys = system_of(
        ["a", "b"],
        [("1/2", {"a": 2}), ("1/4", {})],
        [("1/4", {"b": 2}), ("1/8", {"a": 1, "b": 3}), ("1/8", {"b": 3}), ("1/4", {})],
    )
    with pytest.raises(DegreeTooHigh) as expected:
        eval_jacobian(sys, [ZERO] * sys.n)  # this module's name is the real function
    assert str(expected.value) == "equation b has a degree-4 monomial; convert to simple normal form first"
    with pytest.raises(DegreeTooHigh) as raised:
        run_rnm(sys, RnmConfig(8, 7))
    assert str(raised.value) == str(expected.value)
    assert refused == []
