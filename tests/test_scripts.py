import importlib.util
import os
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def oracle_sweep(monkeypatch):
    module = load_script("run_oracle_sweep")
    monkeypatch.setattr(sys, "argv", ["run_oracle_sweep.py", "--triangles", "3", "--starts", "2"])
    return module


def test_oracle_sweep_reports_sweeps_and_exits_0(oracle_sweep, capsys):
    assert oracle_sweep.main() == 0
    out = capsys.readouterr().out
    assert "descent sweeps: mean" in out
    assert "runs not converged: 0, runs clamped: 0" in out


def test_oracle_sweep_exits_3_on_a_run_that_did_not_converge(oracle_sweep, monkeypatch, capsys):
    descent = oracle_sweep.minimize_reflection_descent
    monkeypatch.setattr(
        oracle_sweep,
        "minimize_reflection_descent",
        lambda t, start: descent(t, start, max_iter=1),
    )
    assert oracle_sweep.main() == 3
    assert "runs not converged: 6," in capsys.readouterr().out
