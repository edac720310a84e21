"""The traced run: self times from spans, and exact counts on small runs."""

import json
import os
import subprocess
import sys

import pytest

from tracer import G, PUSH, layer_metrics
from workloads import ensemble_scenario, simulate_scenario

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def test_self_time_subtracts_children_on_the_same_thread():
    # (id, name, start, end, parent, thread, extra)
    spans = [
        (1, "integrator.strang_step", 0.0, 1.0, 0, 7, 0),
        (2, G, 0.1, 0.3, 1, 7, 10),
        (3, G, 0.4, 0.5, 1, 7, 10),
        (0, "integrator.evolve", 0.0, 2.0, -1, 7, 0),
        (4, G, 3.0, 3.5, -1, 8, 10),  # another thread, outside any step
    ]
    m = layer_metrics(spans, import_s=0.5)
    assert m["integrator.evolve.self_s"] == pytest.approx(1.0)
    assert m["integrator.strang_step.self_s"] == pytest.approx(0.7)
    assert m[G + ".calls"] == 3
    assert m[G + ".node_evals"] == 30
    assert m[G + ".us_per_call"] == pytest.approx(1e6 * 0.8 / 3)
    assert m["integrator.steps"] == 1
    assert m["integrator.G_calls_per_step"] == 2.0
    assert m[PUSH + ".calls"] == 0 and m["cli.import_s"] == 0.5


def _traced(tmp_path, workload, scenario):
    scenario_path = os.path.join(tmp_path, "scenario.json")
    with open(scenario_path, "w") as handle:
        json.dump(scenario, handle)
    spans_path = os.path.join(tmp_path, "spans.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(BENCH, "tracer.py"), workload,
                    scenario_path, os.path.join(tmp_path, "out"), spans_path],
                   cwd=ROOT, env=env, check=True, timeout=120, capture_output=True)
    with open(spans_path) as handle:
        traced = json.load(handle)
    assert traced["absent"] == []
    return layer_metrics(traced["spans"], traced["import_s"])


def _small(scenario, samples=None):
    scenario["grid"] = {"d": 3, "K": 2.0, "N": 10}
    scenario["run"]["T"] = 0.05
    if samples:
        scenario["ensemble"]["M"] = samples
    return scenario


def test_traced_simulate_counts(tmp_path):
    m = _traced(tmp_path, "simulate-fine-grid", _small(simulate_scenario(4)))
    assert m["integrator.steps"] == 5
    assert m["integrator.G_calls_per_step"] == 4.0
    assert m["interaction.hamiltonian.calls"] == 5 + 1
    assert m[G + ".node_evals"] == 20 * 1000
    assert m["interaction.check_hypotheses.calls"] == 1
    assert m["cli.import_s"] > 0


def test_traced_ensemble_counts(tmp_path):
    m = _traced(tmp_path, "ensemble-many-samples", _small(ensemble_scenario(4), samples=3))
    assert m["integrator.evolve.calls"] == 3
    assert m["integrator.steps"] == m[PUSH + ".sample_steps"] == 15
    assert m["integrator.G_calls_per_step"] == 4.0
    assert m["interaction.hamiltonian.calls"] == 3 * (5 + 1)
    assert m["interaction.check_hypotheses.calls"] == 2
    # two snapshots per sample, one (d-1, M) complex field each, plus the arrays
    assert m[PUSH + ".kept_bytes"] > 3 * 2 * 2 * 1000 * 16
