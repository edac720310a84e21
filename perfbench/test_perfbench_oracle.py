"""The energy oracle: closed forms, and agreement with the program."""

import json
import os

import numpy as np
import pytest

from oracle import ScenarioModel, draw_gaussian_sample, energy
from workloads import ensemble_scenario, simulate_scenario, verify_scenario

from nmdyn.cli import load_config
from nmdyn.geometry import build_kgrid, polarization_basis
from nmdyn.interaction import hamiltonian
from nmdyn.measures import sample_measure
from nmdyn.state import FieldState, ParticleState, PhaseSpacePoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def grid():
    g = build_kgrid(3, 2.0, 6)
    return g, polarization_basis(g).vectors


def test_zero_field_and_zero_potential_is_kinetic(grid):
    g, vectors = grid
    rng = np.random.default_rng(0)
    p, q = rng.standard_normal((2, 2, 3))
    masses = [1.0, 2.5]
    chi = np.ones((2, g.node_count))
    alpha = np.zeros((2, g.node_count), dtype=complex)
    h = energy(p, q, alpha, masses, chi, 0.0, g.nodes, g.weights, vectors)
    assert h == pytest.approx(np.sum(p[0] ** 2) / 2.0 + np.sum(p[1] ** 2) / 5.0, rel=1e-14)


def test_single_field_mode_is_weight_times_k_times_amplitude(grid):
    g, vectors = grid
    j = 17
    alpha = np.zeros((2, g.node_count), dtype=complex)
    alpha[1, j] = 0.3 - 0.4j
    h = energy(np.zeros((0, 3)), np.zeros((0, 3)), alpha, [], np.zeros((0, g.node_count)),
               0.0, g.nodes, g.weights, vectors)
    assert h == pytest.approx(g.weights[j] * np.linalg.norm(g.nodes[j]) * 0.25, rel=1e-14)


@pytest.mark.parametrize("scenario", [simulate_scenario(5), ensemble_scenario(5)])
def test_oracle_matches_hamiltonian_on_random_states(scenario):
    scenario = json.loads(json.dumps(scenario))
    scenario["grid"]["N"] = 8
    cfg = load_config(scenario)
    model = ScenarioModel(scenario)
    rng = np.random.default_rng(1)
    m = cfg.grid.node_count
    for scale in (0.1, 1.0, 3.0):
        p, q = scale * rng.standard_normal((2, 2, 3))
        alpha = scale * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
        u = PhaseSpacePoint(ParticleState(p, q), FieldState(cfg.grid, alpha))
        program = hamiltonian(u, cfg.spec, cfg.pot, cfg.grid, cfg.basis)
        assert model.energy(p, q, alpha) == pytest.approx(program, rel=1e-12)


def test_redrawn_samples_are_the_program_samples():
    scenario = ensemble_scenario(12345)
    cfg = load_config(scenario)
    model = ScenarioModel(scenario)
    measure = scenario["initial"]["measure"]
    center = model.coherent(measure["center"]["coherent"])
    ens = sample_measure(cfg.measure, 5, cfg.seed)
    for m, u in enumerate(ens.points):
        p, q, alpha = draw_gaussian_sample(center, measure, cfg.seed, m)
        assert np.array_equal(p, u.p) and np.array_equal(q, u.q)
        assert np.allclose(alpha, u.alpha, rtol=0, atol=1e-15)


def test_verify_scenario_is_the_quickstart_config():
    with open(os.path.join(ROOT, "scripts", "configs", "quickstart.json")) as handle:
        quickstart = json.load(handle)
    assert verify_scenario(quickstart["ensemble"]["seed"]) == quickstart
