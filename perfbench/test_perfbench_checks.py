"""Each output check accepts the program's outputs and rejects a perturbed one."""

import json
import os
import shutil

import numpy as np
import pytest

from checks import CheckFailed, check_ensemble, check_simulate, check_verify
from workloads import SUITES, ensemble_scenario, simulate_scenario

from nmdyn.cli import main


def _small(scenario, N, T, samples=None):
    scenario = json.loads(json.dumps(scenario))
    scenario["grid"]["N"] = N
    scenario["run"]["T"] = T
    if samples:
        scenario["ensemble"]["M"] = samples
    return scenario


def _produce(tmp_path_factory, name, scenario, words):
    base = tmp_path_factory.mktemp(name)
    path = os.path.join(base, "scenario.json")
    with open(path, "w") as handle:
        json.dump(scenario, handle)
    out = os.path.join(base, "out")
    # coarse test grids trip the resolution check; the outputs are still exact
    assert main([words, path, "--out", out, "--threads", "1", "--allow-flagged"]) == 0
    return out


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    scenario = _small(simulate_scenario(3), N=8, T=0.1)
    return scenario, _produce(tmp_path_factory, "sim", scenario, "simulate")


@pytest.fixture(scope="module")
def ensembled(tmp_path_factory):
    scenario = _small(ensemble_scenario(3), N=6, T=0.1, samples=4)
    return scenario, _produce(tmp_path_factory, "ens", scenario, "ensemble")


def _copy(out, tmp_path):
    target = os.path.join(tmp_path, "copy")
    shutil.copytree(out, target)
    return target


def _edit_json(path, edit):
    with open(path) as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w") as handle:
        json.dump(data, handle)


def _edit_csv(path, edit):
    with open(path) as handle:
        lines = handle.readlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    rows = edit(rows)
    with open(path, "w") as handle:
        handle.writelines(comments + body[:1])
        for row in rows:
            handle.write(",".join(repr(float(x)) for x in row) + "\n")


def test_simulate_outputs_pass(simulated):
    check_simulate(*simulated)


def _bump_endpoint(data):
    data["endpoint"]["p"][0][0] += 1e-3


def _scale_h(rows, factor, row):
    rows[row, 1] *= factor
    return rows


def _set_nan(rows):
    rows[3, 4] = np.nan
    return rows


# (check expected to fail, file edited, edit)
SIMULATE_PERTURBATIONS = [
    ("oracle energy_initial", "summary.json", lambda d: d.update(
        energy_initial=d["energy_initial"] * (1 + 1e-8))),
    ("oracle energy_final", "summary.json", lambda d: d.update(
        energy_final=d["energy_final"] * (1 + 1e-8))),
    ("oracle energy_final", "summary.json", _bump_endpoint),
    ("summary energy drift", "summary.json", lambda d: d.update(relative_energy_drift=2e-4)),
    ("trajectory rows", "trajectory.csv", lambda rows: rows[:-1]),
    ("trajectory finite", "trajectory.csv", _set_nan),
    ("trajectory energy drift", "trajectory.csv", lambda rows: _scale_h(rows, 1 + 2e-4, 5)),
]


def _perturb(out, tmp_path, filename, edit):
    out = _copy(out, tmp_path)
    path = os.path.join(out, filename)
    (_edit_json if filename.endswith(".json") else _edit_csv)(path, edit)
    return out


@pytest.mark.parametrize("expected, filename, edit", SIMULATE_PERTURBATIONS)
def test_simulate_check_rejects_perturbed_output(simulated, tmp_path, expected,
                                                 filename, edit):
    scenario, out = simulated
    out = _perturb(out, tmp_path, filename, edit)
    with pytest.raises(CheckFailed) as err:
        check_simulate(scenario, out)
    assert err.value.name == expected


def test_ensemble_outputs_pass(ensembled):
    check_ensemble(*ensembled)


def _sample_h(rows, sample, step, factor):
    index = np.flatnonzero(rows[:, 0] == sample)[step]
    rows[index, 2] *= factor
    return rows


def _first_lhs(data, value):
    data["characteristic"][0]["lhs"] = value


ENSEMBLE_PERTURBATIONS = [
    ("oracle sample energy at t=0", "ensemble.csv", lambda r: _sample_h(r, 2, 0, 1 + 1e-8)),
    ("sample energy drift", "ensemble.csv", lambda r: _sample_h(r, 3, 4, 1 + 2e-4)),
    ("ensemble rows", "ensemble.csv", lambda rows: rows[1:]),
    ("ensemble finite", "ensemble.csv", _set_nan),
    ("moment envelope violations", "reports.json", lambda d: d["moments"].update(
        violations_exp=1)),
    ("|characteristic function| <= 1", "reports.json", lambda d: _first_lhs(d, [0.8, 0.61])),
]


@pytest.mark.parametrize("expected, filename, edit", ENSEMBLE_PERTURBATIONS)
def test_ensemble_check_rejects_perturbed_output(ensembled, tmp_path, expected,
                                                 filename, edit):
    scenario, out = ensembled
    out = _perturb(out, tmp_path, filename, edit)
    with pytest.raises(CheckFailed) as err:
        check_ensemble(scenario, out)
    assert err.value.name == expected


def _suite_reports(out, failing=None, passed_flag=True):
    os.makedirs(out, exist_ok=True)
    for suite in SUITES:
        ok = suite != failing
        with open(os.path.join(out, f"verify_{suite}.json"), "w") as handle:
            json.dump({"suite": suite, "passed": passed_flag or ok,
                       "checks": [{"name": "c", "passed": ok}]}, handle)


def test_verify_outputs_pass(tmp_path):
    _suite_reports(str(tmp_path))
    check_verify(0, str(tmp_path))


def test_verify_check_rejects_a_failed_suite(tmp_path):
    _suite_reports(str(tmp_path), failing="gronwall", passed_flag=False)
    with pytest.raises(CheckFailed) as err:
        check_verify(1, str(tmp_path))
    assert err.value.name == "suite gronwall passed"


def test_verify_check_rejects_a_failed_check_in_a_passed_suite(tmp_path):
    _suite_reports(str(tmp_path), failing="moments", passed_flag=True)
    with pytest.raises(CheckFailed) as err:
        check_verify(0, str(tmp_path))
    assert err.value.name == "suite moments passed"


def test_verify_check_rejects_a_missing_suite(tmp_path):
    _suite_reports(str(tmp_path))
    os.remove(os.path.join(tmp_path, "verify_gauge.json"))
    with pytest.raises(CheckFailed) as err:
        check_verify(0, str(tmp_path))
    assert err.value.name == "suite gauge reported"


def test_verify_check_rejects_a_nonzero_exit(tmp_path):
    _suite_reports(str(tmp_path))
    with pytest.raises(CheckFailed) as err:
        check_verify(1, str(tmp_path))
    assert err.value.name == "verify_all exit code"
