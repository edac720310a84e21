"""Output checks for each workload, made apart from the program.

Each check compares an output with the energy oracle, with the sampling
scheme redrawn here, or with a property of the method; none compares with a
stored copy of an earlier output.  A failed check raises ``CheckFailed``
carrying the check's name.
"""

from __future__ import annotations

import json
import os

import numpy as np

from oracle import ScenarioModel, draw_gaussian_sample
from workloads import SUITES

# Strang splitting conserves H up to O(dt^2); the workloads use dt = 0.01,
# so dt^2 with a unit constant.  Measured: about 1e-5 on both workloads.
DRIFT_BOUND = 1e-4
# oracle and program sum the same terms in a different order
ENERGY_RTOL = 1e-10
# a mean of unimodular numbers, up to rounding
CHAR_MODULUS_BOUND = 1.0 + 1e-12


class CheckFailed(AssertionError):
    def __init__(self, name: str, detail: str):
        super().__init__(f"check '{name}' failed: {detail}")
        self.name = name


def _require(name: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


def read_csv(path: str):
    """(column names, rows) of a program CSV: '#' lines, a header, numbers."""
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    header = lines[0].strip().split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header))


def _steps(scenario: dict) -> int:
    return int(round(scenario["run"]["T"] / scenario["run"]["dt"]))


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _max_drift(energies: np.ndarray) -> float:
    return float(np.max(np.abs(energies - energies[0]))) / max(abs(energies[0]), 1e-300)


def check_simulate(scenario: dict, out_dir: str) -> None:
    """trajectory.csv and summary.json of ``nmdyn simulate``."""
    model = ScenarioModel(scenario)
    steps = _steps(scenario)
    header, rows = read_csv(os.path.join(out_dir, "trajectory.csv"))
    _require("trajectory rows", rows.shape[0] == steps + 1,
             f"{rows.shape[0]} rows for {steps} steps")
    _require("trajectory finite", bool(np.all(np.isfinite(rows))),
             "non-finite value in trajectory.csv")
    drift = _max_drift(rows[:, header.index("H")])
    _require("trajectory energy drift", drift <= DRIFT_BOUND,
             f"relative drift {drift:.3e} > {DRIFT_BOUND:g}")

    with open(os.path.join(out_dir, "summary.json")) as handle:
        summary = json.load(handle)
    h0 = model.energy(*model.coherent(scenario["initial"]["coherent"]))
    err = _relative(summary["energy_initial"], h0)
    _require("oracle energy_initial", err <= ENERGY_RTOL,
             f"program {summary['energy_initial']!r}, oracle {h0!r}")
    h1 = model.energy(*model.unflatten(summary["endpoint"]))
    err = _relative(summary["energy_final"], h1)
    _require("oracle energy_final", err <= ENERGY_RTOL,
             f"program {summary['energy_final']!r}, oracle {h1!r}")
    _require("summary energy drift", summary["relative_energy_drift"] <= DRIFT_BOUND,
             f"relative drift {summary['relative_energy_drift']:.3e} > {DRIFT_BOUND:g}")


def check_ensemble(scenario: dict, out_dir: str) -> None:
    """ensemble.csv and reports.json of ``nmdyn ensemble``."""
    model = ScenarioModel(scenario)
    measure = scenario["initial"]["measure"]
    seed = scenario["ensemble"]["seed"]
    samples = scenario["ensemble"]["M"]
    steps = _steps(scenario)
    header, rows = read_csv(os.path.join(out_dir, "ensemble.csv"))
    _require("ensemble rows", rows.shape[0] == samples * (steps + 1),
             f"{rows.shape[0]} rows for {samples} samples x {steps + 1} times")
    _require("ensemble finite", bool(np.all(np.isfinite(rows))),
             "non-finite value in ensemble.csv")
    center = model.coherent(measure["center"]["coherent"])
    column = header.index("H")
    for m in range(samples):
        energies = rows[rows[:, 0] == m, column]
        _require("ensemble rows per sample", energies.size == steps + 1,
                 f"sample {m} has {energies.size} rows")
        h0 = model.energy(*draw_gaussian_sample(center, measure, seed, m))
        _require("oracle sample energy at t=0", _relative(energies[0], h0) <= ENERGY_RTOL,
                 f"sample {m}: program {float(energies[0])!r}, oracle {h0!r}")
        drift = _max_drift(energies)
        _require("sample energy drift", drift <= DRIFT_BOUND,
                 f"sample {m}: relative drift {drift:.3e} > {DRIFT_BOUND:g}")

    with open(os.path.join(out_dir, "reports.json")) as handle:
        reports = json.load(handle)
    moments = reports["moments"]
    violations = moments["violations_bounded"] + moments["violations_exp"]
    _require("moment envelope violations", violations == 0, f"{violations} violations")
    _require("characteristic checks present", len(reports["characteristic"]) > 0,
             "no characteristic checks")
    for j, chk in enumerate(reports["characteristic"]):
        modulus = float(np.hypot(*chk["lhs"]))
        _require("|characteristic function| <= 1", modulus <= CHAR_MODULUS_BOUND,
                 f"direction {j}: |phi| = {modulus!r}")


def check_verify(exit_code: int, out_dir: str) -> None:
    """verify_<suite>.json of ``scripts/verify_all.py``: every suite passed."""
    for suite in SUITES:
        path = os.path.join(out_dir, f"verify_{suite}.json")
        _require(f"suite {suite} reported", os.path.exists(path), f"{path} missing")
        with open(path) as handle:
            outcome = json.load(handle)
        failing = [c["name"] for c in outcome["checks"] if not c["passed"]]
        _require(f"suite {suite} passed", outcome["passed"] is True and not failing
                 and len(outcome["checks"]) > 0, f"failing checks: {failing}")
    _require("verify_all exit code", exit_code == 0, f"exit code {exit_code}")


CHECKS = {
    "simulate-fine-grid": lambda scenario, out_dir, code: check_simulate(scenario, out_dir),
    "ensemble-many-samples": lambda scenario, out_dir, code: check_ensemble(scenario, out_dir),
    "verify-all-suites": lambda scenario, out_dir, code: check_verify(code, out_dir),
}
