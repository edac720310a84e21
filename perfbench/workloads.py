"""The benchmark's three workloads: scenario documents made from a seed, and
the command that runs each one the way a user starts it.

Every scenario is written out in full by the benchmark; nothing is read from
the repository's own config files, so an edit there does not move the
benchmark.  The numbers below are those of ``scripts/configs/reference.json``
and ``scripts/configs/quickstart.json``.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# the reference scenario's centre: two gaussian charges and a coherent field
REFERENCE_CENTER = {
    "p": [[0.3, -0.1, 0.2], [-0.2, 0.4, 0.1]],
    "q": [[0.5, 0.0, -0.3], [-0.4, 0.6, 0.2]],
    "amplitude": 0.3,
    "width": 1.0,
    "direction": [1.0, 0.5, -0.2],
}

_BASE = {
    "format_version": 1,
    "particles": [
        {"mass": 1.0, "form_factor": {"family": "gaussian", "width": 1.0}},
        {"mass": 1.5, "form_factor": {"family": "gaussian", "width": 1.0}},
    ],
    "potential": {"family": "smeared-coulomb", "g": 0.125},
}

# the gaussian sampling measure of both shipped configs
_MEASURE = {
    "kind": "gaussian",
    "particle_scale": 0.05,
    "field_modes": [[0, 0], [1, 7], [0, 23]],
    "field_variances": [0.02, 0.02, 0.02],
}

# a seed in the range the config schema and the Philox key accept
_SEED_RANGE = 2**63


def config_seed(seed: int) -> int:
    return int(seed) % _SEED_RANGE


def simulate_scenario(seed: int) -> dict:
    """The reference centre, moved by the seed, on K=2.5, N=24 (13,824 nodes).

    p, q and the field direction each get an N(0, 0.05^2) offset per
    component, the particle scale of the reference measure.
    """
    rng = np.random.default_rng(config_seed(seed))
    center = copy.deepcopy(REFERENCE_CENTER)
    for key in ("p", "q", "direction"):
        value = np.asarray(center[key], dtype=float)
        center[key] = (value + 0.05 * rng.standard_normal(value.shape)).tolist()
    return {
        **copy.deepcopy(_BASE),
        "grid": {"d": 3, "K": 2.5, "N": 24},
        "initial": {"coherent": center},
        "run": {"T": 0.5, "dt": 0.01, "scheme": "strang", "snapshot_every": 10},
        "ensemble": {"M": 64, "seed": config_seed(seed)},
    }


def _quickstart(seed: int, samples: int, T: float) -> dict:
    measure = {**copy.deepcopy(_MEASURE),
               "center": {"coherent": copy.deepcopy(REFERENCE_CENTER)}}
    return {
        **copy.deepcopy(_BASE),
        "grid": {"d": 3, "K": 2.0, "N": 10},
        "initial": {"measure": measure},
        "run": {"T": T, "dt": 0.01, "scheme": "strang", "snapshot_every": 5},
        "ensemble": {"M": samples, "seed": config_seed(seed)},
    }


def ensemble_scenario(seed: int) -> dict:
    """16 gaussian samples on the quickstart grid (K=2, N=10), T=0.5."""
    return _quickstart(seed, samples=16, T=0.5)


def verify_scenario(seed: int) -> dict:
    """``scripts/configs/quickstart.json`` with the seed as its ensemble seed."""
    return _quickstart(seed, samples=8, T=0.2)


# ``python3 -c`` with this entry is what the installed ``nmdyn`` script runs
CLI_ENTRY = "import sys; from nmdyn.cli import main; sys.exit(main())"
VERIFY_SCRIPT = "scripts/verify_all.py"
SUITES = ("characteristic", "duhamel-order", "gauge", "gronwall",
          "lemma-bounds", "mvfi-identity", "moments")


@dataclass(frozen=True)
class Workload:
    """One workload: its scenario, its command, and the operations one run of
    the command counts (a CLI command is one, a suite is one)."""

    name: str
    scenario: Callable[[int], dict]
    words: Callable[[str, str], list]  # arguments after the program
    script: Optional[str]              # None: the nmdyn CLI
    operations: int

    def command(self, scenario_path: str, out_dir: str) -> list:
        """The command line a user types, with ``nmdyn`` spelled as its entry."""
        program = ([sys.executable, self.script] if self.script
                   else [sys.executable, "-c", CLI_ENTRY])
        return program + self.words(scenario_path, out_dir)


def setup_command(scenario_path: str, out_dir: str) -> list:
    """``nmdyn hypotheses``: interpreter start, import, load_config and the
    two-resolution hypothesis check -- the set-up every run pays."""
    return [sys.executable, "-c", CLI_ENTRY, "hypotheses", scenario_path,
            "--out", out_dir]


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate-fine-grid", simulate_scenario,
                 lambda scen, out: ["simulate", scen, "--out", out], None, 1),
        Workload("ensemble-many-samples", ensemble_scenario,
                 lambda scen, out: ["ensemble", scen, "--out", out,
                                    "--threads", "1"], None, 1),
        Workload("verify-all-suites", verify_scenario,
                 lambda scen, out: ["--config", scen, "--threads", "2",
                                    "--out", out], VERIFY_SCRIPT, len(SUITES)),
    )
}
