"""Smoke runs of the command-line scripts in ``scripts/``.

Each script is loaded from its file and its ``main(argv)`` is called on the
quickstart scenario, copied into the test's temporary directory; every call
must return 0 and write its outputs there.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def quickstart(tmp_path):
    return str(shutil.copy(SCRIPTS / "configs" / "quickstart.json", tmp_path))


def test_convergence_study(quickstart, tmp_path):
    out = tmp_path / "convergence.csv"
    main = load_script("convergence_study").main
    assert main(["--config", quickstart, "--levels", "2", "--csv", str(out)]) == 0
    # a header plus one row per (scheme, level)
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def test_moment_curves(quickstart, tmp_path):
    out = tmp_path / "moments.csv"
    assert load_script("moment_curves").main(["--config", quickstart, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,mean_p4")
    assert len(lines) == 1 + 5  # snapshots at t = 0, 0.05, ..., 0.2


def test_run_reference(quickstart, tmp_path):
    out = tmp_path / "reference"
    assert load_script("run_reference").main(["--config", quickstart, "--out", str(out)]) == 0
    for name in ("trajectory.csv", "summary.json", "ensemble.csv", "reports.json"):
        assert (out / name).stat().st_size > 0


def test_verify_all_accepts_ignored_threads_flag(quickstart, tmp_path):
    out = tmp_path / "verify"
    main = load_script("verify_all").main
    assert main(["--config", quickstart, "--threads", "2", "--out", str(out)]) == 0
    assert len(list(out.glob("verify_*.json"))) == 7
