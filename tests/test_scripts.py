"""Smoke runs of the command-line scripts in ``scripts/``.

Each script is loaded from its file and its ``main(argv)`` is called on the
quickstart scenario, copied into the test's temporary directory; a call on
the scenario as shipped must return 0 and write its outputs there.  A
refused scenario exits as ``nmdyn`` does: one stderr line and its code.
"""

import errno
import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

from nmdyn import cli

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


@pytest.fixture(scope="module")
def verify_all_run(tmp_path_factory):
    """verify_all on quickstart, run once: (its config copy, exit code, out dir)."""
    tmp = tmp_path_factory.mktemp("verify_all")
    config = str(shutil.copy(SCRIPTS / "configs" / "quickstart.json", tmp))
    out = tmp / "verify"
    main = load_script("verify_all").main
    return config, main(["--config", config, "--threads", "2", "--out", str(out)]), out


def test_verify_all_accepts_ignored_threads_flag(verify_all_run):
    _, code, out = verify_all_run
    assert code == 0
    assert len(list(out.glob("verify_*.json"))) == 7


def test_verify_all_writes_what_nmdyn_verify_writes(verify_all_run, tmp_path):
    """verify_all is ``nmdyn verify all``: the bytes of one run per suite."""
    config, _, out = verify_all_run
    for name in cli.SUITES:
        assert cli.main(["verify", name, config, "--out", str(tmp_path)]) == 0
        written = (tmp_path / f"verify_{name}.json").read_bytes()
        assert written == (out / f"verify_{name}.json").read_bytes()


@pytest.mark.parametrize("entry", ["nmdyn simulate", "nmdyn ensemble", "nmdyn hypotheses",
                                   "nmdyn verify gauge", "nmdyn verify all",
                                   "convergence_study", "moment_curves", "run_reference",
                                   "verify_all"])
def test_missing_config_is_one_line_and_exit_2(entry, tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    out = str(tmp_path / "out")
    if entry.startswith("nmdyn "):
        code = cli.main(entry.split()[1:] + [missing, "--out", out])
    else:
        extra = [] if entry == "convergence_study" else ["--out", out]
        code = load_script(entry).main(["--config", missing, *extra])
    assert code == 2
    assert capsys.readouterr().err == f"config error: config file not found: {missing}\n"


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_run_reference_out_that_cannot_be_a_directory_is_a_config_error(
        under, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "reference" if under else blocker
    assert load_script("run_reference").main(["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: --out")
    assert blocker.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("entry,flag,run", [("moment_curves", "--out", "push_forward"),
                                            ("convergence_study", "--csv", "evolve")],
                         ids=["moment_curves", "convergence_study"])
@pytest.mark.parametrize("folder", ["nodir", "taken", "adir"],
                         ids=["missing", "a-file", "a-directory"])
def test_csv_whose_directory_cannot_take_it_is_a_config_error(entry, flag, run, folder,
                                                               quickstart, tmp_path, capsys):
    script = load_script(entry)

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{flag} is checked before the run")

    setattr(script, run, must_not_run)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    (tmp_path / "adir").mkdir()
    target = tmp_path / folder
    if folder == "adir":  # the CSV path itself is a directory
        assert script.main(["--config", quickstart, flag, str(target)]) == 2
        expected = f"{flag}: cannot write {str(target)!r}: {os.strerror(errno.EISDIR)}"
    else:
        assert script.main(["--config", quickstart, flag, str(target / "x.csv")]) == 2
        reason = (os.strerror(errno.ENOENT) if folder == "nodir"
                  else f"{str(target)!r} is not a directory")
        expected = f"{flag}: cannot use {str(target)!r} as the output directory: {reason}"
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "quickstart.json", "taken"]
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("argv, edit, message", [
    (["--levels", "0"], None, "--levels: need at least 1 level, got 0"),
    (["--levels", "-1"], None, "--levels: need at least 1 level, got -1"),
    (["--dt-max", "0"], None, "--dt-max: dt must be nonzero"),
    (["--dt-max", "0.03"], None, "--dt-max: dt=0.03 must divide T=0.2 into a whole number"),
    # every error of a zero horizon is 0, and so is each ratio's divisor
    ([], lambda c: c["run"].update(T=0.0), "run: the convergence study needs T > 0"),
    ([], lambda c: c["initial"].update(measure={"kind": "mixture", "components": [
        {"weight": 1.0, "measure": {"kind": "dirac", "center": c["initial"]["measure"]["center"]}}
    ]}), "initial: this command needs a point-valued initial condition"),
], ids=["no-levels", "negative-levels", "zero-dt", "dt-not-dividing-T", "zero-horizon",
        "no-point"])
def test_convergence_ladder_is_checked_before_the_run(argv, edit, message, quickstart, capsys):
    script = load_script("convergence_study")
    if edit:
        raw = json.loads(Path(quickstart).read_text())
        edit(raw)
        Path(quickstart).write_text(json.dumps(raw))

    def must_not_run(*args, **kwargs):
        raise AssertionError("the ladder is checked before the run")

    script.evolve = must_not_run
    assert script.main(["--config", quickstart, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["verify_all", "nmdyn verify all"])
def test_flagged_spec_refuses_the_suites_that_evolve(entry, quickstart, tmp_path, capsys):
    raw = json.loads(Path(quickstart).read_text())
    raw["particles"][0]["form_factor"] = {"family": "point"}
    Path(quickstart).write_text(json.dumps(raw))
    out = str(tmp_path / "verify")
    code = (load_script("verify_all").main(["--config", quickstart, "--out", out])
            if entry == "verify_all" else cli.main(["verify", "all", quickstart, "--out", out]))
    assert code == 2
    captured = capsys.readouterr()
    evolving = {"characteristic", "duhamel-order", "gronwall", "moments"}
    assert captured.err.splitlines() == len(evolving) * [captured.err.splitlines()[0]]
    assert captured.err.startswith("hypothesis flag: ")
    summary = dict(line.split() for line in captured.out.splitlines()[-len(cli.SUITES):])
    assert summary == {name: "REFUSED" if name in evolving else "PASS"
                       for name in cli.SUITES}
    assert sorted(p.name for p in Path(out).iterdir()) == sorted(
        f"verify_{name}.json" for name in cli.SUITES if name not in evolving)


def test_verify_all_missing_config_is_a_config_error(tmp_path, capsys):
    main = load_script("verify_all").main
    missing = str(tmp_path / "absent.json")
    assert main(["--config", missing, "--out", str(tmp_path / "v")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: config file not found: {missing}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_verify_all_out_that_cannot_be_a_directory_is_a_config_error(
        under, quickstart, tmp_path, capsys, monkeypatch):
    script = load_script("verify_all")

    def must_not_run(*args, **kwargs):
        raise AssertionError("--out is checked before any suite runs")

    monkeypatch.setattr(cli, "run_suite", must_not_run)
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "verify" if under else blocker
    assert script.main(["--config", quickstart, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: --out")
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["quickstart.json", "taken"]


def test_verify_all_runs_the_suites_after_a_refused_one(quickstart, tmp_path, capsys):
    """T/dt = 10 is refused by the characteristic suite (it also runs at 4*dt);
    the six other suites still run and write their files."""
    raw = json.loads(Path(quickstart).read_text())
    raw["run"]["T"] = 0.1
    Path(quickstart).write_text(json.dumps(raw))
    out = tmp_path / "verify"
    assert load_script("verify_all").main(["--config", quickstart, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: run: the characteristic suite")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"verify_{name}.json" for name in cli.SUITES if name != "characteristic")
    summary = captured.out.splitlines()[-len(cli.SUITES):]
    assert summary[0].split() == ["characteristic", "REFUSED"]
    assert all(line.split()[1] == "PASS" for line in summary[1:])
