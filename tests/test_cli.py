"""Configuration layer and command-line behavior.

End-to-end command tests run on a deliberately small grid so the whole
module stays fast; the scenario semantics (schema validation, defaults,
overrides, exit codes, file layout, thread-count byte-identity) do not
depend on resolution.
"""

import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import jsonschema
import numpy as np
import pytest

from conftest import coupling

import nmdyn.cli
import nmdyn.config
import nmdyn.integrator
import nmdyn.interaction
import nmdyn.measures
import nmdyn.suites

from nmdyn.cli import main, write_payload
from nmdyn.config import (
    CONFIG_SCHEMA,
    ConfigError,
    FORMAT_VERSION,
    load_config,
    reference_scenario,
)
from nmdyn.geometry import integrate_k
from nmdyn.interaction import (
    characteristic_density_m,
    hamiltonian,
    nonlinearity_F,
    potential_gradient_bound,
    vartheta,
)
from nmdyn.state import (
    FieldState,
    ParticleState,
    PhaseSpacePoint,
    field_norm,
    phase_norm,
    point_from_json,
    point_to_json,
    real_inner,
)
from nmdyn.measures import (characteristic_residual, ensemble_to_csv, moment_report,
                            push_forward, sample_measure)
from nmdyn.suites import _random_direction, _random_state, run_suite


def small_scenario() -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "grid": {"d": 3, "K": 2.0, "N": 10},
        "particles": [
            {"mass": 1.0, "form_factor": {"family": "gaussian", "width": 1.0}},
            {"mass": 1.5, "form_factor": {"family": "gaussian", "width": 1.0}},
        ],
        "potential": {"family": "smeared-coulomb", "g": 0.5},
        "initial": {
            "measure": {
                "kind": "gaussian",
                "center": {
                    "coherent": {
                        "p": [[0.3, -0.1, 0.2], [-0.2, 0.4, 0.1]],
                        "q": [[0.5, 0.0, -0.3], [-0.4, 0.6, 0.2]],
                        "amplitude": 0.3,
                        "width": 1.0,
                        "direction": [1.0, 0.5, -0.2],
                    }
                },
                "particle_scale": 0.05,
                "field_modes": [[0, 0], [1, 7], [0, 23]],
                "field_variances": [0.02, 0.02, 0.02],
            }
        },
        "run": {"T": 0.2, "dt": 0.01, "scheme": "strang", "snapshot_every": 5},
        "ensemble": {"M": 6, "seed": 2026},
    }


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_scenario()))
    return str(path)


@pytest.fixture(scope="module")
def cfg():
    return load_config(small_scenario())


class TestConfig:
    def test_reference_scenario_resolves(self):
        cfg = load_config(reference_scenario())
        assert (cfg.grid.d, cfg.grid.K) == (3, 2.5)
        assert cfg.grid.node_count == 16**3
        assert cfg.measure.kind == "gaussian"
        assert cfg.point is not None
        # frozen energy of the reference initial point: any change to the
        # scenario definition shows up here first
        h0 = hamiltonian(cfg.point, cfg.spec, cfg.pot, cfg.grid, cfg.basis)
        assert h0 == pytest.approx(0.38915860021068427, abs=1e-12)

    def test_reference_config_file_is_the_dump_of_reference_scenario(self):
        # reference_scenario() is the one source; the shipped file is its dump
        path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs",
                            "reference.json")
        with open(path) as handle:
            text = handle.read()
        assert text == json.dumps(reference_scenario(), indent=2, sort_keys=True) + "\n"

    def test_schema_is_valid_against_its_meta_schema(self):
        # load_config walks CONFIG_SCHEMA as given and never checks it itself
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    def test_defaults_are_resolved_into_raw(self):
        raw = small_scenario()
        del raw["run"]["scheme"], raw["run"]["snapshot_every"], raw["ensemble"]
        cfg = load_config(raw)
        assert cfg.raw["run"]["scheme"] == "strang"
        assert cfg.raw["run"]["snapshot_every"] == 1
        assert cfg.raw["ensemble"] == {"M": 64, "seed": 0}

    def test_overrides(self, tmp_path):
        cfg = load_config(small_scenario(), seed_override=7,
                          out_override=str(tmp_path / "x"))
        assert cfg.seed == 7 and cfg.raw["ensemble"]["seed"] == 7
        assert cfg.output == str(tmp_path / "x")
        # the output directory is runtime placement, never scenario content
        assert "output" not in cfg.raw

    def test_point_initial_promotes_to_dirac(self):
        raw = small_scenario()
        center = raw["initial"]["measure"]["center"]
        raw["initial"] = center
        cfg = load_config(raw)
        assert cfg.measure.kind == "dirac"
        assert cfg.point is cfg.measure.center

    def test_explicit_point_round_trip(self):
        base = load_config(small_scenario())
        raw = small_scenario()
        raw["initial"] = {"point": point_to_json(base.point)}
        cfg = load_config(raw)
        assert phase_norm(cfg.point - base.point, 0.0) == 0.0

    def test_mixture_has_no_single_point(self):
        raw = small_scenario()
        center = raw["initial"]["measure"]["center"]
        raw["initial"] = {"measure": {"kind": "mixture", "components": [
            {"weight": 0.5, "measure": {"kind": "dirac", "center": center}},
            {"weight": 0.5, "measure": {"kind": "dirac", "center": center}},
        ]}}
        cfg = load_config(raw)
        assert cfg.point is None and cfg.measure.kind == "mixture"
        with pytest.raises(ConfigError, match="point-valued"):
            cfg.require_point()

    @pytest.mark.parametrize("mangle,fragment", [
        (lambda c: c["grid"].update(N=-4), "grid.N"),
        (lambda c: c["grid"].update(N=7), "even"),
        (lambda c: c.pop("potential"), "potential"),
        (lambda c: c["run"].update(scheme="euler"), "run.scheme"),
        (lambda c: c.update(extra=1), "extra"),
        (lambda c: c["particles"][0].update(mass=-1.0), "particles.0.mass"),
        (lambda c: c.update(format_version=99), "format_version"),
    ])
    def test_rejects_with_field_path(self, mangle, fragment):
        raw = small_scenario()
        mangle(raw)
        with pytest.raises(ConfigError, match=fragment):
            load_config(raw)

    @pytest.mark.parametrize("mangle,message", [
        (lambda c: c["particles"][0].update(form_factor={"family": "ball", "radius": -1}),
         "particles.0.form_factor.radius: -1 is less than or equal to the minimum of 0"),
        (lambda c: c["particles"][0].update(form_factor={"family": "gaussian", "width": 0}),
         "particles.0.form_factor.width: 0 is less than or equal to the minimum of 0"),
        (lambda c: c["particles"][0].update(form_factor={"family": "cube"}),
         "particles.0.form_factor.family: 'cube' is not one of "
         "['gaussian', 'ball', 'point', 'table']"),
        (lambda c: c["particles"][0].update(form_factor={"radius": -1}),
         "particles.0.form_factor.radius: -1 is less than or equal to the minimum of 0"),
        (lambda c: c.update(potential={"family": "smeared-coulomb", "g": 0}),
         "potential.g: 0 is less than or equal to the minimum of 0"),
        (lambda c: c.update(potential={"family": "product-of-cos", "amplitude": 1.0}),
         "potential: 'wavevector' is a required property"),
        (lambda c: c["initial"].update(measure={"kind": "mixture", "components": [
            {"weight": 0, "measure": c["initial"]["measure"]}]}),
         "initial.measure.components.0.weight: 0 is less than or equal to the minimum of 0"),
        (lambda c: c["initial"]["measure"].update(particle_scale=-1),
         "initial.measure.particle_scale: -1 is less than the minimum of 0"),
        (lambda c: c.update(initial={"point": {"p": [], "q": [], "alpha_re": [],
                                               "alpha_im": []},
                                     **c["initial"]["measure"]["center"]}),
         "initial: valid under 2 of the given schemas, expected exactly one"),
    ], ids=["ball-radius", "gaussian-width", "unknown-family", "no-family", "coulomb-g",
            "cos-wavevector", "mixture-weight", "particle-scale", "point-and-coherent"])
    def test_one_of_errors_name_the_field(self, mangle, message):
        raw = small_scenario()
        mangle(raw)
        with pytest.raises(ConfigError) as err:
            load_config(raw)
        assert str(err.value) == message

    @pytest.mark.parametrize("mangle,path", [
        (lambda c, point: c.update(initial={"point": point}), "initial.point"),
        (lambda c, point: c["initial"]["measure"].update(center={"point": point}),
         "initial.measure.center.point"),
        (lambda c, point: c["initial"].update(measure={"kind": "mixture", "components": [
            {"weight": 0.5, "measure": c["initial"]["measure"]},
            {"weight": 0.5, "measure": {"kind": "dirac", "center": {"point": point}}}]}),
         "initial.measure.components.1.measure.center.point"),
        (lambda c, point: c["initial"]["measure"].update(field_modes=[[0, 0], [1, 7], [0, 500]]),
         "initial.measure.field_modes.2"),
    ], ids=["point", "center-point", "mixture-point", "mode-on-minus-h"])
    def test_version_1_field_components_on_minus_h_are_refused(self, tmp_path, capsys,
                                                               mangle, path):
        # the frame on -H changed in version 2, so these would name other fields
        raw = small_scenario()
        mangle(raw, point_to_json(load_config(small_scenario()).point))
        load_config(raw)  # as a version-2 document it loads
        raw["format_version"] = 1
        doc = tmp_path / "old.json"
        doc.write_text(json.dumps(raw))
        assert main(["simulate", str(doc), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: format_version 1 gives field components on nodes "
            f"j >= 500 in the old frame; use version 2\n")

    def test_version_1_coherent_start_loads_as_the_same_state(self, tmp_path):
        # a coherent profile and field modes on H mean the same in both frames
        old, new = small_scenario(), small_scenario()
        old["format_version"] = 1
        assert new["format_version"] == FORMAT_VERSION == 2
        old_cfg, new_cfg = load_config(old), load_config(new)
        assert old_cfg.point.data.tobytes() == new_cfg.point.data.tobytes()
        assert old_cfg.measure.field_modes == new_cfg.measure.field_modes
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["format_version"] == 2 and summary["config"]["format_version"] == 1

    def test_integral_floats_build_the_integer_grid(self, tmp_path):
        # draft 2020-12 counts 3.0 as an integer, so the schema admits it
        raw = small_scenario()
        raw["grid"].update(d=3.0, N=10.0)
        grid, base = load_config(raw).grid, load_config(small_scenario()).grid
        assert (grid.d, grid.N) == (base.d, base.N) == (3, 10)
        assert type(grid.d) is int and type(grid.N) is int
        assert np.array_equal(grid.nodes, base.nodes)
        assert np.array_equal(grid.weights, base.weights)
        path = tmp_path / "floats.json"
        path.write_text(json.dumps(raw))
        assert main(["hypotheses", str(path), "--out", str(tmp_path / "h")]) == 0

    def test_rejects_shape_mismatches(self):
        raw = small_scenario()
        raw["initial"]["measure"]["center"]["coherent"]["p"] = [[0.1, 0.2, 0.3]]
        with pytest.raises(ConfigError, match="share shape"):
            load_config(raw)
        raw = small_scenario()
        coh = raw["initial"]["measure"]["center"]["coherent"]
        coh["p"] = [[0.1, 0.2, 0.3]]
        coh["q"] = [[0.0, 0.0, 0.0]]  # consistent, but one particle short
        with pytest.raises(ConfigError, match="expected"):
            load_config(raw)
        raw = small_scenario()
        raw["initial"]["measure"]["center"]["coherent"]["direction"] = [1.0]
        with pytest.raises(ConfigError, match="direction"):
            load_config(raw)

    def test_nested_mixture_rejected_by_schema(self):
        raw = small_scenario()
        center = raw["initial"]["measure"]["center"]
        inner = {"kind": "mixture", "components": [
            {"weight": 1.0, "measure": {"kind": "dirac", "center": center}}]}
        raw["initial"] = {"measure": {"kind": "mixture", "components": [
            {"weight": 1.0, "measure": inner}]}}
        with pytest.raises(ConfigError):
            load_config(raw)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/scenario.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(small_scenario()).replace('"N": 10', '"N": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            run_suite("telepathy", load_config(small_scenario()))

    def test_table_form_factor_loads_relative_to_config(self, tmp_path):
        (tmp_path / "chi.csv").write_text("0.0,1.0\n1.0,0.5\n2.0,0.0\n")
        raw = small_scenario()
        raw["particles"][0]["form_factor"] = {"family": "table",
                                              "path": "chi.csv"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert cfg.spec.form_factors[0].profile(cfg.grid.absk).max() > 0


class TestCommands:
    def test_simulate_writes_trajectory_and_summary(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", config_file, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == f"# format-version: {FORMAT_VERSION}"
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("t,H,norm_X0,norm_X12,norm_X1,p_0_0")
        assert len(lines) == 3 + 21  # diagnostics at every step

        summary = json.loads((out / "summary.json").read_text())
        assert summary["format_version"] == FORMAT_VERSION
        assert summary["config"]["grid"] == {"d": 3, "K": 2.0, "N": 10}
        assert summary["steps"] == 20
        assert summary["relative_energy_drift"] < 1e-4
        cfg = load_config(config_file)
        endpoint = point_from_json(summary["endpoint"], cfg.grid)
        assert endpoint.is_finite()

    def test_simulate_keeps_only_the_states_it_writes(self, config_file, tmp_path,
                                                      monkeypatch):
        """summary.json takes the endpoint alone: of the 20 steps, the run keeps
        rows 0 and 20, not every snapshot_every = 5 state."""
        runs = []
        real_evolve = nmdyn.cli.evolve

        def recording_evolve(*args, **kwargs):
            runs.append(real_evolve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(nmdyn.cli, "evolve", recording_evolve)
        assert main(["simulate", config_file, "--out", str(tmp_path / "run")]) == 0
        (traj,) = runs
        assert traj.stored.shape[0] == 2
        assert traj.stored_indices.tolist() == [0, 20]

    def test_simulate_at_a_zero_horizon_writes_the_start(self, tmp_path):
        """T = 0 is a run of no steps: its one row is the initial state."""
        raw = small_scenario()
        raw["run"]["T"] = 0
        raw["initial"] = raw["initial"]["measure"]["center"]
        path = tmp_path / "still.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[3:]
        assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["relative_energy_drift"] == 0.0

    def test_summary_endpoint_restarts_a_run(self, config_file, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["simulate", config_file, "--out", str(out1)]) == 0
        summary = json.loads((out1 / "summary.json").read_text())

        # continue from the checkpoint for another T, and compare with one
        # double-length run: endpoints must agree bitwise
        raw = small_scenario()
        raw["initial"] = {"point": summary["endpoint"]}
        restart = tmp_path / "restart.json"
        restart.write_text(json.dumps(raw))
        assert main(["simulate", str(restart), "--out", str(out2)]) == 0

        raw2 = small_scenario()
        raw2["run"]["T"] = 0.4
        double = tmp_path / "double.json"
        double.write_text(json.dumps(raw2))
        assert main(["simulate", str(double), "--out", str(out3)]) == 0
        end_restart = json.loads((out2 / "summary.json").read_text())["endpoint"]
        end_double = json.loads((out3 / "summary.json").read_text())["endpoint"]
        assert end_restart == end_double

    def test_ensemble_outputs_thread_invariant(self, config_file, tmp_path):
        one, eight = tmp_path / "w1", tmp_path / "w8"
        assert main(["ensemble", config_file, "--out", str(one),
                     "--threads", "1"]) == 0
        assert main(["ensemble", config_file, "--out", str(eight),
                     "--threads", "8"]) == 0
        assert (one / "ensemble.csv").read_bytes() == \
               (eight / "ensemble.csv").read_bytes()
        assert (one / "reports.json").read_bytes() == \
               (eight / "reports.json").read_bytes()
        reports = json.loads((one / "reports.json").read_text())
        assert reports["moments"]["violations_bounded"] == 0
        assert len(reports["characteristic"]) == 3
        for chk in reports["characteristic"]:
            assert chk["t"] == 0.2 and chk["t0"] == 0.0

    def test_ensemble_outputs_block_invariant(self, config_file, tmp_path, monkeypatch):
        # six samples of 32 KB states: blocks of 1, of 4 (4 + 2) and of 6 rows
        default = nmdyn.measures._BLOCK_BYTES
        assert 1 < default // (8 * 4012) < 6
        outputs = []
        for name, budget in (("one", 0), ("default", default), ("all", 10**9)):
            monkeypatch.setattr(nmdyn.measures, "_BLOCK_BYTES", budget)
            assert main(["ensemble", config_file, "--out", str(tmp_path / name)]) == 0
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("ensemble.csv", "reports.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_ensemble_names_a_failing_sample_in_a_later_block(self, tmp_path, capsys,
                                                             monkeypatch):
        # six samples of 32 KB states, the last a near-point charge whose field
        # blows up: in blocks of 1, of 4 (4 + 2) and of all 6 it is sample 5
        raw = small_scenario()
        calm = raw["initial"]["measure"]
        wild = {"kind": "dirac", "center": {"coherent": {
            **calm["center"]["coherent"], "amplitude": 1e8, "width": 1e-4}}}
        raw["initial"] = {"measure": {"kind": "mixture", "components": [
            {"weight": 5 / 6, "measure": calm}, {"weight": 1 / 6, "measure": wild}]}}
        path = tmp_path / "wild.json"
        path.write_text(json.dumps(raw))
        default = nmdyn.measures._BLOCK_BYTES
        assert 1 < default // (8 * 4012) < 6
        errors = []
        for name, budget in (("one", 0), ("default", default), ("all", 10**9)):
            monkeypatch.setattr(nmdyn.measures, "_BLOCK_BYTES", budget)
            with np.errstate(all="ignore"):
                assert main(["ensemble", str(path), "--out", str(tmp_path / name)]) == 3
            errors.append(capsys.readouterr().err)
            assert not (tmp_path / name).exists()
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].startswith("numerical abort: sample 5 failed: non-finite state")
        assert errors[0].count("\n") == 1

    def test_ensemble_memory_is_flat_in_the_sample_count(self, tmp_path):
        # quickstart grid, 11 snapshots of 32 KB per sample: 12 more samples
        # held whole add 12 x 11 x 32 KB = 4.2 MB; streamed one block at a
        # time, they add 12 initial samples and a few scalars per step each
        quickstart = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                                  "configs", "quickstart.json")
        with open(quickstart) as handle:
            raw = json.load(handle)
        raw["run"]["T"] = 0.5

        def peak(m):
            raw["ensemble"]["M"] = m
            path = tmp_path / f"m{m}.json"
            path.write_text(json.dumps(raw))
            tracemalloc.start()
            try:
                assert main(["ensemble", str(path), "--out", str(tmp_path / f"m{m}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # compiles the model and fills the caches
        assert peak(16) - peak(4) < 1.5e6

    def test_streamed_ensemble_equals_the_whole_push(self, config_file, tmp_path):
        # six samples in blocks of 4 + 2, against the public functions on one push
        out = tmp_path / "cli"
        assert main(["ensemble", config_file, "--out", str(out)]) == 0
        cfg = load_config(config_file)
        ens = push_forward(sample_measure(cfg.measure, cfg.m_samples, cfg.seed), cfg.T,
                           cfg.dt, cfg.spec, cfg.pot, scheme=cfg.scheme,
                           store_every=cfg.snapshot_every)
        rng = np.random.default_rng(cfg.seed)
        ys = [_random_direction(rng, cfg.grid, cfg.spec.masses.size) for _ in range(3)]
        write_payload(str(tmp_path / "reports.json"), cfg, {
            "moments": moment_report(ens, cfg.spec, cfg.pot),
            "characteristic": characteristic_residual(ens, ys, cfg.T, 0.0, 0.0,
                                                      cfg.spec, cfg.pot),
        })
        assert (tmp_path / "reports.json").read_bytes() == (out / "reports.json").read_bytes()
        table = io.StringIO()
        ensemble_to_csv(ens, table)
        assert (out / "ensemble.csv").read_text().split("\n", 2)[2] == table.getvalue()

    def test_threads_env_fallback(self, config_file, tmp_path, monkeypatch):
        base, via_env = tmp_path / "base", tmp_path / "env"
        assert main(["ensemble", config_file, "--out", str(base),
                     "--threads", "1"]) == 0
        monkeypatch.setenv("NMDYN_THREADS", "3")
        assert main(["ensemble", config_file, "--out", str(via_env)]) == 0
        assert (base / "ensemble.csv").read_bytes() == \
               (via_env / "ensemble.csv").read_bytes()

    @pytest.mark.parametrize("command", [["simulate"], ["ensemble"],
                                         ["verify", "gronwall"]])
    def test_dt_not_dividing_T_is_a_config_error(self, command, tmp_path, capsys):
        raw = small_scenario()
        raw["run"].update(T=0.25, dt=0.1)
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(raw))
        assert main(command + [str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: run")

    @pytest.mark.parametrize("run", [{"T": float("inf")},
                                     {"T": 1e300, "dt": 1e-300},
                                     {"dt": float("inf")}],
                             ids=["T-infinite", "T-over-dt-infinite", "dt-infinite"])
    def test_non_finite_run_times_are_a_config_error(self, run, tmp_path, capsys):
        raw = small_scenario()
        raw["run"].update(run)
        path = tmp_path / "endless.json"
        path.write_text(json.dumps(raw))  # writes Infinity, which json.load reads
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: run") and "finite" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_mixture_odd_characteristic_steps_are_a_config_error(self, tmp_path, capsys):
        raw = small_scenario()
        center = raw["initial"]["measure"]["center"]
        raw["initial"] = {"measure": {"kind": "mixture", "components": [
            {"weight": 1.0, "measure": {"kind": "dirac", "center": center}}]}}
        raw["run"].update(T=0.05, dt=0.01)
        raw["ensemble"]["M"] = 2
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "characteristic", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: run")

    @pytest.mark.parametrize("suite", ["duhamel-order", "characteristic"])
    def test_zero_horizon_is_refused_by_the_comparing_suites(self, suite, tmp_path, capsys):
        raw = small_scenario()
        raw["run"]["T"] = 0
        path = tmp_path / "still.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "v"
        assert main(["verify", suite, str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: run: " + {
            "duhamel-order": "the duhamel-order suite needs T > 0",
            "characteristic": "the characteristic suite also runs at 4*dt, so T must be "
                              "positive and T/dt divisible by 4"}[suite] + "\n"
        assert not out.exists()

    def test_verify_all_runs_the_other_suites_at_a_zero_horizon(self, tmp_path, capsys):
        raw = small_scenario()
        raw["run"]["T"] = 0
        path = tmp_path / "still.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "v"
        assert main(["verify", "all", str(path), "--out", str(out), "--draws", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 2
        refused = {"characteristic", "duhamel-order"}
        summary = dict(line.split() for line in
                       captured.out.splitlines()[-len(nmdyn.cli.SUITES):])
        assert summary == {name: "REFUSED" if name in refused else "PASS"
                           for name in nmdyn.cli.SUITES}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"verify_{name}.json" for name in nmdyn.cli.SUITES if name not in refused)

    def test_verify_all_stops_at_a_numerical_abort(self, tmp_path, capsys):
        raw = small_scenario()
        raw["grid"] = {"d": 3, "K": 1.0, "N": 2}
        raw["run"] = {"T": 4.0, "dt": 1.0}
        raw["initial"] = {"coherent": {
            "p": [[0, 0, 0], [0, 0, 0]], "q": [[0, 0, 0], [0, 0, 0]],
            "amplitude": 1e8, "width": 1e-4, "direction": [1.0, 1.0, 1.0]}}
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            code = main(["verify", "all", str(path), "--out", str(tmp_path / "v"),
                         "--allow-flagged"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical abort")  # the first suite, characteristic
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command", ["simulate", "hypotheses"])
    @pytest.mark.parametrize("wavevector", [[1.0, 2.0], []], ids=["two", "none"])
    def test_wavevector_of_the_wrong_length_is_a_config_error(self, command, wavevector,
                                                              tmp_path, capsys):
        raw = small_scenario()
        raw["potential"] = {"family": "product-of-cos", "amplitude": 0.1,
                            "wavevector": wavevector}
        path = tmp_path / "cos.json"
        path.write_text(json.dumps(raw))
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: potential.wavevector: expected 3 components, "
            f"got {len(wavevector)}\n")

    @pytest.mark.parametrize("command", [["simulate"], ["verify", "gauge"]],
                             ids=["simulate", "verify-gauge"])
    @pytest.mark.parametrize("target", ["taken", "taken/run", ""],
                             ids=["a-file", "under-a-file", "empty"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, command, target,
                                                              config_file, tmp_path, capsys,
                                                              monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("--out is checked before the run")

        monkeypatch.setattr(nmdyn.cli, "evolve", must_not_run)
        monkeypatch.setattr(nmdyn.cli, "run_suite", must_not_run)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = str(tmp_path / target) if target else ""
        assert main(command + [config_file, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: --out")
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "taken"]

    @pytest.mark.parametrize("command", [["simulate"], ["ensemble"], ["hypotheses"]],
                             ids=["simulate", "ensemble", "hypotheses"])
    def test_negative_seed_is_a_config_error(self, command, config_file, tmp_path, capsys):
        assert main(command + [config_file, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: ensemble.seed: -1 is less than the minimum of 0\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    @pytest.mark.parametrize("command", [["simulate"], ["verify", "gauge"]],
                             ids=["simulate", "verify-gauge"])
    def test_config_that_is_a_directory_is_a_config_error(self, command, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        out = tmp_path / "o"
        assert main(command + [str(tmp_path / "adir"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ") and "adir" in err
        assert not out.exists()

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(small_scenario()).encode("utf-16-le"))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ") and "wide.json" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, where", [
        (("initial", "measure", "center", "coherent", "p", 0, 1), None, "coherent.p.0.1"),
        (("initial", "measure", "center", "coherent", "q", 0, 1), {}, "coherent.q.0.1"),
        (("initial", "measure", "center", "coherent", "p", 0, 1), True, "coherent.p.0.1"),
        (("initial", "measure", "center", "coherent", "amplitude"), float("inf"),
         "coherent.amplitude"),
        (("initial", "measure", "center", "coherent", "amplitude"), 1e400,
         "coherent.amplitude"),
        (("initial", "measure", "center", "coherent", "direction", 0), float("nan"),
         "coherent.direction.0"),
        (("initial", "measure", "particle_scale"), float("inf"), "measure.particle_scale"),
        (("initial", "measure", "field_variances", 1), float("inf"),
         "measure.field_variances.1"),
        (("potential", "g"), float("inf"), "potential.g"),
        (("grid", "K"), float("inf"), "grid.K"),
        (("particles", 0, "mass"), float("inf"), "particles.0.mass"),
        (("run", "T"), 10**400, "run.T"),
    ], ids=["p-null", "q-object", "p-true", "amplitude-inf", "amplitude-1e400",
            "direction-nan", "particle-scale-inf", "variance-inf", "g-inf", "K-inf",
            "mass-inf", "T-400-digits"])
    def test_scenario_numbers_must_be_finite_numbers(self, field, value, where,
                                                     tmp_path, capsys):
        raw = small_scenario()
        node = raw
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))  # writes NaN and Infinity, which json.load reads
        out = tmp_path / "o"
        assert main(["ensemble", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ") and where in err
        assert not out.exists()

    def test_explicit_point_numbers_must_be_finite(self):
        raw = small_scenario()
        cfg = load_config(raw)
        point = point_to_json(cfg.point)
        point["alpha_im"][5] = float("nan")
        raw["initial"] = {"point": point}
        with pytest.raises(ConfigError, match=r"^initial\.point\.alpha_im\.5: nan is not"):
            load_config(raw)

    @pytest.mark.parametrize("text, found", [("0.0\n1.0\n", "found 1"),
                                             ("", "found 0"),
                                             ("0,1,2\n1,0.5,3\n", "found 3")],
                             ids=["one-column", "empty", "three-columns"])
    def test_table_csv_needs_two_columns(self, text, found, tmp_path, capsys):
        (tmp_path / "chi.csv").write_text(text)
        raw = small_scenario()
        raw["particles"][0]["form_factor"] = {"family": "table", "path": "chi.csv"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["hypotheses", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: ") and "two CSV columns" in err and found in err
        assert not out.exists()

    def test_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(nmdyn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, nmdyn.cli; print('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_import_adds_only_numpy(self):
        # site .pth files may import packages at start-up, so the baseline is
        # taken from a bare interpreter in a process of its own
        src = os.path.dirname(os.path.dirname(os.path.abspath(nmdyn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys{}; print(' '.join({{m.split('.')[0] for m in sys.modules}}))"

        def top_level(imports):
            done = subprocess.run([sys.executable, "-c", probe.format(imports)], env=env,
                                  capture_output=True, text=True, check=True)
            return set(done.stdout.split())

        added = top_level(", nmdyn.cli") - top_level("")
        assert added - set(sys.stdlib_module_names) - {"nmdyn"} == {"numpy"}

    def test_library_layers_leave_cli_unimported(self):
        # ``python -m nmdyn.cli`` warns if the package import already loaded cli
        src = os.path.dirname(os.path.dirname(os.path.abspath(nmdyn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, nmdyn, nmdyn.config, nmdyn.suites; print('nmdyn.cli' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_module_entry_runs_without_warning(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(nmdyn.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "nmdyn.cli",
                        "--help"], env=env, capture_output=True, check=True)

    def test_seed_override_changes_samples(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ensemble", config_file, "--out", str(a)]) == 0
        assert main(["ensemble", config_file, "--out", str(b),
                     "--seed", "9"]) == 0
        assert (a / "ensemble.csv").read_bytes() != \
               (b / "ensemble.csv").read_bytes()
        assert json.loads((b / "reports.json").read_text())[
            "config"]["ensemble"]["seed"] == 9

    def test_verify_writes_outcome_file(self, config_file, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "gauge", config_file, "--out", str(out)]) == 0
        blob = json.loads((out / "verify_gauge.json").read_text())
        assert blob["suite"] == "gauge" and blob["passed"] is True
        assert {c["name"] for c in blob["checks"]} == \
               {"max |khat . eps|", "max |eps.eps - delta|"}
        assert blob["config"]["format_version"] == FORMAT_VERSION

    def test_verify_defaults_to_reference_scenario(self, tmp_path):
        out = tmp_path / "vref"
        assert main(["verify", "gauge", "--out", str(out)]) == 0
        blob = json.loads((out / "verify_gauge.json").read_text())
        assert blob["config"]["grid"] == {"d": 3, "K": 2.5, "N": 16}

    def test_verify_mvfi_draws_flag(self, config_file, tmp_path, capsys):
        assert main(["verify", "mvfi-identity", config_file, "--draws", "10",
                     "--out", str(tmp_path / "v")]) == 0
        assert "10 draws" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["lemma-bounds", "mvfi-identity"])
    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_verify_refuses_fewer_than_one_draw(self, suite, draws, config_file,
                                                tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", suite, config_file, "--draws", draws,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: draws must be at least 1, got {draws}\n"
        assert "PASS" not in captured.out
        assert not (out / f"verify_{suite}.json").exists()

    def test_hypotheses_report(self, config_file, tmp_path):
        out = tmp_path / "h"
        assert main(["hypotheses", config_file, "--out", str(out)]) == 0
        blob = json.loads((out / "hypotheses.json").read_text())
        assert blob["hypotheses"]["flagged"] is False

    def test_schema_failure_exits_2(self, tmp_path, capsys):
        raw = small_scenario()
        raw["grid"]["N"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_flagged_spec_refused_with_exit_2(self, tmp_path, capsys):
        raw = small_scenario()
        for part in raw["particles"]:
            part["form_factor"] = {"family": "point"}
        raw["initial"] = raw["initial"]["measure"]["center"]
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        assert "hypothesis flag" in capsys.readouterr().err
        # same config is accepted with the override
        assert main(["simulate", str(path), "--out", str(tmp_path),
                     "--allow-flagged"]) == 0

    @pytest.mark.parametrize("command", [["simulate"], ["ensemble"], ["verify", "gronwall"]],
                             ids=["simulate", "ensemble", "verify"])
    def test_flag_refusal_names_the_command_line_flag(self, command, tmp_path, capsys):
        raw = small_scenario()
        raw["particles"][0]["form_factor"] = {"family": "point"}
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps(raw))
        assert main([*command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("hypothesis flag: ") and "--allow-flagged" in err

    def test_mixture_initial_cannot_simulate(self, tmp_path, capsys):
        raw = small_scenario()
        center = raw["initial"]["measure"]["center"]
        raw["initial"] = {"measure": {"kind": "mixture", "components": [
            {"weight": 1.0, "measure": {"kind": "dirac", "center": center}}]}}
        path = tmp_path / "mix.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        assert "point-valued" in capsys.readouterr().err

    def test_numerical_abort_exits_3(self, tmp_path, capsys):
        raw = small_scenario()
        raw["grid"] = {"d": 3, "K": 1.0, "N": 2}
        # the overflow's step depends on rounding: 4 steps leave a margin
        raw["run"] = {"T": 4.0, "dt": 1.0}
        raw["initial"] = {"coherent": {
            "p": [[0, 0, 0], [0, 0, 0]], "q": [[0, 0, 0], [0, 0, 0]],
            "amplitude": 1e8, "width": 1e-4, "direction": [1.0, 1.0, 1.0]}}
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            code = main(["simulate", str(path), "--out", str(tmp_path),
                         "--allow-flagged"])
        assert code == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_unknown_suite_is_a_usage_error(self, config_file):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "telepathy", config_file])
        assert exc.value.code == 2


def _nodes(doc, path=()):
    """Every path in a JSON document, parents before children."""
    yield path
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutants(doc, root=()):
    """Copies of ``doc`` with one node at or under ``root`` changed: a key
    deleted or added, or a value replaced by a wrong type, a negative, zero,
    a fraction, a bool or an empty container."""
    def at(copy, path):
        for key in path:
            copy = copy[key]
        return copy

    text = json.dumps(doc)
    for path in _nodes(at(doc, root), root):
        if isinstance(at(doc, path), dict):
            copy = json.loads(text)
            at(copy, path)["unexpected"] = 1
            yield copy
        if not path:
            continue
        parent, key = path[:-1], path[-1]
        if isinstance(at(doc, parent), dict):
            copy = json.loads(text)
            del at(copy, parent)[key]
            yield copy
        for value in ("x", None, [], {}, True, False, -1, 0, 0.5, -0.5, 3.0, 1):
            copy = json.loads(text)
            at(copy, parent)[key] = value
            yield copy


def _error_paths(errors):
    for error in errors:
        yield tuple(error.absolute_path)
        yield from _error_paths(error.context)


def _one_of_branches():
    """small_scenario with each oneOf branch in turn, and that branch's root."""
    point = {"p": [[0.0] * 3] * 2, "q": [[0.0] * 3] * 2, "alpha_re": [0.0],
             "alpha_im": [0.0]}
    center = small_scenario()["initial"]["measure"]["center"]
    for form_factor in ({"family": "gaussian", "width": 1.0}, {"family": "ball", "radius": 0.5},
                        {"family": "point"}, {"family": "table", "path": "chi.csv"}):
        raw = small_scenario()
        raw["particles"][0]["form_factor"] = form_factor
        yield raw, ("particles", 0, "form_factor")
    for potential in ({"family": "zero"}, {"family": "smeared-coulomb", "g": 0.5},
                      {"family": "product-of-cos", "amplitude": 0.1,
                       "wavevector": [1.0, 0.0, 0.0]}):
        raw = small_scenario()
        raw["potential"] = potential
        yield raw, ("potential",)
    for initial in ({"point": point}, center,
                    {"measure": {"kind": "dirac", "center": {"point": point}}},
                    {"measure": {"kind": "mixture", "components": [
                        {"weight": 0.5, "measure": {"kind": "dirac", "center": center}},
                        {"weight": 0.5, "measure": {"kind": "gaussian", "center": center,
                                                    "particle_scale": 0.1}}]}}):
        raw = small_scenario()
        raw["initial"] = initial
        yield raw, ("initial",)


def _shipped_configs():
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "configs")
    for name in ("quickstart", "reference"):
        with open(os.path.join(configs, f"{name}.json")) as handle:
            yield json.load(handle), ()


class TestSchemaWalker:
    """load_config's own schema walker against jsonschema, the reference."""

    @pytest.mark.parametrize("doc,root", [*_shipped_configs(), *_one_of_branches()],
                             ids=["quickstart", "reference", "gaussian", "ball", "point",
                                  "table", "zero", "coulomb", "cosine", "initial-point",
                                  "initial-coherent", "dirac-of-point", "mixture"])
    def test_agrees_with_jsonschema(self, doc, root):
        validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
        for mutant in _mutants(doc, root):
            ours = nmdyn.config._schema_error(CONFIG_SCHEMA, mutant, ())
            errors = list(validator.iter_errors(mutant))
            assert (ours is None) == (not errors), (mutant, ours)
            if ours is not None:
                assert ours[0] in set(_error_paths(errors)), (mutant, ours)

    def test_schema_uses_only_interpreted_keywords(self):
        interpreted = {"$schema", "type", "const", "enum", "minimum", "exclusiveMinimum",
                       "items", "minItems", "maxItems", "required", "properties",
                       "additionalProperties", "oneOf"}
        seen, types = set(), set()

        def visit(schema):
            seen.update(schema)
            if "type" in schema:
                types.add(schema["type"])
            assert schema.get("additionalProperties", False) is False
            for sub in schema.get("properties", {}).values():
                visit(sub)
            for sub in schema.get("oneOf", []):
                visit(sub)
            if "items" in schema:
                visit(schema["items"])

        visit(CONFIG_SCHEMA)
        assert seen <= interpreted, seen - interpreted
        assert types <= set(nmdyn.config._JSON_TYPES), types - set(nmdyn.config._JSON_TYPES)


class TestJsonText:
    """write_payload's encoder against json.dump(indent=2, sort_keys=True)."""

    PAYLOADS = [
        {"b": 1, "a": [3, -7, 0, 2**70], "c": -0.0},
        {"tiny": [5e-324, 1e-320, -2.2250738585072014e-308, 1e-5],
         "huge": [1.7976931348623157e308, -1e300, 1e16, 123456789.0]},
        {"nested": [[1.5, [2.5, []]], [], [[]], {}], "empty": {}, "none": [],
         "mixed": [1, 2.0, -0.0, 0.1]},
        {"flags": [True, False, None], "text": ["x\u00e9\"q", ""], "one": 1.0,
         "non-finite": [float("nan"), 1.0, float("inf"), -float("inf")],
         "tuple": (1, 2.5), "numpy": [np.float64(0.1), np.float64(-3.0)]},
        [], {}, 0.1, [[[]]],
    ]

    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_same_text_as_json(self, payload):
        text = "".join(nmdyn.cli._json_chunks(payload))
        assert text == json.dumps(payload, indent=2, sort_keys=True)

    def test_long_lists_cross_chunk_boundaries(self):
        rng = np.random.default_rng(3)
        floats = (rng.standard_normal(2500) * 10.0 ** rng.integers(-300, 300, 2500)).tolist()
        payload = {"floats": floats, "ints": list(range(-1500, 1500)),
                   "with_nan": floats[:1500] + [float("nan")] + floats[1500:]}
        text = "".join(nmdyn.cli._json_chunks(payload))
        assert text == json.dumps(payload, indent=2, sort_keys=True)

    def test_write_payload_bytes(self, cfg, tmp_path):
        body = {"endpoint": {"alpha_re": [0.1, -0.0, 2e-300], "p": [[1.0, 2.0]]},
                "steps": 3, "norms": {"X0": 1.25}}
        path = tmp_path / "payload.json"
        write_payload(str(path), cfg, body)
        expected = json.dumps({"format_version": FORMAT_VERSION, "config": cfg.raw,
                               **body}, indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected

    def test_results_are_written_as_their_plain_form(self):
        @dataclasses.dataclass(frozen=True)
        class Inner:
            flags: np.ndarray
            label: str

        @dataclasses.dataclass(frozen=True)
        class Result:
            values: np.ndarray
            z: complex
            inner: Inner
            parts: tuple

        result = Result(values=np.array([[0.5, -0.0], [2e-300, 3.0]]), z=1.5 - 0.25j,
                        inner=Inner(np.array([True, False]), "x"),
                        parts=(Inner(np.array([], dtype=bool), ""), np.array([1j, 2.0])))
        plain = {"values": [[0.5, -0.0], [2e-300, 3.0]], "z": [1.5, -0.25],
                 "inner": {"flags": [True, False], "label": "x"},
                 "parts": [{"flags": [], "label": ""}, [[0.0, 1.0], [2.0, 0.0]]]}
        text = "".join(nmdyn.cli._json_chunks(result))
        assert text == json.dumps(plain, indent=2, sort_keys=True)

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError):
            "".join(nmdyn.cli._json_chunks({"x": np.int64(3)}))


def _tightened_hypotheses(monkeypatch, factor):
    """Make the suites read the hypothesis norms scaled by ``factor``."""
    original = nmdyn.suites._hypothesis_norms

    def tight(*args, **kwargs):
        return factor * original(*args, **kwargs)

    monkeypatch.setattr(nmdyn.suites, "_hypothesis_norms", tight)
    return tight


def _lemma_counts_per_draw(cfg, draws, norms):
    """The four lemma-bounds violation counts, one draw and one single-point
    kernel call at a time, on the suite's random stream."""
    grid, spec, pot = cfg.grid, cfg.spec, cfg.pot
    n = spec.n
    chi_l2 = [np.sqrt(float(integrate_k(grid, ff.profile(grid.absk) ** 2)))
              for ff in spec.form_factors]
    grad_bound = potential_gradient_bound(spec, pot, grid)
    c_dim = np.sqrt(2.0 * (grid.d - 1))
    field_factor = np.sqrt((grid.d - 1) / 2.0)
    slack, floor = 1 + 1e-12, 1e-15
    rng = np.random.default_rng(cfg.seed)
    v_field = v_grad = v_lip = v_vf = 0
    for _ in range(draws):
        u = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        v = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        i = int(rng.integers(0, n))
        l2 = field_norm(u.field, 0.0)
        h12 = field_norm(u.field, 0.5, "homogeneous")
        a_all, da_all = coupling(u.q, u.alpha, spec, grid, cfg.basis)
        a = a_all[i]
        v_field += np.linalg.norm(a) > min(
            c_dim * norms[i, 1] * l2, c_dim * norms[i, 0] * h12) * slack + floor
        for da in da_all[i]:
            v_grad += np.linalg.norm(da) > min(
                2 * np.pi * c_dim * norms[i, 2] * l2,
                2 * np.pi * c_dim * chi_l2[i] * h12) * slack + floor
        a_diff = np.linalg.norm(a - coupling(v.q, v.alpha, spec, grid, cfg.basis)[0][i])
        lip = (c_dim * norms[i, 1] * field_norm(FieldState(grid, u.alpha - v.alpha), 0.0)
               + 2 * np.pi * c_dim * norms[i, 2] * np.linalg.norm(u.q[i] - v.q[i])
               * field_norm(v.field, 0.0))
        v_lip += a_diff > lip * slack + floor
        f = nonlinearity_F(u, spec, pot, grid, cfg.basis)
        rhs_h1 = rhs_l2 = 0.0
        for j in range(n):
            pma = np.linalg.norm(u.p[j] - a_all[j])
            pabs = np.linalg.norm(u.p[j])
            c_a = c_dim * norms[j, 1]
            c_g = 2 * np.pi * c_dim * norms[j, 2]
            m_j = spec.masses[j]
            v_vf += np.linalg.norm(f.q[j]) > (pabs + c_a * l2) / m_j * slack + floor
            rhs = np.sqrt(grid.d) / m_j * (pabs + c_a * l2) * c_g * l2 + grad_bound[j]
            v_vf += np.linalg.norm(f.p[j]) > rhs * slack + floor
            rhs_h1 += field_factor * norms[j, 2] * pma / m_j
            rhs_l2 += field_factor * norms[j, 1] * pma / m_j
        v_vf += field_norm(f.field, 1.0, "homogeneous") > rhs_h1 * slack + floor
        v_vf += field_norm(f.field, 0.0) > rhs_l2 * slack + floor
    return [float(count) for count in (v_field, v_grad, v_lip, v_vf)]


def _mvfi_worst_per_draw(cfg, draws):
    """The mvfi-identity suite's worst scaled residual, one draw and one
    single-point kernel call at a time, on the suite's random stream."""
    grid, spec, pot = cfg.grid, cfg.spec, cfg.pot
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(draws):
        u = _random_state(rng, grid, spec.n, rng.uniform(0.1, 2.0))
        xi = _random_state(rng, grid, spec.n, rng.uniform(0.1, 2.0))
        s = rng.uniform(-2.0, 2.0)
        m = characteristic_density_m(s, xi, u, spec, pot, grid, cfg.basis)
        pairing = PhaseSpacePoint(
            ParticleState(-xi.q / np.pi, xi.p / np.pi),
            FieldState(grid, xi.alpha / (np.sqrt(2.0) * np.pi)))
        rhs = -2.0 * np.pi * real_inner(vartheta(s, u, spec, pot, grid, cfg.basis),
                                        pairing, 0.0)
        scale = (1.0 + phase_norm(u, 0.0) ** 2) * (1.0 + phase_norm(xi, 0.0))
        worst = max(worst, abs(m - rhs) / scale)
    return worst


class TestSuitesOnSmallScenario:
    """Exercise every named suite once at smoke scale.

    The acceptance runs use bigger budgets; these only pin that each suite
    is wired, deterministic, and green on a healthy scenario.
    """

    @pytest.mark.parametrize("suite", ["gauge", "gronwall", "mvfi-identity",
                                       "moments", "characteristic"])
    def test_suite_passes(self, cfg, suite):
        kwargs = {"draws": 50} if suite == "mvfi-identity" else {}
        outcome = run_suite(suite, cfg, **kwargs)
        assert outcome.passed, outcome.table()

    def test_characteristic_holds_no_point_mass_push_while_sampling(self, cfg, monkeypatch):
        # each trajectory the suite makes, by whether it starts at the point;
        # when a sampled one is made, count the point-mass ones still alive
        made, alive, trajectory = [], [], nmdyn.measures._trajectory

        def tracked(*args):
            traj = trajectory(*args)
            at_point = np.array_equal(traj.stored[0], cfg.point.data)
            if not at_point:
                alive.append(sum(ref() is not None for was_point, ref in made if was_point))
            made.append((at_point, weakref.ref(traj)))
            return traj

        monkeypatch.setattr(nmdyn.measures, "_trajectory", tracked)
        assert run_suite("characteristic", cfg).passed
        assert sum(at_point for at_point, _ in made) == 3  # the pushes at 4, 2 and 1 dt
        assert len(alive) == 2 * cfg.m_samples and max(alive) == 0

    def test_lemma_bounds_small_draw_budget(self, cfg):
        outcome = run_suite("lemma-bounds", cfg, draws=60)
        assert outcome.passed, outcome.table()

    def test_lemma_bounds_compiles_one_model(self):
        cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                                       "configs", "quickstart.json"))
        nmdyn.interaction._compile.cache_clear()
        run_suite("lemma-bounds", cfg, draws=3)
        assert nmdyn.interaction._compile.cache_info().currsize == 1

    def test_lemma_bounds_counts_match_a_per_draw_loop(self, cfg, monkeypatch):
        # the Cauchy-Schwarz constants are loose: at 1/200 of the hypothesis
        # norms every check fails on some of the 7 draws and passes on others
        tight = _tightened_hypotheses(monkeypatch, 0.005)
        rows = nmdyn.measures._BLOCK_BYTES // (8 * 4012)
        assert 7 % rows != 0  # the last block is partial
        outcome = run_suite("lemma-bounds", cfg, draws=7)
        counts = [c["value"] for c in outcome.checks]
        expected = _lemma_counts_per_draw(cfg, 7, tight(cfg.spec, 0.5, cfg.grid))
        assert counts == expected
        assert all(0 < count < most
                   for count, most in zip(counts, (7, 7 * cfg.grid.d, 7, 7 * 6)))

    def test_mvfi_residual_matches_a_per_draw_loop(self, cfg):
        outcome = run_suite("mvfi-identity", cfg, draws=9)
        assert outcome.checks[0]["value"] == _mvfi_worst_per_draw(cfg, 9) > 0.0

    def test_mvfi_scale_squares_as_python_pow(self, cfg):
        # the one draw of seed 1557 is one whose 1 + |u|^2 rounds differently
        # when the norm is squared by the array ** 2 instead of float_power
        cfg = dataclasses.replace(cfg, seed=1557)
        rng = np.random.default_rng(cfg.seed)
        norm = np.array([phase_norm(_random_state(rng, cfg.grid, cfg.spec.n,
                                                  rng.uniform(0.1, 2.0)), 0.0)])
        assert 1.0 + norm[0] ** 2 != (1.0 + norm**2)[0]
        outcome = run_suite("mvfi-identity", cfg, draws=1)
        assert outcome.checks[0]["value"] == _mvfi_worst_per_draw(cfg, 1) > 0.0

    def test_lipschitz_bound_scales_with_the_field_difference(self, cfg, monkeypatch):
        # Each v is its u with the field scaled by 1 + 1e-6, so |A(u) - A(v)|
        # is 1e-6 |A(u)|.  With the norms at 1e-3 every draw must break the
        # bound c ||chi/sqrt|k||| ||alpha_u - alpha_v||; a bound built from
        # alpha_u + alpha_v is 2e6 times larger and holds on every draw.
        _tightened_hypotheses(monkeypatch, 1e-3)
        last = []

        def near_pairs(rng, grid, n, scale):
            if last:
                u = last.pop()
                v = u._like(u.data.copy())
                v.alpha[...] *= 1.0 + 1e-6
                return v
            last.append(_random_state(rng, grid, n, scale))
            return last[0]

        monkeypatch.setattr(nmdyn.suites, "_random_state", near_pairs)
        outcome = run_suite("lemma-bounds", cfg, draws=5)
        assert outcome.checks[2]["value"] == 5

    def test_sampled_suites_block_invariant(self, config_file, tmp_path, monkeypatch):
        # 7 draws of 32 KB states: blocks of 1, of 4 (4 + 3) and of all 7
        _tightened_hypotheses(monkeypatch, 0.01)
        default = nmdyn.measures._BLOCK_BYTES
        outputs = []
        for name, budget in (("one", 0), ("default", default), ("all", 10**9)):
            monkeypatch.setattr(nmdyn.measures, "_BLOCK_BYTES", budget)
            files = []
            for suite, code in (("lemma-bounds", 1), ("mvfi-identity", 0)):
                assert main(["verify", suite, config_file, "--draws", "7",
                             "--out", str(tmp_path / name)]) == code
                files.append((tmp_path / name / f"verify_{suite}.json").read_bytes())
            outputs.append(files)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pushing_suites_block_invariant(self, config_file, tmp_path, monkeypatch):
        # 6 samples of 32 KB states: blocks of 1, of 4 (4 + 2) and of all 6
        default = nmdyn.measures._BLOCK_BYTES
        outputs = []
        for name, budget in (("one", 0), ("default", default), ("all", 10**9)):
            monkeypatch.setattr(nmdyn.measures, "_BLOCK_BYTES", budget)
            files = []
            for suite in ("characteristic", "moments"):
                assert main(["verify", suite, config_file, "--out", str(tmp_path / name)]) == 0
                files.append((tmp_path / name / f"verify_{suite}.json").read_bytes())
            outputs.append(files)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_duhamel_order_measures_both_schemes(self, cfg):
        outcome = run_suite("duhamel-order", cfg)
        named = {c["name"]: c for c in outcome.checks}
        # the splitting scheme sits in the second-order window
        assert named["strang error ratio"]["passed"]
        assert named["strang error ratio ceiling"]["passed"]
        assert named["cross-scheme C stability"]["passed"]
        # the interaction-picture integrator converges at fourth order:
        # ~16 per halving, inside its own [12.8, 19.2] window and well
        # clear of anything a second-order stepper could reach
        assert named["interaction-rk4 error ratio"]["value"] > 10.0
        assert named["interaction-rk4 error ratio ceiling"]["passed"]
        assert outcome.passed, outcome.table()

    def test_duhamel_order_takes_no_diagnostics(self, cfg, monkeypatch):
        calls = {"hamiltonian": 0, "check_hypotheses": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            original = getattr(nmdyn.interaction, name)
            for module in (nmdyn.interaction, nmdyn.integrator, nmdyn.suites):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        assert run_suite("duhamel-order", cfg).passed
        assert calls == {"hamiltonian": 0, "check_hypotheses": 1}

    def test_outcome_table_lists_every_check(self, cfg):
        outcome = run_suite("gauge", cfg)
        table = outcome.table()
        assert table.count("PASS") == len(outcome.checks) + 1
        assert table.splitlines()[-1].startswith("suite gauge: PASS")


@pytest.mark.parametrize("module", ["nmdyn", "nmdyn.geometry", "nmdyn.state",
                                    "nmdyn.interaction", "nmdyn.integrator",
                                    "nmdyn.measures", "nmdyn.config", "nmdyn.suites",
                                    "nmdyn.cli"])
def test_every_exported_name_resolves(module):
    """A deleted function must leave no dangling ``__all__`` entry."""
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
