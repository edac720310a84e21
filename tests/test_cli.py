"""Configuration layer and command-line behavior.

End-to-end command tests run on a deliberately small grid so the whole
module stays fast; the scenario semantics (schema validation, defaults,
overrides, exit codes, file layout, thread-count byte-identity) do not
depend on resolution.
"""

import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import nmdyn.cli
import nmdyn.integrator
import nmdyn.interaction
import nmdyn.measures

from nmdyn.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    FORMAT_VERSION,
    load_config,
    main,
    reference_scenario,
    run_suite,
    write_payload,
)
from nmdyn.interaction import hamiltonian
from nmdyn.state import phase_norm, point_from_json, point_to_json


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
        assert cfg.spec.form_factors[0].values_on(cfg.grid).max() > 0


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
        raw["run"] = {"T": 3.0, "dt": 1.0}
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
            ours = nmdyn.cli._schema_error(CONFIG_SCHEMA, mutant, ())
            errors = list(validator.iter_errors(mutant))
            assert (ours is None) == (not errors), (mutant, ours)
            if ours is not None:
                assert ours[0] in set(_error_paths(errors)), (mutant, ours)

    def test_schema_uses_only_interpreted_keywords(self):
        interpreted = {"$schema", "type", "const", "enum", "minimum", "exclusiveMinimum",
                       "items", "minItems", "maxItems", "required", "properties",
                       "additionalProperties", "oneOf"}
        seen = set()

        def visit(schema):
            seen.update(schema)
            assert schema.get("additionalProperties", False) is False
            for sub in schema.get("properties", {}).values():
                visit(sub)
            for sub in schema.get("oneOf", []):
                visit(sub)
            if "items" in schema:
                visit(schema["items"])

        visit(CONFIG_SCHEMA)
        assert seen <= interpreted, seen - interpreted


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

    def test_unknown_types_are_refused(self):
        with pytest.raises(TypeError):
            "".join(nmdyn.cli._json_chunks({"x": np.int64(3)}))


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

    def test_lemma_bounds_small_draw_budget(self, cfg):
        outcome = run_suite("lemma-bounds", cfg, draws=60)
        assert outcome.passed, outcome.table()

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
            for module in (nmdyn.interaction, nmdyn.integrator, nmdyn.cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted(name, original))
        assert run_suite("duhamel-order", cfg).passed
        assert calls == {"hamiltonian": 0, "check_hypotheses": 1}

    def test_outcome_table_lists_every_check(self, cfg):
        outcome = run_suite("gauge", cfg)
        table = outcome.table()
        assert table.count("PASS") == len(outcome.checks) + 1
        assert table.splitlines()[-1].startswith("suite gauge: PASS")
