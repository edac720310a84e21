"""Scenario configuration: the schema, its checker and the built scenario.

A scenario is one JSON document naming the grid, the particles, the pair
potential, an initial condition — either a single phase-space point or a
sampleable measure — and the run parameters.  CONFIG_SCHEMA (JSON Schema,
draft 2020-12) declares its shape, and load_config checks a document against
it with a small walker of its own that interprets exactly the keywords the
schema uses, so numpy is the only runtime dependency; every number must
also be a finite float.  A refused document raises ConfigError with a
path-to-field hint.

The resolved scenario (defaults and --seed applied) is what every output
file embeds; the output directory is runtime placement and deliberately not
part of it, so identical scenarios produce byte-identical files wherever
they are written.  ``scripts/configs/reference.json`` is the dump of
``reference_scenario()``.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import KGrid, PolarizationBasis, build_kgrid
from .integrator import SCHEMES, _step_count
from .interaction import FormFactor, PotentialSpec, default_basis
from .measures import MeasureSpec
from .state import FieldState, ParticleSpec, ParticleState, PhaseSpacePoint, point_from_json

__all__ = ["CONFIG_SCHEMA", "FORMAT_VERSION", "ConfigError", "ScenarioConfig",
           "load_config", "reference_scenario"]

FORMAT_VERSION = 2


class ConfigError(ValueError):
    """Configuration rejected; the message carries a path-to-field hint."""


# p and q are (n, d) nested lists; alpha_re and alpha_im are flat
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_ROWS = {"type": "array", "items": _NUMBERS}

_POINT_SCHEMA = {
    "type": "object",
    "properties": {"p": _ROWS, "q": _ROWS, "alpha_re": _NUMBERS, "alpha_im": _NUMBERS},
    "required": ["p", "q", "alpha_re", "alpha_im"],
    "additionalProperties": False,
}

# compact named profile: alpha_lam(k) = amplitude e^{-width |k|^2} eps_lam.c
_COHERENT_SCHEMA = {
    "type": "object",
    "properties": {
        "p": _ROWS,
        "q": _ROWS,
        "amplitude": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "direction": _NUMBERS,
    },
    "required": ["p", "q", "amplitude", "direction"],
    "additionalProperties": False,
}

_CENTER_SCHEMA = {
    "type": "object",
    "properties": {"point": _POINT_SCHEMA, "coherent": _COHERENT_SCHEMA},
    "oneOf": [{"required": ["point"]}, {"required": ["coherent"]}],
    "additionalProperties": False,
}

_SIMPLE_MEASURE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["dirac", "gaussian"]},
        "center": _CENTER_SCHEMA,
        "particle_scale": {"type": "number", "minimum": 0},
        "field_modes": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0},
                      "minItems": 2, "maxItems": 2},
        },
        "field_variances": {"type": "array",
                            "items": {"type": "number", "minimum": 0}},
    },
    "required": ["kind", "center"],
    "additionalProperties": False,
}

_MEASURE_SCHEMA = {
    "oneOf": [
        _SIMPLE_MEASURE_SCHEMA,
        {
            "type": "object",
            "properties": {
                "kind": {"const": "mixture"},
                "components": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "weight": {"type": "number", "exclusiveMinimum": 0},
                            "measure": _SIMPLE_MEASURE_SCHEMA,
                        },
                        "required": ["weight", "measure"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["kind", "components"],
            "additionalProperties": False,
        },
    ]
}

_FORM_FACTOR_SCHEMA = {
    "oneOf": [
        {"type": "object", "properties": {"family": {"const": "gaussian"},
                                          "width": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["family", "width"], "additionalProperties": False},
        {"type": "object", "properties": {"family": {"const": "ball"},
                                          "radius": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["family", "radius"], "additionalProperties": False},
        {"type": "object", "properties": {"family": {"const": "point"}},
         "required": ["family"], "additionalProperties": False},
        {"type": "object", "properties": {"family": {"const": "table"},
                                          "path": {"type": "string"}},
         "required": ["family", "path"], "additionalProperties": False},
    ]
}

_POTENTIAL_SCHEMA = {
    "oneOf": [
        {"type": "object", "properties": {"family": {"const": "zero"}},
         "required": ["family"], "additionalProperties": False},
        {"type": "object", "properties": {"family": {"const": "smeared-coulomb"},
                                          "g": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["family", "g"], "additionalProperties": False},
        {"type": "object", "properties": {"family": {"const": "product-of-cos"},
                                          "amplitude": {"type": "number"},
                                          "wavevector": {"type": "array",
                                                         "items": {"type": "number"}}},
         "required": ["family", "amplitude", "wavevector"],
         "additionalProperties": False},
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "format_version": {"enum": [1, FORMAT_VERSION]},
        "grid": {
            "type": "object",
            "properties": {"d": {"type": "integer", "minimum": 3},
                           "K": {"type": "number", "exclusiveMinimum": 0},
                           "N": {"type": "integer", "minimum": 2}},
            "required": ["d", "K", "N"],
            "additionalProperties": False,
        },
        "particles": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {"mass": {"type": "number", "exclusiveMinimum": 0},
                               "form_factor": _FORM_FACTOR_SCHEMA},
                "required": ["mass", "form_factor"],
                "additionalProperties": False,
            },
        },
        "potential": _POTENTIAL_SCHEMA,
        "initial": {
            "type": "object",
            "properties": {"point": _POINT_SCHEMA,
                           "coherent": _COHERENT_SCHEMA,
                           "measure": _MEASURE_SCHEMA},
            "oneOf": [{"required": ["point"]}, {"required": ["coherent"]},
                      {"required": ["measure"]}],
            "additionalProperties": False,
        },
        "run": {
            "type": "object",
            "properties": {"T": {"type": "number", "minimum": 0},
                           "dt": {"type": "number", "exclusiveMinimum": 0},
                           "scheme": {"enum": list(SCHEMES)},
                           "snapshot_every": {"type": "integer", "minimum": 1}},
            "required": ["T", "dt"],
            "additionalProperties": False,
        },
        "ensemble": {
            "type": "object",
            "properties": {"M": {"type": "integer", "minimum": 1},
                           "seed": {"type": "integer", "minimum": 0}},
            "required": ["M", "seed"],
            "additionalProperties": False,
        },
        "output": {"type": "string"},
    },
    "required": ["format_version", "grid", "particles", "potential",
                 "initial", "run"],
    "additionalProperties": False,
}

_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # draft 2020-12: an integral float such as 3.0 is an integer
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _json_equal(a, b) -> bool:
    """Equality as JSON sees it: 1 == 1.0, but true is not 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def _schema_error(schema: dict, value, path: tuple) -> Optional[tuple]:
    """The (path, message) of one violation of ``schema`` by ``value``, or None.

    Interprets the keywords CONFIG_SCHEMA uses, following draft 2020-12:
    type, const, enum, minimum, exclusiveMinimum, items, minItems, maxItems,
    properties, required, additionalProperties (false only) and oneOf;
    $schema is an annotation.  An object's properties are checked before its
    required and additional keys, so a branch of a oneOf that names another
    kind fails first on its const or enum discriminator.
    """
    kind = schema.get("type")
    if kind is not None and not _JSON_TYPES[kind](value):
        return path, f"{value!r} is not of type {kind!r}"
    if "const" in schema and not _json_equal(value, schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_json_equal(value, v) for v in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if _JSON_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} " + ("should be non-empty" if schema["minItems"] == 1
                                          else "is too short")
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} is too long"
        if "items" in schema:
            for index, item in enumerate(value):
                error = _schema_error(schema["items"], item, path + (index,))
                if error is not None:
                    return error
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                error = _schema_error(sub, value[key], path + (key,))
                if error is not None:
                    return error
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        extra = sorted(key for key in value if key not in properties)
        if extra and schema.get("additionalProperties", True) is False:
            verb = "was" if len(extra) == 1 else "were"
            return path, (f"Additional properties are not allowed "
                          f"({', '.join(map(repr, extra))} {verb} unexpected)")
    if "oneOf" in schema:
        return _one_of_error(schema["oneOf"], value, path)
    return None


def _old_frame_path(value, half: int, path: tuple = ("initial",)) -> Optional[tuple]:
    """The path of the first explicit point, or field mode on a node j >= M/2,
    in a version-1 ``initial``, where version 2 changed the frame; else None."""
    if path[-1] == "point" or (path[-2:-1] == ("field_modes",) and half <= value[1] < 2 * half):
        return path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    return next(filter(None, (_old_frame_path(item, half, path + (key,))
                              for key, item in items)), None)


def _non_finite(value, path: tuple = ()) -> Optional[tuple]:
    """The (path, message) of the first number in ``value`` that is not a
    finite float, or None: json reads NaN, Infinity, 1e400 and 10**400."""
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        return path, f"{value!r} is not a finite float"
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    return next(filter(None, (_non_finite(item, path + (key,)) for key, item in items)), None)


def _discriminator(branch: dict, value) -> Optional[tuple]:
    """(key, allowed values) of a const or enum property of ``branch`` that
    ``value`` fails: the value names another branch of the oneOf."""
    if not isinstance(value, dict):
        return None
    for key, sub in branch.get("properties", {}).items():
        allowed = [sub["const"]] if "const" in sub else sub.get("enum")
        if (allowed is not None and key in value
                and not any(_json_equal(value[key], a) for a in allowed)):
            return key, allowed
    return None


def _one_of_error(branches: list, value, path: tuple) -> Optional[tuple]:
    """oneOf: exactly one branch passes.  When none does, the deepest error of
    the branches whose discriminator ``value`` meets names the field; when
    every branch refuses the discriminator, that field and its allowed values."""
    errors = [_schema_error(branch, value, path) for branch in branches]
    passed = errors.count(None)
    if passed == 1:
        return None
    if passed > 1:
        return path, f"valid under {passed} of the given schemas, expected exactly one"
    tags = [_discriminator(branch, value) for branch in branches]
    open_errors = [error for error, tag in zip(errors, tags) if tag is None]
    if open_errors:
        return max(open_errors, key=lambda error: len(error[0]))
    key = tags[0][0]
    allowed = [a for tag_key, values in tags if tag_key == key for a in values]
    return path + (key,), f"{value[key]!r} is not one of {allowed!r}"


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A validated scenario: the raw (resolved) document plus built objects.

    ``point`` is set whenever the initial condition determines a single
    phase-space point (an explicit point, a coherent profile, or the center
    of a non-mixture measure); ``measure`` is set whenever sampling makes
    sense (an explicit measure, or the point promoted to its dirac mass).
    """

    raw: dict
    grid: KGrid
    basis: PolarizationBasis
    spec: ParticleSpec
    pot: PotentialSpec
    point: Optional[PhaseSpacePoint]
    measure: Optional[MeasureSpec]
    T: float
    dt: float
    scheme: str
    snapshot_every: int
    m_samples: int
    seed: int
    output: str

    def require_point(self) -> PhaseSpacePoint:
        if self.point is None:
            raise ConfigError("initial: this command needs a point-valued "
                              "initial condition (mixtures have no center)")
        return self.point

    def require_measure(self) -> MeasureSpec:
        if self.measure is None:
            raise ConfigError("initial: this command needs a sampleable "
                              "initial condition")
        return self.measure


def _build_form_factor(data: dict, base_dir: str) -> FormFactor:
    family = data["family"]
    if family == "gaussian":
        return FormFactor.gaussian(data["width"])
    if family == "ball":
        return FormFactor.ball(data["radius"])
    if family == "point":
        return FormFactor.point()
    return FormFactor.from_csv(os.path.join(base_dir, data["path"]))


def _build_potential(data: dict, d: int) -> PotentialSpec:
    family = data["family"]
    if family == "zero":
        return PotentialSpec.zero()
    if family == "smeared-coulomb":
        return PotentialSpec.coulomb(data["g"])
    if len(data["wavevector"]) != d:
        raise ConfigError(f"potential.wavevector: expected {d} components, "
                          f"got {len(data['wavevector'])}")
    return PotentialSpec.cosine(data["amplitude"], data["wavevector"])


def _build_center(data: dict, grid: KGrid, n_particles: int) -> PhaseSpacePoint:
    if "point" in data:
        u = point_from_json(data["point"], grid)
    else:
        c = data["coherent"]
        p = np.asarray(c["p"], dtype=float)
        q = np.asarray(c["q"], dtype=float)
        direction = np.asarray(c["direction"], dtype=float)
        if direction.shape != (grid.d,):
            raise ConfigError(f"initial.coherent.direction: expected {grid.d} "
                              f"components, got {direction.shape}")
        decay = np.exp(-c.get("width", 1.0) * grid.absk**2)
        alpha = (c["amplitude"] * np.einsum("jlv,v->lj", default_basis(grid).vectors, direction)
                 * decay[None, :])
        u = PhaseSpacePoint(ParticleState(p, q), FieldState(grid, alpha))
    if u.p.shape != (n_particles, grid.d):
        raise ConfigError(f"initial: particle arrays have shape {u.p.shape}, "
                          f"expected ({n_particles}, {grid.d})")
    return u


def _build_measure(data: dict, grid: KGrid, n_particles: int) -> MeasureSpec:
    if data["kind"] == "mixture":
        components = [(comp["weight"], _build_measure(comp["measure"], grid, n_particles))
                      for comp in data["components"]]
        return MeasureSpec.mixture(components)
    center = _build_center(data["center"], grid, n_particles)
    if data["kind"] == "dirac":
        return MeasureSpec.dirac(center)
    return MeasureSpec.gaussian(
        center,
        particle_scale=data.get("particle_scale", 0.0),
        field_modes=data.get("field_modes", []),
        field_variances=data.get("field_variances", []),
    )


def _check_out(output: str, flag: str = "--out",
               must_exist: bool = False) -> str:
    """``output``, checked before a run.  It must be a directory or, unless
    ``must_exist``, a path whose nearest existing ancestor is one, which
    ``cli._out_dir`` makes after the run; the empty path is refused.
    ``flag`` names the option in the message."""
    probe = os.path.abspath(output) if output else ""
    while probe and not must_exist and not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        reason = (f"{probe!r} is not a directory" if os.path.exists(probe)
                  else os.strerror(errno.ENOENT))
        raise ConfigError(f"{flag}: cannot use {output!r} as the output "
                          f"directory: {reason}")
    return output


def _check_csv(path: str, flag: str) -> None:
    """``path``, a script's CSV file: in a directory, and not one itself."""
    _check_out(os.path.dirname(path) or os.curdir, flag, must_exist=True)
    if os.path.isdir(path):
        raise ConfigError(f"{flag}: cannot write {path!r}: {os.strerror(errno.EISDIR)}")


def load_config(source, base_dir: str = ".",
                seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ScenarioConfig:
    """Validate and resolve one scenario document (dict or JSON file path)."""
    if isinstance(source, dict):
        raw = json.loads(json.dumps(source))  # private copy
    else:
        if not os.path.exists(source):
            raise ConfigError(f"config file not found: {source}")
        base_dir = os.path.dirname(os.path.abspath(source))
        try:
            with open(source, encoding="utf-8") as handle:
                raw = json.load(handle)
        except UnicodeDecodeError as err:
            raise ConfigError(f"config file {source} is not UTF-8 text: {err.reason}") from err
        except ValueError as err:  # also an integer of more digits than int() reads
            raise ConfigError(f"not valid JSON: {err}") from err
        except OSError as err:
            raise ConfigError(f"cannot read config file {source}: {err.strerror}") from err
    ensemble = raw.setdefault("ensemble", {"M": 64, "seed": 0}) if isinstance(raw, dict) else None
    if seed_override is not None and isinstance(ensemble, dict):  # the schema checks it
        ensemble["seed"] = int(seed_override)
    error = _schema_error(CONFIG_SCHEMA, raw, ()) or _non_finite(raw)
    if error is not None:
        path, message = error
        raise ConfigError(f"{'.'.join(map(str, path)) or '(root)'}: {message}")

    # resolve defaults so the embedded config is complete
    raw["run"].setdefault("scheme", "strang")
    raw["run"].setdefault("snapshot_every", 1)
    output = _check_out(out_override if out_override is not None else raw.get("output", "."))
    raw.pop("output", None)  # placement is runtime state, not scenario

    g = raw["grid"]
    try:
        # the schema admits integral floats such as 3.0 for d and N
        grid = build_kgrid(int(g["d"]), g["K"], int(g["N"]))
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err
    old = raw["format_version"] == 1 and _old_frame_path(raw["initial"], grid.node_count // 2)
    if old:
        raise ConfigError(f"{'.'.join(map(str, old))}: format_version 1 gives field components "
                          f"on nodes j >= {grid.node_count // 2} in the old frame; use version 2")
    try:
        spec = ParticleSpec(
            masses=np.array([part["mass"] for part in raw["particles"]]),
            form_factors=[_build_form_factor(part["form_factor"], base_dir)
                          for part in raw["particles"]],
        )
        pot = _build_potential(raw["potential"], grid.d)
        n = len(raw["particles"])
        initial = raw["initial"]
        if "measure" in initial:
            measure = _build_measure(initial["measure"], grid, n)
            point = measure.center if measure.kind != "mixture" else None
        else:
            point = _build_center(initial, grid, n)
            measure = MeasureSpec.dirac(point)
    except ConfigError:
        raise
    except (ValueError, OSError) as err:
        raise ConfigError(str(err)) from err

    run = raw["run"]
    try:
        _step_count(float(run["T"]), float(run["dt"]))
    except ValueError as err:
        raise ConfigError(f"run: {err}") from err
    return ScenarioConfig(
        raw=raw, grid=grid, basis=default_basis(grid), spec=spec, pot=pot,
        point=point, measure=measure,
        T=float(run["T"]), dt=float(run["dt"]), scheme=run["scheme"],
        snapshot_every=int(run["snapshot_every"]),
        m_samples=int(raw["ensemble"]["M"]), seed=int(raw["ensemble"]["seed"]),
        output=output,
    )


def reference_scenario() -> dict:
    """The default scenario: two gaussian charges, smeared Coulomb coupling,
    a coherent field profile, and a gaussian sampling measure around it."""
    center = {
        "coherent": {
            "p": [[0.3, -0.1, 0.2], [-0.2, 0.4, 0.1]],
            "q": [[0.5, 0.0, -0.3], [-0.4, 0.6, 0.2]],
            "amplitude": 0.3,
            "width": 1.0,
            "direction": [1.0, 0.5, -0.2],
        }
    }
    return {
        "format_version": FORMAT_VERSION,
        "grid": {"d": 3, "K": 2.5, "N": 16},
        "particles": [
            {"mass": 1.0, "form_factor": {"family": "gaussian", "width": 1.0}},
            {"mass": 1.5, "form_factor": {"family": "gaussian", "width": 1.0}},
        ],
        "potential": {"family": "smeared-coulomb", "g": 0.125},
        "initial": {
            "measure": {
                "kind": "gaussian",
                "center": center,
                "particle_scale": 0.05,
                "field_modes": [[0, 0], [1, 7], [0, 23]],
                "field_variances": [0.02, 0.02, 0.02],
            }
        },
        "run": {"T": 1.0, "dt": 0.01, "scheme": "strang", "snapshot_every": 10},
        "ensemble": {"M": 64, "seed": 2026},
    }
