"""Command-line interface: scenario configs, runs, and verification suites.

A scenario is one JSON document naming the grid, the particles, the pair
potential, an initial condition — either a single phase-space point or a
sampleable measure — and the run parameters.  CONFIG_SCHEMA (JSON Schema,
draft 2020-12) declares its shape, and load_config checks a document against
it with a small walker of its own that interprets exactly the keywords the
schema uses, so numpy is the only runtime dependency.
Four subcommands consume it:

* ``simulate``  — one trajectory; writes trajectory.csv + summary.json.
* ``ensemble``  — sample the initial measure, push every sample through the
  flow; writes ensemble.csv + reports.json (moments, characteristic checks).
* ``verify``    — run one named verification suite, or ``all`` (a refused
  suite is listed and the rest still run); exit code 0 iff every check passes.
* ``hypotheses``— form-factor integrability report for the configured grid.

Exit codes: 0 success / all checks pass, 1 suite failure, 2 configuration
problem (schema violation, inconsistent shapes, or a flagged form factor
without --allow-flagged), 3 numerical abort (non-finite state); ``guarded``
gives 2 and 3 with one stderr line, for ``main`` and the scripts alike.

Every output file embeds the resolved scenario (defaults applied, --seed
applied) plus a format-version field; the output directory is runtime
placement and deliberately not part of the resolved scenario, so identical
scenarios produce byte-identical files wherever they are written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    KGrid,
    PolarizationBasis,
    build_kgrid,
    integrate_k,
)
from .integrator import (
    SCHEME_ORDER,
    SCHEMES,
    FlaggedHypothesesError,
    NumericalBlowupError,
    _step_count,
    divergence_report,
    evolve,
    refuse_flagged,
    stepper,
    trajectory_to_csv,
)
from .interaction import (
    FormFactor,
    PotentialSpec,
    _bracket,
    _grad_vector_potentials,
    _hypothesis_norms,
    _phases,
    _vector_potentials,
    characteristic_density_m,
    check_hypotheses,
    compile_model,
    default_basis,
    nonlinearity_F,
    potential_gradient_bound,
    vartheta,
)
from .measures import (
    EnsemblePropagationError,
    MeasureSpec,
    _blocks,
    characteristic_residual,
    ensemble_to_csv,
    moment_report,
    push_forward,
    sample_measure,
)
from .state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    _density_norm,
    _field_density,
    _field_norm,
    phase_norm,
    point_from_json,
    point_to_json,
    real_inner,
)

__all__ = [
    "CONFIG_SCHEMA",
    "FORMAT_VERSION",
    "ConfigError",
    "ScenarioConfig",
    "VerifyOutcome",
    "guarded",
    "load_config",
    "reference_scenario",
    "run_suite",
    "write_payload",
    "SUITES",
    "main",
]

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected; the message carries a path-to-field hint."""


_POINT_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "array"},
        "q": {"type": "array"},
        "alpha_re": {"type": "array"},
        "alpha_im": {"type": "array"},
    },
    "required": ["p", "q", "alpha_re", "alpha_im"],
    "additionalProperties": False,
}

# compact named profile: alpha_lam(k) = amplitude e^{-width |k|^2} eps_lam.c
_COHERENT_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "array"},
        "q": {"type": "array"},
        "amplitude": {"type": "number"},
        "width": {"type": "number", "exclusiveMinimum": 0},
        "direction": {"type": "array", "items": {"type": "number"}},
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
        "format_version": {"const": FORMAT_VERSION},
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


def _build_center(data: dict, grid: KGrid, basis: PolarizationBasis,
                  n_particles: int) -> PhaseSpacePoint:
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
        alpha = (c["amplitude"] * np.einsum("jlv,v->lj", basis.vectors, direction)
                 * decay[None, :])
        u = PhaseSpacePoint(ParticleState(p, q), FieldState(grid, alpha))
    if u.p.shape != (n_particles, grid.d):
        raise ConfigError(f"initial: particle arrays have shape {u.p.shape}, "
                          f"expected ({n_particles}, {grid.d})")
    return u


def _build_measure(data: dict, grid: KGrid, basis: PolarizationBasis,
                   n_particles: int) -> MeasureSpec:
    if data["kind"] == "mixture":
        components = [
            (comp["weight"],
             _build_measure(comp["measure"], grid, basis, n_particles))
            for comp in data["components"]
        ]
        return MeasureSpec.mixture(components)
    center = _build_center(data["center"], grid, basis, n_particles)
    if data["kind"] == "dirac":
        return MeasureSpec.dirac(center)
    return MeasureSpec.gaussian(
        center,
        particle_scale=data.get("particle_scale", 0.0),
        field_modes=data.get("field_modes", []),
        field_variances=data.get("field_variances", []),
    )


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
        with open(source) as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as err:
                raise ConfigError(f"not valid JSON: {err}") from err
    ensemble = raw.setdefault("ensemble", {"M": 64, "seed": 0}) if isinstance(raw, dict) else None
    if seed_override is not None and isinstance(ensemble, dict):  # the schema checks it
        ensemble["seed"] = int(seed_override)
    error = _schema_error(CONFIG_SCHEMA, raw, ())
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
    basis = default_basis(grid)
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
            measure = _build_measure(initial["measure"], grid, basis, n)
            point = measure.center if measure.kind != "mixture" else None
        else:
            point = _build_center(initial, grid, basis, n)
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
        raw=raw, grid=grid, basis=basis, spec=spec, pot=pot,
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


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class VerifyOutcome:
    """Named checks of one suite: measured value vs limit, pass iff all pass."""

    suite: str
    checks: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checks": list(self.checks)}

    def table(self) -> str:
        lines = [f"suite: {self.suite}"]
        width = max(len(c["name"]) for c in self.checks)
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"  {c['name']:<{width}}  value={c['value']:< 12.5g} "
                         f"{c['relation']} {c['limit']:< 12.5g}  {status}")
        tally = sum(c["passed"] for c in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} ({tally}/{len(self.checks)})")
        return "\n".join(lines)


def _check(name: str, value: float, limit: float, relation: str = "<=") -> dict:
    if relation == "<=":
        ok = value <= limit
    elif relation == ">=":
        ok = value >= limit
    elif relation == "==":
        ok = value == limit
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return {"name": name, "value": float(value), "limit": float(limit),
            "relation": relation, "passed": bool(ok)}


def _random_state(rng: np.random.Generator, grid: KGrid, n: int,
                  scale: float) -> PhaseSpacePoint:
    alpha = scale * (rng.standard_normal((grid.d - 1, grid.node_count))
                     + 1j * rng.standard_normal((grid.d - 1, grid.node_count)))
    return PhaseSpacePoint(
        ParticleState(scale * rng.standard_normal((n, grid.d)),
                      scale * rng.standard_normal((n, grid.d))),
        FieldState(grid, alpha),
    )


def _random_direction(rng: np.random.Generator, grid: KGrid, n: int,
                      scale: float = 0.5) -> PhaseSpacePoint:
    """Decay-weighted random phase-space direction (finite in every X^sigma)."""
    u = _random_state(rng, grid, n, scale)
    decay = np.exp(-grid.absk**2)
    return PhaseSpacePoint(u.particles, FieldState(grid, u.alpha * decay[None, :]))


def verify_gauge(cfg: ScenarioConfig, **_) -> VerifyOutcome:
    """Transversality and orthonormality of the polarization frame."""
    grid, vectors = cfg.grid, cfg.basis.vectors
    khat = grid.nodes / grid.absk[:, None]
    trans = float(np.max(np.abs(np.einsum("jlv,jv->jl", vectors, khat))))
    gram = np.einsum("jlv,jmv->jlm", vectors, vectors)
    gram -= np.eye(grid.d - 1)[None, :, :]
    ortho = float(np.max(np.abs(gram)))
    return VerifyOutcome("gauge", (
        _check("max |khat . eps|", trans, 1e-12),
        _check("max |eps.eps - delta|", ortho, 1e-12),
    ))


def _draw_blocks(draw, draws: int, grid: KGrid, n: int):
    """The results of ``draws`` calls of ``draw``, in call order, as lists of
    consecutive calls.

    A list holds as many draws as the ensemble push stacks samples of this
    scenario (``measures._blocks`` with one packed state per row), and the
    random stream is that of a plain loop over the draws.  A count below one
    is refused.
    """
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    # one packed state: p and q, then alpha as (re, im) pairs, in float64
    row_bytes = 8 * (2 * n * grid.d + 2 * (grid.d - 1) * grid.node_count)
    return (block for _, block in _blocks((draw() for _ in range(draws)), row_bytes))


def _stacked(points) -> PhaseSpacePoint:
    """Points of one layout as one (B, D) stack."""
    return points[0]._like(np.stack([w.data for w in points]))


def verify_lemma_bounds(cfg: ScenarioConfig, draws: int = 1000, **_) -> VerifyOutcome:
    """Pointwise coupling-function bounds over random phase-space draws.

    All inequalities use the grid-exact Cauchy-Schwarz constants (hypothesis
    norms); a violation would mean the implementation disagrees with its own
    constants, so the pass criterion is an exact zero count.  Each draw is
    two states u, v and a particle i, drawn in a fixed order; consecutive
    draws are evaluated together (see ``_draw_blocks``) as a (B, D) stack of
    u and one of v.  One bracket per stack gives A and grad A of every
    particle, from which each draw takes its particle i; F and the field
    norms run on the stacks row by row.  draws must be at least 1.
    """
    grid, spec, pot = cfg.grid, cfg.spec, cfg.pot
    n = spec.masses.size
    norms = _hypothesis_norms(spec, 0.5, grid)
    chi_l2 = np.array([
        np.sqrt(float(integrate_k(grid, ff.profile(grid.absk) ** 2)))
        for ff in spec.form_factors
    ])
    grad_bound = potential_gradient_bound(spec, pot, grid)
    c_dim = np.sqrt(2.0 * (grid.d - 1))
    field_factor = np.sqrt((grid.d - 1) / 2.0)
    slack, floor = 1 + 1e-12, 1e-15
    model = compile_model(spec, pot, grid, cfg.basis)
    rng = np.random.default_rng(cfg.seed)

    def draw():
        u = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        v = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        return u, v, int(rng.integers(0, n))

    def bracket(w):
        return _bracket(w.alpha, model.wpref * _phases(model, w.q))

    def norm(x):
        return np.linalg.norm(x, axis=-1)

    v_field = v_grad = v_lip = v_vf = 0
    for block in _draw_blocks(draw, draws, grid, n):
        points_u, points_v, picks = zip(*block)
        u, v = _stacked(points_u), _stacked(points_v)
        rows, i = np.arange(len(block)), np.array(picks)
        c_u = bracket(u)
        a_all = _vector_potentials(model, c_u)
        a = a_all[rows, i]
        da = _grad_vector_potentials(model, c_u)[rows, i]  # row nu: grad A^nu
        dens = _field_density(u.alpha)
        l2 = _density_norm(grid, dens, 0.0, "inhomogeneous")
        h12 = _density_norm(grid, dens, 0.5, "homogeneous")

        bound = np.minimum(c_dim * norms[i, 1] * l2, c_dim * norms[i, 0] * h12)
        v_field += np.count_nonzero(norm(a) > bound * slack + floor)
        bound = np.minimum(2 * np.pi * c_dim * norms[i, 2] * l2,
                           2 * np.pi * c_dim * chi_l2[i] * h12)
        v_grad += np.count_nonzero(norm(da) > (bound * slack + floor)[:, None])

        dq = norm(u.q[rows, i] - v.q[rows, i])
        a_diff = norm(a - _vector_potentials(model, bracket(v))[rows, i])
        l2_diff = _field_norm(grid, u.alpha - v.alpha, 0.0, "inhomogeneous")
        l2_v = _field_norm(grid, v.alpha, 0.0, "inhomogeneous")
        lip = (c_dim * norms[i, 1] * l2_diff
               + 2 * np.pi * c_dim * norms[i, 2] * dq * l2_v)
        v_lip += np.count_nonzero(a_diff > lip * slack + floor)

        f = nonlinearity_F(u, spec, pot, grid, cfg.basis)
        rhs_h1 = rhs_l2 = 0.0
        for j in range(n):
            pma = norm(u.p[:, j] - a_all[:, j])
            pabs = norm(u.p[:, j])
            c_a = c_dim * norms[j, 1]
            c_g = 2 * np.pi * c_dim * norms[j, 2]
            m_j = spec.masses[j]
            v_vf += np.count_nonzero(norm(f.q[:, j]) > (pabs + c_a * l2) / m_j * slack + floor)
            rhs = (np.sqrt(grid.d) / m_j * (pabs + c_a * l2) * c_g * l2
                   + grad_bound[j])
            v_vf += np.count_nonzero(norm(f.p[:, j]) > rhs * slack + floor)
            rhs_h1 += field_factor * norms[j, 2] * pma / m_j
            rhs_l2 += field_factor * norms[j, 1] * pma / m_j
        dens = _field_density(f.alpha)
        v_vf += np.count_nonzero(_density_norm(grid, dens, 1.0, "homogeneous")
                                 > rhs_h1 * slack + floor)
        v_vf += np.count_nonzero(_density_norm(grid, dens, 0.0, "inhomogeneous")
                                 > rhs_l2 * slack + floor)

    return VerifyOutcome("lemma-bounds", (
        _check("field-bound violations", v_field, 0, "=="),
        _check("gradient-bound violations", v_grad, 0, "=="),
        _check("lipschitz violations", v_lip, 0, "=="),
        _check("vector-field violations", v_vf, 0, "=="),
    ))


def verify_duhamel_order(cfg: ScenarioConfig, allow_flagged: bool = False,
                         **_) -> VerifyOutcome:
    """Each scheme converges at its design order against a dt/8 reference.

    Measured against its own dt/8 run, an order-p scheme shrinks the endpoint
    error by (1 - 8^-p) / (2^-p - 8^-p) per dt halving: 63/15 ~ 4.20 for
    p = 2 and ~ 16.06 for p = 4.  The acceptance window is 2^p +/- 20%,
    i.e. [3.2, 4.8] for strang and [12.8, 19.2] for interaction-rk4, with p
    from ``SCHEME_ORDER``.  The cross-scheme endpoint distance is dominated
    by the second-order splitting and fits distance = C dt^2; refinement
    must leave C stable.
    """
    u0 = cfg.require_point()
    if cfg.T == 0:
        raise ConfigError("run: the duhamel-order suite needs T > 0")
    refuse_flagged(cfg.spec, cfg.grid, allow_flagged)
    ends = {}
    for scheme in SCHEMES:
        for div in (1, 2, 8):
            end = u0  # only the endpoint matters, so no diagnostics are taken
            for end in stepper(u0, cfg.T, cfg.dt / div, cfg.spec, cfg.pot,
                               cfg.grid, scheme, cfg.basis):
                pass
            ends[scheme, div] = end
    checks = []
    for scheme in SCHEMES:
        e1 = phase_norm(ends[scheme, 1] - ends[scheme, 8], 0.0)
        e2 = phase_norm(ends[scheme, 2] - ends[scheme, 8], 0.0)
        ratio = e1 / e2
        ideal = 2.0 ** SCHEME_ORDER[scheme]
        checks.append(_check(f"{scheme} error ratio", ratio, 0.8 * ideal, ">="))
        checks.append(_check(f"{scheme} error ratio ceiling", ratio, 1.2 * ideal))
    x1 = phase_norm(ends["strang", 1] - ends["interaction-rk4", 1], 0.0)
    x2 = phase_norm(ends["strang", 2] - ends["interaction-rk4", 2], 0.0)
    c1 = x1 / cfg.dt**2
    c2 = x2 / (cfg.dt / 2) ** 2
    checks.append(_check("cross-scheme C stability", abs(c2 / c1 - 1.0), 0.25))
    return VerifyOutcome("duhamel-order", tuple(checks))


def verify_gronwall(cfg: ScenarioConfig, allow_flagged: bool = False,
                    **_) -> VerifyOutcome:
    """Exponential-envelope divergence of perturbed trajectories.

    Two perturbation sizes; each envelope must hold at every step and the
    fitted rate must not depend on the perturbation size (linear regime).
    """
    u0 = cfg.require_point()
    rng = np.random.default_rng(cfg.seed)
    direction = _random_direction(rng, cfg.grid, cfg.spec.masses.size)
    direction = (1.0 / phase_norm(direction, 0.0)) * direction
    rates = {}
    checks = []
    for eps in (1e-6, 1e-5):
        rep = divergence_report(u0, eps, direction, cfg.T, cfg.dt, cfg.spec,
                                cfg.pot, cfg.grid, scheme=cfg.scheme,
                                basis=cfg.basis, allow_flagged=allow_flagged)
        rates[eps] = rep.fitted_c
        checks.append(_check(f"envelope violations (eps={eps:g})",
                             rep.envelope_violations, 0, "=="))
    spread = abs(rates[1e-5] - rates[1e-6]) / max(abs(rates[1e-6]), 1e-12)
    checks.append(_check("fitted-rate stability", spread, 0.2))
    return VerifyOutcome("gronwall", tuple(checks))


def verify_characteristic(cfg: ScenarioConfig, allow_flagged: bool = False,
                          **_) -> VerifyOutcome:
    """The characteristic equation along the pushed ensemble, in 5 random directions.

    Point-mass part: the residual of the integrated identity must decay at
    second order under dt refinement (ratios ~4 under halving).  Sampled
    part: the residual at the configured dt must fit inside the Monte-Carlo
    noise plus the discretization bias, whose coefficient is measured on the
    same samples at twice the snapshot spacing.
    """
    measure = cfg.require_measure()
    args = (cfg.spec, cfg.pot, cfg.grid)
    rng = np.random.default_rng(cfg.seed)
    ys = [_random_direction(rng, cfg.grid, cfg.spec.masses.size) for _ in range(5)]
    checks = []
    coarsest = 4 if cfg.point is not None else 2  # the point-mass part also runs 4*dt
    if cfg.T == 0 or _step_count(cfg.T, cfg.dt) % coarsest != 0:
        raise ConfigError(f"run: the characteristic suite also runs at {coarsest}*dt,"
                          f" so T must be positive and T/dt divisible by {coarsest}")

    if cfg.point is not None:
        dirac = MeasureSpec.dirac(cfg.point)
        res = []
        for mult in (4, 2, 1):
            ens = push_forward(sample_measure(dirac, 1, cfg.seed), cfg.T,
                               mult * cfg.dt, *args, scheme=cfg.scheme,
                               basis=cfg.basis, allow_flagged=allow_flagged)
            chk = characteristic_residual(ens, ys[0], cfg.T, 0.0, 0.0, *args,
                                          cfg.basis)
            res.append(chk.residual)
        checks.append(_check("point-mass decay ratio (4dt/2dt)",
                             res[0] / res[1], 3.4, ">="))
        checks.append(_check("point-mass decay ratio (2dt/dt)",
                             res[1] / res[2], 3.4, ">="))

    common = dict(scheme=cfg.scheme, store_every=cfg.snapshot_every,
                  basis=cfg.basis, allow_flagged=allow_flagged)
    ens0 = sample_measure(measure, cfg.m_samples, cfg.seed)
    fine = push_forward(ens0, cfg.T, cfg.dt, *args, **common)
    coarse = push_forward(ens0, cfg.T, 2 * cfg.dt, *args, **common)
    delta_f = cfg.snapshot_every * cfg.dt
    delta_c = 2 * delta_f
    fine_checks = characteristic_residual(fine, ys, cfg.T, 0.0, 0.0, *args,
                                          cfg.basis)
    coarse_checks = characteristic_residual(coarse, ys, cfg.T, 0.0, 0.0,
                                            *args, cfg.basis)
    for j, (f, c) in enumerate(zip(fine_checks, coarse_checks)):
        budget = 3 * f.mc_stderr + 1.5 * (c.residual / delta_c**2) * delta_f**2
        checks.append(_check(f"ensemble residual (direction {j})",
                             f.residual, budget))
    return VerifyOutcome("characteristic", tuple(checks))


def verify_mvfi_identity(cfg: ScenarioConfig, draws: int = 100, **_) -> VerifyOutcome:
    """Pairing identity between the characteristic density and the
    drift-removed vector field, the two sides computed independently.

    Each draw is two states u, xi and a time s, drawn in a fixed order;
    consecutive draws are evaluated together (see ``_draw_blocks``):
    vartheta runs on the stack of u with one time per row, and real_inner
    pairs its rows with those of the stacked xi~.  m(s, xi) stays one call
    per draw, as the identity's independent route.  draws must be at least 1.
    """
    grid, spec, pot = cfg.grid, cfg.spec, cfg.pot
    n = spec.masses.size
    rng = np.random.default_rng(cfg.seed)

    def draw():
        u = _random_state(rng, grid, n, rng.uniform(0.1, 2.0))
        xi = _random_state(rng, grid, n, rng.uniform(0.1, 2.0))
        return u, xi, rng.uniform(-2.0, 2.0)

    worst = 0.0
    for block in _draw_blocks(draw, draws, grid, n):
        points_u, points_xi, times = zip(*block)
        u, xi = _stacked(points_u), _stacked(points_xi)
        theta = vartheta(np.array(times), u, spec, pot, grid, cfg.basis)
        pairing = xi._like(np.empty_like(xi.data))
        pairing.p[...] = -xi.q / np.pi
        pairing.q[...] = xi.p / np.pi
        pairing.alpha[...] = xi.alpha / (np.sqrt(2.0) * np.pi)
        rhs = -2.0 * np.pi * real_inner(theta, pairing, 0.0)
        # float_power rounds as Python's ** on one float does (see _density_norm)
        scale = ((1.0 + np.float_power(phase_norm(u, 0.0), 2))
                 * (1.0 + phase_norm(xi, 0.0)))
        for b, (s, u_b, xi_b) in enumerate(zip(times, points_u, points_xi)):
            m = characteristic_density_m(s, xi_b, u_b, spec, pot, grid, cfg.basis)
            worst = max(worst, abs(m - rhs[b]) / scale[b])
    return VerifyOutcome("mvfi-identity", (
        _check(f"max scaled residual ({draws} draws)", worst, 1e-10),
    ))


def verify_moments(cfg: ScenarioConfig, allow_flagged: bool = False,
                   **_) -> VerifyOutcome:
    """Fourth-moment propagation against conserved-energy certificates."""
    measure = cfg.require_measure()
    ens = push_forward(sample_measure(measure, cfg.m_samples, cfg.seed),
                       cfg.T, cfg.dt, cfg.spec, cfg.pot, cfg.grid,
                       scheme=cfg.scheme, store_every=cfg.snapshot_every,
                       basis=cfg.basis, allow_flagged=allow_flagged)
    rep = moment_report(ens, cfg.spec, cfg.pot, cfg.grid)
    return VerifyOutcome("moments", (
        _check("bounded-envelope violations", rep.violations_bounded, 0, "=="),
        _check("exponential-envelope violations", rep.violations_exp, 0, "=="),
        _check("bounded headroom (observed/envelope)",
               rep.observed_max_bounded / rep.c_bounded, 1.0),
    ))


SUITES = {
    "gauge": verify_gauge,
    "lemma-bounds": verify_lemma_bounds,
    "duhamel-order": verify_duhamel_order,
    "gronwall": verify_gronwall,
    "characteristic": verify_characteristic,
    "mvfi-identity": verify_mvfi_identity,
    "moments": verify_moments,
}


def run_suite(name: str, cfg: ScenarioConfig, **kwargs) -> VerifyOutcome:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from "
                          f"{sorted(SUITES)}")
    return SUITES[name](cfg, **kwargs)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_json(value) -> str:
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    return json.dumps(value)


def _json_chunks(value, indent: str = ""):
    """The text of ``json.dump(value, indent=2, sort_keys=True)``, in pieces.

    With an indent, json falls back to its pure-Python encoder, which
    formats each float separately.  Here a list of plain floats and ints is
    written from the repr of 1,024 items at a time, which spells every item
    as json does unless one is not finite.  Values other than dicts, lists,
    tuples and json's scalars are left to json, which rejects them.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            name = key if isinstance(key, str) else _scalar_json(key)
            yield ("{\n" if i == 0 else ",\n") + inner + json.dumps(name) + ": "
            yield from _json_chunks(value[key], inner)
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        yield "[\n" + inner
        if set(map(type, value)) <= {float, int}:
            for start in range(0, len(value), 1024):
                part = list(value[start:start + 1024])
                text = repr(part)[1:-1]  # "n" only in nan and inf
                yield ((sep if start else "")
                       + (sep.join(map(_scalar_json, part)) if "n" in text
                          else text.replace(", ", sep)))
        else:
            for i, item in enumerate(value):
                yield sep if i else ""
                yield from _json_chunks(item, inner)
        yield "\n" + indent + "]"
    elif isinstance(value, (dict, list, tuple)):
        yield "{}" if isinstance(value, dict) else "[]"
    else:
        yield _scalar_json(value)


def write_payload(path: str, cfg: ScenarioConfig, body: dict) -> None:
    """Write body as JSON, after the format version and the scenario it ran.

    The bytes are those of ``json.dump(payload, indent=2, sort_keys=True)``
    plus a newline.
    """
    payload = {"format_version": FORMAT_VERSION, "config": cfg.raw, **body}
    with open(path, "w") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _write_csv(path: str, cfg: ScenarioConfig, writer) -> None:
    with open(path, "w") as handle:
        handle.write(f"# format-version: {FORMAT_VERSION}\n")
        handle.write(f"# config: {json.dumps(cfg.raw, sort_keys=True)}\n")
        writer(handle)


def _check_out(output: str) -> str:
    """output, unless it or its nearest existing ancestor is not a directory;
    checked before a run, made by ``_out_dir`` after it."""
    probe = os.path.abspath(output)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out: cannot use {output!r} as the output "
                          f"directory: {probe!r} is not a directory")
    return output


def _out_dir(cfg: ScenarioConfig) -> str:
    try:
        os.makedirs(cfg.output, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: cannot use {cfg.output!r} as the output "
                          f"directory: {err.strerror}") from err
    return cfg.output


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    u0 = cfg.require_point()
    traj = evolve(u0, cfg.T, cfg.dt, cfg.spec, cfg.pot, cfg.grid,
                  scheme=cfg.scheme, store_every=cfg.snapshot_every,
                  basis=cfg.basis, allow_flagged=args.allow_flagged)
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "trajectory.csv"), cfg,
               lambda handle: trajectory_to_csv(traj, handle))
    h = traj.energies
    drift = float(np.max(np.abs(h - h[0]))) / max(abs(h[0]), 1e-300)
    write_payload(os.path.join(out, "summary.json"), cfg, {
        "steps": traj.n_steps,
        "energy_initial": float(h[0]),
        "energy_final": float(h[-1]),
        "relative_energy_drift": drift,
        "final_norms": {"X0": float(traj.norms[-1, 0]),
                        "X12": float(traj.norms[-1, 1]),
                        "X1": float(traj.norms[-1, 2])},
        "endpoint": point_to_json(traj.endpoint()),
    })
    print(f"simulate: {traj.n_steps} steps, relative energy drift "
          f"{drift:.3e}; wrote {out}/trajectory.csv, {out}/summary.json")
    return 0


def cmd_ensemble(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    measure = cfg.require_measure()
    ens = push_forward(sample_measure(measure, cfg.m_samples, cfg.seed),
                       cfg.T, cfg.dt, cfg.spec, cfg.pot, cfg.grid,
                       scheme=cfg.scheme, store_every=cfg.snapshot_every,
                       basis=cfg.basis, allow_flagged=args.allow_flagged)
    rng = np.random.default_rng(cfg.seed)
    ys = [_random_direction(rng, cfg.grid, cfg.spec.masses.size)
          for _ in range(3)]
    char = characteristic_residual(ens, ys, cfg.T, 0.0, 0.0, cfg.spec,
                                   cfg.pot, cfg.grid, cfg.basis)
    moments = moment_report(ens, cfg.spec, cfg.pot, cfg.grid)
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "ensemble.csv"), cfg,
               lambda handle: ensemble_to_csv(ens, handle))
    write_payload(os.path.join(out, "reports.json"), cfg, {
        "moments": moments.to_json(),
        "characteristic": [c.to_json() for c in char],
    })
    print(f"ensemble: {cfg.m_samples} samples to T={cfg.T}; moment envelope "
          f"violations {moments.violations_bounded}+{moments.violations_exp}; "
          f"wrote {out}/ensemble.csv, {out}/reports.json")
    return 0


def cmd_verify(args) -> int:
    """One suite, or under ``all`` each suite through ``guarded``: a refusal (2)
    is listed as REFUSED and the rest run; a numerical abort (3) ends the run."""
    source = args.config if args.config else reference_scenario()
    cfg = load_config(source, seed_override=args.seed, out_override=args.out)
    kwargs = {"allow_flagged": args.allow_flagged}
    if args.draws is not None:
        kwargs["draws"] = args.draws
    every = args.suite == "all"

    def one(name):
        outcome = run_suite(name, cfg, **kwargs)
        write_payload(os.path.join(_out_dir(cfg), f"verify_{name}.json"), cfg,
                      outcome.to_json())
        print(outcome.table() + ("\n" if every else ""))
        return 0 if outcome.passed else 1

    if not every:
        return one(args.suite)
    codes = {}
    for name in sorted(SUITES):
        codes[name] = guarded(one, name)
        if codes[name] == 3:
            return 3
    width = max(map(len, codes))
    for name, code in codes.items():
        print(f"{name:<{width}}  {('PASS', 'FAIL', 'REFUSED')[code]}")
    return max(codes.values())


def cmd_hypotheses(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    report = check_hypotheses(cfg.spec, 0.5, cfg.grid)
    out = _out_dir(cfg)
    write_payload(os.path.join(out, "hypotheses.json"), cfg,
                  {"hypotheses": report.to_json()})
    flag = "FLAGGED" if report.flagged else "stable"
    print(f"hypotheses: form-factor norms {flag}; wrote {out}/hypotheses.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmdyn",
        description="Newton-Maxwell dynamics: simulation, ensemble "
                    "transport, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="scenario JSON file")
        p.add_argument("--out", default=None,
                       help="output directory (default: config's, else '.')")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's ensemble seed")
        p.add_argument("--threads", type=int, default=None,
                       help="ignored: ensembles run serially (kept so existing "
                            "command lines still parse)")
        p.add_argument("--allow-flagged", action="store_true",
                       help="run even if the hypothesis check flags the grid")

    p = sub.add_parser("simulate", help="propagate one initial point")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="push a sampled measure through the flow")
    common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("verify", help="run a named verification suite, or all")
    p.add_argument("suite", choices=["all", *sorted(SUITES)])
    p.add_argument("config", nargs="?", default=None,
                   help="scenario JSON file (default: built-in reference)")
    p.add_argument("--draws", type=int, default=None,
                   help="random draws for sampling-based suites")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hypotheses", help="form-factor integrability report")
    common(p)
    p.set_defaults(func=cmd_hypotheses)
    return parser


# each refusal and numerical abort: error types, stderr prefix, exit code
_FAILURES = ((ConfigError, "config error", 2),
             (FlaggedHypothesesError, "hypothesis flag", 2),
             ((NumericalBlowupError, EnsemblePropagationError), "numerical abort", 3))


def guarded(run, *args) -> int:
    """run(*args)'s exit code; a refusal or numerical abort prints one stderr
    line under its prefix and gives its documented code instead."""
    try:
        return run(*args)
    except Exception as err:
        for kind, prefix, code in _FAILURES:
            if isinstance(err, kind):
                print(f"{prefix}: {err}", file=sys.stderr)
                return code
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
