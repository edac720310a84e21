"""Verification suites: the paper's identities and bounds, checked numerically.

Each suite in ``SUITES`` takes a ScenarioConfig and returns a VerifyOutcome,
named checks (measured value, relation, limit) that pass iff each passes.
A suite refuses a scenario it cannot check with ConfigError, and flagged
form factors with FlaggedHypothesesError unless allow_flagged.  The sampled
suites draw their states in a fixed order from the scenario's seed and
evaluate consecutive draws in the ensemble's blocks (``measures._blocks``),
so their output does not depend on the block size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, ScenarioConfig
from .geometry import KGrid, integrate_k
from .integrator import (SCHEME_ORDER, SCHEMES, _step_count, divergence_report,
                         refuse_flagged, stepper)
from .interaction import (_beta, _bracket, _grad_vector_potentials, _hypothesis_norms, _phases,
                          _vector_potentials, characteristic_density_m, compile_model,
                          nonlinearity_F, potential_gradient_bound, vartheta)
from .measures import (MeasureSpec, _blocks, _characteristic_checks, _characteristic_terms,
                       _moment_summary, _moment_terms, _pushed_blocks, _streamed,
                       characteristic_residual, push_forward, sample_measure)
from .state import (FieldState, ParticleState, PhaseSpacePoint, _density_norm,
                    _field_density, _field_norm, phase_norm, real_inner)

__all__ = ["SUITES", "VerifyOutcome", "run_suite"]


@dataclass(frozen=True, eq=False)
class VerifyOutcome:
    """Named checks of one suite: measured value vs limit, pass iff all pass."""

    suite: str
    checks: tuple = field(default_factory=tuple)
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c["passed"] for c in self.checks))

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


def _stacked(points) -> PhaseSpacePoint:
    """Points of one layout as one (B, D) stack."""
    return points[0]._like(np.stack([w.data for w in points]))


def verify_lemma_bounds(cfg: ScenarioConfig, draws: int = 1000, **_) -> VerifyOutcome:
    """Pointwise coupling-function bounds over random phase-space draws.

    All inequalities use the grid-exact Cauchy-Schwarz constants (hypothesis
    norms); a violation would mean the implementation disagrees with its own
    constants, so the pass criterion is an exact zero count.  Each draw is
    two states u, v and a particle i, drawn in a fixed order; consecutive
    draws are evaluated together, in the blocks ``measures._blocks`` makes
    of rows of one state's bytes, as a (B, D) stack of u and one of v.  One
    bracket per stack gives A and grad A of every particle, from which each
    draw takes its particle i; F and the field norms run on the stacks row
    by row.  draws must be at least 1.
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
    model = compile_model(spec, pot, grid)
    rng = np.random.default_rng(cfg.seed)

    def draw():
        u = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        v = _random_state(rng, grid, n, rng.uniform(0.05, 3.0))
        return u, v, int(rng.integers(0, n))

    def bracket(w):
        return _bracket(_beta(model, w.alpha), model.wpref * _phases(model, w.q))

    def norm(x):
        return np.linalg.norm(x, axis=-1)

    v_field = v_grad = v_lip = v_vf = 0
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    first = draw()
    drawn = itertools.chain([first], (draw() for _ in range(draws - 1)))
    for _, block in _blocks(drawn, first[0].data.nbytes):
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

        f = nonlinearity_F(u, spec, pot, grid)
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
            for end in stepper(u0, cfg.T, cfg.dt / div, cfg.spec, cfg.pot, scheme):
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
                                cfg.pot, scheme=cfg.scheme, allow_flagged=allow_flagged)
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
    args = (cfg.spec, cfg.pot)
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
                               allow_flagged=allow_flagged)
            chk = characteristic_residual(ens, ys[0], cfg.T, 0.0, 0.0, *args)
            res.append(chk.residual)
        checks.append(_check("point-mass decay ratio (4dt/2dt)",
                             res[0] / res[1], 3.4, ">="))
        checks.append(_check("point-mass decay ratio (2dt/dt)",
                             res[1] / res[2], 3.4, ">="))

    ens0 = sample_measure(measure, cfg.m_samples, cfg.seed)

    def residuals(dt):
        (terms,) = _streamed(_pushed_blocks(ens0, cfg.T, dt, *args, cfg.scheme,
                                            cfg.snapshot_every, allow_flagged),
                             lambda b: _characteristic_terms(b, ys, cfg.T, 0.0, 0.0, *args))
        return _characteristic_checks(*terms, cfg.T, 0.0, 0.0)

    fine_checks, coarse_checks = residuals(cfg.dt), residuals(2 * cfg.dt)
    delta_f = cfg.snapshot_every * cfg.dt
    delta_c = 2 * delta_f
    for j, (f, c) in enumerate(zip(fine_checks, coarse_checks)):
        budget = 3 * f.mc_stderr + 1.5 * (c.residual / delta_c**2) * delta_f**2
        checks.append(_check(f"ensemble residual (direction {j})",
                             f.residual, budget))
    return VerifyOutcome("characteristic", tuple(checks))


def verify_mvfi_identity(cfg: ScenarioConfig, draws: int = 100, **_) -> VerifyOutcome:
    """Pairing identity between the characteristic density and the
    drift-removed vector field, the two sides computed independently.

    Each draw is two states u, xi and a time s, drawn in a fixed order;
    consecutive draws are evaluated together, in the blocks
    ``measures._blocks`` makes of rows of one state's bytes: vartheta runs
    on the stack of u with one time per row, and real_inner pairs its rows
    with those of the stacked xi~.  m(s, xi) stays one call per draw, as the
    identity's independent route.  draws must be at least 1.
    """
    grid, spec, pot = cfg.grid, cfg.spec, cfg.pot
    n = spec.masses.size
    rng = np.random.default_rng(cfg.seed)

    def draw():
        u = _random_state(rng, grid, n, rng.uniform(0.1, 2.0))
        xi = _random_state(rng, grid, n, rng.uniform(0.1, 2.0))
        return u, xi, rng.uniform(-2.0, 2.0)

    worst = 0.0
    if draws < 1:
        raise ConfigError(f"draws must be at least 1, got {draws}")
    first = draw()
    drawn = itertools.chain([first], (draw() for _ in range(draws - 1)))
    for _, block in _blocks(drawn, first[0].data.nbytes):
        points_u, points_xi, times = zip(*block)
        u, xi = _stacked(points_u), _stacked(points_xi)
        theta = vartheta(np.array(times), u, spec, pot, grid)
        pairing = xi._like(np.empty_like(xi.data))
        pairing.p[...] = -xi.q / np.pi
        pairing.q[...] = xi.p / np.pi
        pairing.alpha[...] = xi.alpha / (np.sqrt(2.0) * np.pi)
        rhs = -2.0 * np.pi * real_inner(theta, pairing, 0.0)
        # float_power rounds as Python's ** on one float does (see _density_norm)
        scale = ((1.0 + np.float_power(phase_norm(u, 0.0), 2))
                 * (1.0 + phase_norm(xi, 0.0)))
        for b, (s, u_b, xi_b) in enumerate(zip(times, points_u, points_xi)):
            m = characteristic_density_m(s, xi_b, u_b, spec, pot, grid)
            worst = max(worst, abs(m - rhs[b]) / scale[b])
    return VerifyOutcome("mvfi-identity", (
        _check(f"max scaled residual ({draws} draws)", worst, 1e-10),
    ))


def verify_moments(cfg: ScenarioConfig, allow_flagged: bool = False,
                   **_) -> VerifyOutcome:
    """Fourth-moment propagation against conserved-energy certificates."""
    measure = cfg.require_measure()
    (terms,) = _streamed(_pushed_blocks(sample_measure(measure, cfg.m_samples, cfg.seed), cfg.T,
                                        cfg.dt, cfg.spec, cfg.pot, cfg.scheme,
                                        cfg.snapshot_every, allow_flagged), _moment_terms)
    rep = _moment_summary(cfg.grid, cfg.spec, cfg.pot, *terms)
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
