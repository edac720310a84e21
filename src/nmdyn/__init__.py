"""Newton-Maxwell dynamics of extended charges on a Fourier grid.

Layers, bottom up: ``geometry`` (k-space grid, polarization frames,
quadrature), ``state`` (phase-space points, norms, the free flow),
``interaction`` (form factors, potentials, the coupling terms and their
proved bounds), ``integrator`` (splitting schemes, trajectories,
divergence tracking), ``measures`` (sample ensembles, push-forward,
characteristic-equation and moment checks), ``cli`` (scenario configs and
verification suites).
"""

from .geometry import (
    KGrid,
    PolarizationBasis,
    build_kgrid,
    integrate_k,
    polarization_basis,
    transverse_frame,
)
from .state import (
    FieldState,
    ParticleSpec,
    ParticleState,
    PhaseSpacePoint,
    field_norm,
    free_flow,
    phase_norm,
    point_from_json,
    point_to_json,
    real_inner,
)
from .interaction import (
    FormFactor,
    HypothesisReport,
    PotentialSpec,
    characteristic_density_m,
    check_hypotheses,
    default_basis,
    hamiltonian,
    nonlinearity_F,
    nonlinearity_G,
    potential,
    potential_gradient_bound,
    potential_value_bound,
    vartheta,
)
from .integrator import (
    DivergenceReport,
    FlaggedHypothesesError,
    NumericalBlowupError,
    Trajectory,
    divergence_report,
    evolve,
    rk4_interaction_step,
    strang_step,
    trajectory_to_csv,
)
from .measures import (
    CharacteristicCheck,
    Ensemble,
    EnsemblePropagationError,
    MeasureSpec,
    MomentReport,
    characteristic_function,
    characteristic_residual,
    ensemble_to_csv,
    moment_report,
    push_forward,
    sample_measure,
)

# ``cli`` is imported on first use, so ``python -m nmdyn.cli`` does not find
# it already in sys.modules when it starts running it as __main__.
_CLI_NAMES = ("CONFIG_SCHEMA", "FORMAT_VERSION", "ConfigError", "ScenarioConfig",
              "VerifyOutcome", "load_config", "reference_scenario", "run_suite")

# every name imported above, as a star import took them before, plus cli's
__all__ = [name for name in dir() if not name.startswith("_")] + list(_CLI_NAMES)


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
