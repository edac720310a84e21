"""Newton-Maxwell dynamics of extended charges on a Fourier grid.

Layers, bottom up: ``geometry`` (k-space grid, polarization frames,
quadrature), ``state`` (phase-space points, norms, the free flow),
``interaction`` (form factors, potentials, the coupling terms and their
proved bounds), ``integrator`` (splitting schemes, trajectories,
divergence tracking), ``measures`` (sample ensembles, push-forward,
characteristic-equation and moment checks), ``config`` (the scenario
schema and its checker), ``suites`` (the verification suites) and, on top,
``cli`` (the subcommands, which ``import nmdyn`` leaves unimported).
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
from .config import (
    CONFIG_SCHEMA,
    FORMAT_VERSION,
    ConfigError,
    ScenarioConfig,
    load_config,
    reference_scenario,
)
from .suites import VerifyOutcome, run_suite

# every name imported above, as a star import took them before
__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
