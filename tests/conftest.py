"""Shared fixtures and random-state factories for the test suite."""

import json

import numpy as np
import pytest

from nmdyn.cli import _json_chunks
from nmdyn.geometry import PolarizationBasis, build_kgrid
from nmdyn.interaction import (
    PotentialSpec,
    _beta,
    _bracket,
    _grad_vector_potentials,
    _phases,
    _vector_potentials,
    compile_model,
)
from nmdyn.state import FieldState, ParticleState, PhaseSpacePoint

# one instance: models are memoized by identity, so calls share their model
NO_POTENTIAL = PotentialSpec.zero()


def random_field(rng, grid, scale=1.0, decay=True):
    """Random complex field; decay=True applies a gaussian envelope in |k|."""
    shape = (grid.d - 1, grid.node_count)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if decay:
        vals = vals * np.exp(-(grid.absk**2))[None, :]
    return FieldState(grid, scale * vals)


def random_point(rng, grid, n=2, scale=1.0, decay=True):
    d = grid.d
    return PhaseSpacePoint(
        ParticleState(scale * rng.standard_normal((n, d)),
                      scale * rng.standard_normal((n, d))),
        random_field(rng, grid, scale=scale, decay=decay),
    )


def rotate_frame(rng, grid, basis, alpha):
    """Random per-node O(d-1) change of polarization frame, drawn on the half
    grid H and copied to the mirror node, so the rotated frame stays the
    same at k and -k, as the kernels require.

    Returns the rotated basis and the field components expressed in it; all
    physical outputs must be unchanged.
    """
    dm = grid.d - 1
    q_half = np.linalg.qr(rng.normal(size=(grid.node_count // 2, dm, dm)))[0]
    q_mat = np.concatenate([q_half, q_half[::-1]])
    vectors = np.einsum("jlv,jlm->jmv", basis.vectors, q_mat)
    rotated = np.einsum("jlm,lj->mj", q_mat, alpha)
    return PolarizationBasis(grid, vectors), rotated, q_mat


def json_form(result):
    """``result`` as the CLI writes it into an output file, read back."""
    return json.loads("".join(_json_chunks(result)))


def coupling(q, alpha, spec, grid, basis=None):
    """A_i and grad A_i (row nu: grad A_i^nu) of every particle at positions q
    (n, d) in the field alpha, through the kernels' own bracket."""
    model = compile_model(spec, NO_POTENTIAL, grid, basis)
    c = _bracket(_beta(model, alpha), model.wpref * _phases(model, np.asarray(q, dtype=float)))
    return _vector_potentials(model, c), _grad_vector_potentials(model, c)


@pytest.fixture(scope="session")
def tiny_grid():
    return build_kgrid(3, 1.0, 2)


@pytest.fixture(scope="session")
def small_grid():
    return build_kgrid(3, 2.0, 6)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
