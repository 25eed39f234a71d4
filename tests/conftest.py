"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fanomode.spectral import FanoModel


def random_lindblad_model(rng: np.random.Generator, resonant: bool = True) -> FanoModel:
    """Random model inside the Lindblad-valid parameter box (kappa = 1)."""
    return FanoModel(
        gamma=float(rng.uniform(0.01, 1.0)),
        kappa=1.0,
        g_abs=float(rng.uniform(0.0, 2.0)),
        eta=float(rng.uniform(0.0, 1.0)),
        omega_A=0.0 if resonant else float(rng.uniform(-2.0, 2.0)),
        omega_C=0.0,
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
        theta_A=float(rng.uniform(0.0, 2.0 * np.pi)),
        theta_C=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def star_solution(res, omega_A: float, c1_0: complex, times: np.ndarray):
    """Reference for the comb oracle: dense eigh of the whole (N+1)-site star
    (atom coupled to every comb mode) in the omega_A rotating frame.  Returns
    c1(t) and the reservoir population."""
    n = res.n_modes
    ham = np.zeros((n + 1, n + 1))
    ham[0, 1:] = ham[1:, 0] = res.couplings
    ham[np.arange(1, n + 1), np.arange(1, n + 1)] = res.omegas - omega_A
    lam, vecs = np.linalg.eigh(ham)
    state = (np.exp(-1j * np.outer(times, lam)) * vecs[0]) @ vecs.T
    c1 = c1_0 * state[:, 0] * np.exp(-1j * omega_A * times)
    return c1, abs(c1_0) ** 2 * np.sum(np.abs(state[:, 1:]) ** 2, axis=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
