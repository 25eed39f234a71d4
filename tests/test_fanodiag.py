"""Tests of the cavity-continuum diagonalization coefficients.

Oracles: the Lorentzian normalization integral (2/pi) arctan(2W/kappa),
hand substitution at the cavity frequency, and the closed-form spectral
function evaluated through the independent pole/residue path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fanomode.errors import ParameterError
from fanomode.fanodiag import (
    fano_alpha,
    fano_lambda,
    verify_lambda_identity,
)
from fanomode.spectral import (
    FanoModel,
    ReducedForm,
    evaluate_J,
    evaluate_reduced_J,
    memory_kernel,
    pole_residue_from_model,
)

from conftest import random_lindblad_model

TWO_PI = 2.0 * math.pi


def _eta_one_model(rng) -> FanoModel:
    model = random_lindblad_model(rng, resonant=False)
    return FanoModel(
        gamma=max(model.gamma, 0.01), kappa=1.0, g_abs=model.g_abs, eta=1.0,
        omega_A=model.omega_A, omega_C=model.omega_C, phi=model.phi,
        theta_A=model.theta_A, theta_C=model.theta_C,
    )


class TestAlpha:
    def test_peak_weight(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        assert abs(fano_alpha(model, model.omega_C)) ** 2 == pytest.approx(
            2.0 / (math.pi * model.kappa)
        )

    def test_asymptotic_falloff(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        omega = model.omega_C + 1e4
        expected = math.sqrt(model.kappa / TWO_PI) / 1e4
        assert abs(fano_alpha(model, omega)) == pytest.approx(expected, rel=1e-7)

    def test_normalization_quadrature(self):
        # trapezoid integral of the Lorentzian weight vs its closed form;
        # at half-width W the tail defect is 1 - (2/pi) arctan(2W/kappa)
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, omega_C=3.0)
        for half_width in (200.0, 400.0):
            grid = np.linspace(
                model.omega_C - half_width, model.omega_C + half_width, 400001
            )
            integral = np.trapezoid(np.abs(fano_alpha(model, grid)) ** 2, grid)
            analytic = (2.0 / math.pi) * math.atan(2.0 * half_width / model.kappa)
            assert integral == pytest.approx(analytic, abs=1e-10)
        assert abs(integral - 1.0) < 1e-3  # completeness, at the 400/kappa window


class TestLambda:
    def test_peak_value_matches_q(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        two_pi_lambda_sq = TWO_PI * abs(fano_lambda(model, model.omega_C)) ** 2
        assert two_pi_lambda_sq == pytest.approx(4.0 * model.g_abs**2 / model.kappa)
        assert two_pi_lambda_sq == pytest.approx(model.gamma * abs(model.q) ** 2)

    def test_no_coupling_antiresonance_form(self):
        # g = 0: 2pi|Lambda|^2 = gamma x^2 / (x^2 + kappa^2/4)
        model = FanoModel(gamma=0.4, kappa=1.0, g_abs=0.0, eta=1.0)
        x = np.linspace(-10, 10, 101)
        got = TWO_PI * np.abs(fano_lambda(model, model.omega_C + x)) ** 2
        want = model.gamma * x**2 / (x**2 + model.kappa**2 / 4.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-16)

    def test_gauge_invariance(self, rng):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0,
                          phi=0.7, theta_A=0.3, theta_C=1.9)
        omegas = rng.uniform(-20, 20, size=50)
        base_lambda = np.abs(fano_lambda(model, omegas, psi=0.0))
        base_alpha = np.abs(fano_alpha(model, omegas, psi=0.0))
        for psi in rng.uniform(-10, 10, size=5):
            np.testing.assert_allclose(
                np.abs(fano_lambda(model, omegas, psi=float(psi))),
                base_lambda, rtol=1e-12,
            )
            np.testing.assert_allclose(
                np.abs(fano_alpha(model, omegas, psi=float(psi))),
                base_alpha, rtol=1e-12,
            )

    def test_zero_at_antiresonance(self):
        # real q > 0 with aligned phases: Lambda vanishes at omega_C - kappa q/2
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        q = abs(model.q)
        zero = model.omega_C - model.kappa * q / 2.0
        assert abs(fano_lambda(model, zero)) < 1e-16


class TestIdentity:
    def test_reference_model(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        grid = np.linspace(model.omega_C - 20, model.omega_C + 20, 4001)
        assert verify_lambda_identity(model, grid)[-1] < 1e-12

    def test_complex_q(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0,
                          phi=math.pi / 3.0)
        grid = np.linspace(-20, 20, 4001)
        assert verify_lambda_identity(model, grid)[-1] < 1e-12

    def test_random_models(self, rng):
        for _ in range(10):
            model = _eta_one_model(rng)
            grid = np.linspace(model.omega_C - 20, model.omega_C + 20, 4001)
            assert verify_lambda_identity(model, grid)[-1] < 1e-12

    def test_gamma_zero_pure_cavity_channel(self):
        # no direct decay channel: Lambda carries only the cavity-mediated
        # Lorentzian and the identity still holds (with J0 = 0)
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=0.5, eta=1.0)
        grid = np.linspace(-20, 20, 2001)
        assert verify_lambda_identity(model, grid)[-1] < 1e-12
        x = grid - model.omega_C
        got = TWO_PI * np.abs(fano_lambda(model, grid)) ** 2
        want = model.g_abs**2 * model.kappa / (x**2 + model.kappa**2 / 4.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_eta_not_one_rejected(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.999)
        with pytest.raises(ParameterError, match="only for eta = 1"):
            verify_lambda_identity(model, np.linspace(-5, 5, 11))


class TestCoefficients:
    def test_identity_consistent_with_direct_J(self):
        model = FanoModel(gamma=0.3, kappa=1.0, g_abs=0.9, eta=1.0, phi=1.1)
        spec = pole_residue_from_model(model)
        grid = np.linspace(-15, 15, 501)
        lam_sq = TWO_PI * np.abs(fano_lambda(model, grid)) ** 2
        np.testing.assert_allclose(
            lam_sq, TWO_PI * evaluate_J(spec, grid), rtol=0, atol=1e-12
        )


_MODEL = FanoModel(gamma=0.3, kappa=1.0, g_abs=0.9, eta=1.0, phi=1.1, theta_C=0.4)

# Every public evaluator that takes a frequency, detuning or delay, with the
# Python type it returns for a scalar argument.
SCALAR_RETURNING = {
    "evaluate_J": (lambda x: evaluate_J(pole_residue_from_model(_MODEL), x), float),
    "evaluate_reduced_J": (
        lambda x: evaluate_reduced_J(
            ReducedForm(_MODEL.gamma, _MODEL.q, _MODEL.eta), x
        ),
        float,
    ),
    "memory_kernel.regular": (
        lambda x: memory_kernel(pole_residue_from_model(_MODEL), x).regular, complex
    ),
    "fano_alpha": (lambda x: fano_alpha(_MODEL, x, 0.9), complex),
    "fano_lambda": (lambda x: fano_lambda(_MODEL, x, 0.9), complex),
}


class TestScalarReturn:
    @pytest.mark.parametrize("name", sorted(SCALAR_RETURNING))
    @pytest.mark.parametrize(
        "make", [float, int, np.float64, np.asarray],
        ids=["python_float", "python_int", "numpy_scalar", "0d_array"],
    )
    def test_scalar_gives_python_number(self, name, make):
        fn, kind = SCALAR_RETURNING[name]
        got = fn(make(2))
        assert type(got) is kind
        assert got == pytest.approx(fn(np.array([2.0]))[0], rel=1e-15)

    @pytest.mark.parametrize("name", sorted(SCALAR_RETURNING))
    @pytest.mark.parametrize("shape", [(1,), (5,)])
    def test_array_gives_array_of_same_shape(self, name, shape):
        fn, _ = SCALAR_RETURNING[name]
        got = fn(np.linspace(0.5, 3.0, shape[0]))
        assert isinstance(got, np.ndarray)
        assert got.shape == shape
