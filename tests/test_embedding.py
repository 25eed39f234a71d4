"""Embedding, Kossakowski matrix, and Lindblad-condition tests.

Oracles: the model's pole residue against the one read back from the
generator, an independent 2x2 determinant, and bisection against the
closed-form positivity threshold.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from fanomode.embedding import (
    EmbeddedQME,
    embed_from_model,
    is_lindblad,
    kossakowski,
    spectral_from_qme,
)
from fanomode.errors import ParameterError
from fanomode.spectral import FanoModel, pole_residue_from_model

from conftest import random_lindblad_model

TWO_PI = 2.0 * math.pi


def det2(matrix: np.ndarray) -> complex:
    """Independent 2x2 determinant."""
    return matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]


class TestEmbeddedQME:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.0, gamma=-0.1,
                        kappa=1.0, gamma_F=0.0)
        with pytest.raises(ParameterError):
            EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.0, gamma=0.1,
                        kappa=0.0, gamma_F=0.0)
        # kappa / 2 underflows to the pole width 0 (is_lindblad divided by it)
        with pytest.raises(ParameterError, match="underflow"):
            EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.0, gamma=0.1,
                        kappa=5e-324, gamma_F=0.0)


class TestEmbedFromModel:
    def test_eta_zero_independent_dissipators(self):
        qme = embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.0))
        assert qme.gamma_F == 0.0
        assert qme.nu == 0.0

    def test_eta_one_equal_phases(self):
        qme = embed_from_model(
            FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0,
                      theta_A=1.1, theta_C=1.1)
        )
        assert qme.gamma_F == pytest.approx(0.5)
        assert qme.gamma_F.imag == 0.0

    def test_roundtrip_against_residue_formula(self, rng):
        for _ in range(100):
            model = random_lindblad_model(rng, resonant=False)
            direct = pole_residue_from_model(model)
            via_qme = spectral_from_qme(embed_from_model(model))
            scale = max(abs(direct.r1), 1e-30)
            assert abs(via_qme.r1 - direct.r1) < 1e-12 * scale
            assert via_qme.J0 == pytest.approx(direct.J0, rel=1e-14, abs=0.0)
            assert via_qme.z1 == direct.z1


class TestKossakowski:
    def test_diagonal_for_eta_zero(self):
        matrix = kossakowski(
            embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.0))
        )
        assert matrix.shape == (2, 2) and matrix.dtype == complex
        assert matrix[0, 1] == 0.0 and matrix[1, 0] == 0.0
        assert matrix[0, 0] == 0.25 and matrix[1, 1] == 1.0

    def test_det_identity_random_models(self, rng):
        # det Gamma = gamma kappa (1 - eta); checked against an independent
        # 2x2 determinant of the assembled matrix
        for _ in range(100):
            model = random_lindblad_model(rng, resonant=False)
            qme = embed_from_model(model)
            matrix = kossakowski(qme)
            expected = model.gamma * model.kappa * (1.0 - model.eta)
            scale = max(abs(expected), model.gamma * model.kappa, 1e-30)
            assert abs(is_lindblad(qme).det - expected) < 1e-12 * scale
            assert abs(det2(matrix).real - expected) < 1e-12 * scale
            assert abs(det2(matrix).imag) < 1e-14 * scale

    def test_boundary_and_invalid(self):
        report1 = is_lindblad(
            embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0))
        )
        assert abs(report1.det) < 1e-14 * report1.trace**2
        report15 = is_lindblad(
            embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.5))
        )
        assert report15.det < 0.0
        assert report15.det == pytest.approx(0.25 * (1.0 - 1.5), rel=1e-12)

    def test_hermitian_and_eigenvalues(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.8,
                          theta_A=0.4, theta_C=2.0)
        qme = embed_from_model(model)
        matrix = kossakowski(qme)
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=0)
        report = is_lindblad(qme)
        eigs = report.eigenvalues
        assert eigs[0] <= eigs[1]
        assert sum(eigs) == pytest.approx(report.trace)
        assert eigs[0] * eigs[1] == pytest.approx(report.det, abs=1e-14)


class TestIsLindblad:
    def test_valid_range(self):
        for eta in np.linspace(0.0, 1.0, 9):
            model = FanoModel(gamma=0.3, kappa=1.0, g_abs=0.7, eta=float(eta),
                              phi=0.5, theta_A=1.0, theta_C=0.2)
            report = is_lindblad(embed_from_model(model))
            assert report.passed, f"eta={eta} misclassified"
            assert report.scalar_condition >= -1e-13

    def test_boundary_eta_one(self):
        report = is_lindblad(
            embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0))
        )
        assert report.passed
        assert abs(report.det) < 1e-13
        assert report.eigenvalues[0] == pytest.approx(0.0, abs=1e-13)

    def test_eta_above_one_fails(self):
        report = is_lindblad(
            embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.2))
        )
        assert not report.passed
        assert report.eigenvalues[0] < 0.0
        assert report.det < 0.0

    def test_background_is_necessary(self):
        # gamma = 0 with a nonzero cross rate can never be positive
        qme = EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.3, gamma=0.0,
                          kappa=1.0, gamma_F=0.4)
        report = is_lindblad(qme)
        assert not report.passed
        assert report.scalar_condition < 0.0

    def test_scalar_condition_is_quarter_det(self, rng):
        for _ in range(20):
            model = random_lindblad_model(rng)
            report = is_lindblad(embed_from_model(model))
            assert report.scalar_condition == pytest.approx(
                report.det / 4.0, rel=1e-12, abs=1e-15
            )

    def test_repair_threshold_by_bisection(self):
        # fixed kappa and nu: the verdict flips exactly at
        # J0* = |nu|^2 / (pi (-Im z1)); located by bisection on J0
        kappa = 1.0
        nu = 0.3 + 0.1j
        threshold = abs(nu) ** 2 / (math.pi * kappa / 2.0)

        def passes(j0: float) -> bool:
            qme = EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.4,
                              gamma=TWO_PI * j0, kappa=kappa, gamma_F=2.0 * nu)
            return is_lindblad(qme).passed

        lo, hi = 0.0, 2.0 * threshold
        assert not passes(lo) and passes(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if passes(mid):
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - threshold) < 1e-10
        report = is_lindblad(
            EmbeddedQME(omega_A=0.0, omega_C=0.0, mu=0.4, gamma=1.0,
                        kappa=kappa, gamma_F=2.0 * nu)
        )
        assert report.j0_repair_threshold == pytest.approx(threshold, rel=1e-14)
