"""Spectral-function, pole/residue, and memory-kernel tests.

Expected values are frozen from independent oracles: the explicit closed
form of 2piJ, hand substitution into the residue expression, and quadrature
self-convergence studies (see the frozen tolerances on the kernel tests).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fanomode.embedding import EmbeddedQME
from fanomode.errors import ParameterError
from fanomode.spectral import (
    FanoModel,
    PoleSpectral,
    ReducedForm,
    _kernel_quadrature,
    evaluate_J,
    evaluate_reduced_J,
    kernel_by_quadrature,
    memory_kernel,
    pole_residue_from_model,
)

from conftest import kernel_quadrature_direct, random_lindblad_model

TWO_PI = 2.0 * math.pi


def closed_form_two_pi_J(model: FanoModel, omega):
    """Independent oracle: the explicit closed form of 2 pi J(omega)."""
    x = np.asarray(omega, dtype=float) - model.omega_C
    cross = math.sqrt(model.eta * model.gamma * model.kappa)
    numerator = (
        8.0 * model.g_abs * cross * x * math.cos(model.delta_phi)
        + model.kappa * (4.0 * model.g_abs**2 - model.eta * model.gamma * model.kappa)
    )
    return model.gamma + numerator / (4.0 * x * x + model.kappa**2)


class TestFanoModel:
    def test_validation(self):
        with pytest.raises(ParameterError):
            FanoModel(gamma=-0.1, kappa=1.0, g_abs=0.5, eta=1.0)
        with pytest.raises(ParameterError):
            FanoModel(gamma=0.1, kappa=0.0, g_abs=0.5, eta=1.0)
        with pytest.raises(ParameterError):
            FanoModel(gamma=0.1, kappa=1.0, g_abs=-0.5, eta=1.0)
        with pytest.raises(ParameterError):
            FanoModel(gamma=0.1, kappa=1.0, g_abs=0.5, eta=-0.2)
        with pytest.raises(ParameterError):
            FanoModel(gamma=float("nan"), kappa=1.0, g_abs=0.5, eta=1.0)

    def test_eta_above_one_constructible(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.2)
        assert model.eta == 1.2

    def test_derived_quantities(self):
        model = FanoModel(
            gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0,
            phi=0.3, theta_A=0.1, theta_C=0.2,
        )
        assert model.g == pytest.approx(0.5 * cmath.exp(0.3j))
        assert model.delta_phi == pytest.approx(0.3 - 0.1 + 0.2)
        # |gamma_F| = sqrt(eta gamma kappa); phase theta_A - theta_C
        assert abs(model.gamma_F) == pytest.approx(0.5)
        assert cmath.phase(model.gamma_F) == pytest.approx(-0.1)
        assert model.q == pytest.approx(2.0 * cmath.exp(1j * model.delta_phi))

    def test_gamma_F_real_for_equal_phases(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0,
                          theta_A=0.7, theta_C=0.7)
        assert model.gamma_F == pytest.approx(math.sqrt(0.25))
        assert model.gamma_F.imag == 0.0

    def test_q_undefined_for_gamma_zero(self):
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=0.5, eta=1.0)
        with pytest.raises(ParameterError):
            model.q


# A valid instance of every record, as keyword arguments.
RECORDS = {
    FanoModel: {"gamma": 0.25, "kappa": 1.0, "g_abs": 0.5, "eta": 1.0},
    PoleSpectral: {"J0": 0.04, "z1": -0.5j, "r1": 0.01 + 0.02j},
    ReducedForm: {"gamma": 1.0, "q": 2.0 + 0j, "eta": 1.0},
    EmbeddedQME: {"omega_A": 0.0, "omega_C": 0.0, "mu": 0.5 + 0j, "gamma": 0.25,
                  "kappa": 1.0, "gamma_F": 0.5 + 0j},
}


class TestRecordBounds:
    @pytest.mark.parametrize("record, name, relation, bound", [
        (record, name, relation, bound)
        for record in RECORDS for name, (relation, bound) in record.BOUNDS.items()
    ])
    def test_declared_bound(self, record, name, relation, bound):
        def build(value):
            return record(**{**RECORDS[record], name: value})

        edge, past = float(bound), math.nextafter(float(bound), -math.inf)
        if relation == ">=":
            assert getattr(build(edge), name) == edge
        for value in [past] + ([edge] if relation == ">" else []):
            with pytest.raises(ParameterError) as refused:
                build(value)
            assert str(refused.value) == f"{name} must be {relation} {bound}, got {value!r}"
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            build(math.nan)

    @pytest.mark.parametrize("record, name", [
        (record, field.name) for record in RECORDS for field in dataclasses.fields(record)
    ])
    def test_every_field_must_be_finite(self, record, name):
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            record(**{**RECORDS[record], name: math.inf})


class TestPoleResidue:
    def test_gamma_zero_kills_interference(self):
        # gamma = 0 removes every eta- and phase-dependent term: r1 = i|g|^2/2pi
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=0.5, eta=0.7, omega_C=1.5)
        spec = pole_residue_from_model(model)
        assert spec.J0 == 0.0
        assert spec.z1 == 1.5 - 0.5j
        assert spec.r1 == pytest.approx(0.25j / TWO_PI)

    def test_substitution_example(self):
        # hand substitution: |g|^2 - eta gamma kappa/4 = 0.1875,
        # |g| sqrt(eta gamma kappa) cos(dphi) = 0.25
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, omega_C=5.0)
        spec = pole_residue_from_model(model)
        assert spec.J0 == pytest.approx(1.0 / (8.0 * math.pi))
        assert spec.z1 == 5.0 - 0.5j
        assert spec.r1 == pytest.approx((0.25 + 0.1875j) / TWO_PI, rel=1e-15)

    def test_no_coupling_pure_imaginary_residue(self):
        model = FanoModel(gamma=1.0, kappa=1.0, g_abs=0.0, eta=1.0)
        spec = pole_residue_from_model(model)
        assert spec.r1 == pytest.approx((1j / TWO_PI) * (-0.25))
        assert spec.r1.real == 0.0

    def test_pole_spectral_validation(self):
        with pytest.raises(ParameterError):
            PoleSpectral(J0=-0.1, z1=-0.5j, r1=0.0)
        with pytest.raises(ParameterError):
            PoleSpectral(J0=0.1, z1=0.5j, r1=0.0)  # upper half plane
        with pytest.raises(ParameterError):
            PoleSpectral(J0=0.1, z1=complex("nan"), r1=0.0)


class TestEvaluateJ:
    def test_flat_for_decoupled_model(self):
        model = FanoModel(gamma=0.3, kappa=1.0, g_abs=0.0, eta=0.0)
        spec = pole_residue_from_model(model)
        for omega in (-7.0, 0.0, 0.31, 12.0):
            assert evaluate_J(spec, omega) == pytest.approx(0.3 / TWO_PI, rel=1e-15)

    def test_matches_closed_form(self, rng):
        for _ in range(50):
            model = random_lindblad_model(rng, resonant=False)
            spec = pole_residue_from_model(model)
            omegas = model.omega_C + rng.uniform(-30, 30, size=200)
            got = TWO_PI * evaluate_J(spec, omegas)
            want = closed_form_two_pi_J(model, omegas)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_antiresonance_zero(self):
        # eta = 1, |q| = 2, dphi = 0: J vanishes at epsilon = -2
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        spec = pole_residue_from_model(model)
        omega_zero = model.omega_C - model.kappa * 1.0  # epsilon = -2
        assert abs(TWO_PI * evaluate_J(spec, omega_zero)) < 1e-15

    def test_purcell_peak(self):
        # eta = 0, |q| = 2 at resonance: 2piJ = gamma (1 + |q|^2) = 5 gamma
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.0)
        spec = pole_residue_from_model(model)
        assert TWO_PI * evaluate_J(spec, model.omega_C) == pytest.approx(
            5.0 * model.gamma, rel=1e-14
        )

    def test_nonnegative_on_dense_grid(self, rng):
        for _ in range(30):
            model = random_lindblad_model(rng, resonant=False)
            spec = pole_residue_from_model(model)
            omegas = np.linspace(model.omega_C - 50, model.omega_C + 50, 4001)
            floor = -1e-13 * (model.gamma + 4 * model.g_abs**2)
            assert np.min(evaluate_J(spec, omegas)) >= floor

    def test_reality_of_pole_pair(self, rng):
        # condition (c): r1/(w - z1) + r1*/(w - z1*) is real on the real axis
        for _ in range(20):
            z1 = complex(rng.normal(), -abs(rng.normal()) - 0.1)
            r1 = complex(rng.normal(), rng.normal())
            omegas = rng.normal(scale=10.0, size=100)
            f = r1 / (omegas - z1) + np.conj(r1) / (omegas - np.conj(z1))
            assert np.max(np.abs(f.imag)) < 1e-14

    def test_holds_two_grid_sized_arrays(self):
        # the result and the denominator; with out-of-place arithmetic it
        # held 2.40 MB at N = 100 001, three grid-sized arrays
        spec = pole_residue_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5,
                                                 eta=1.0))
        grid = np.linspace(-40.0, 40.0, 100001)
        evaluate_J(spec, grid[:10])  # warms numpy up
        tracemalloc.start()
        try:
            evaluate_J(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * grid.nbytes + 65536


class TestReducedForm:
    def test_validation(self):
        with pytest.raises(ParameterError, match="gamma"):
            ReducedForm(gamma=-1.0, q=0j, eta=0.0)
        with pytest.raises(ParameterError, match="eta"):
            ReducedForm(gamma=1.0, q=0j, eta=-1.0)

    def test_symmetric_antiresonance_dip(self):
        rf = ReducedForm(gamma=0.25, q=0.0, eta=1.0)
        assert evaluate_reduced_J(rf, 0.0) == 0.0
        assert TWO_PI * evaluate_reduced_J(rf, 1e6) == pytest.approx(0.25, rel=1e-10)

    def test_no_cavity_influence(self):
        rf = ReducedForm(gamma=0.25, q=0.0, eta=0.0)
        for eps in (-3.0, 0.0, 2.5):
            assert TWO_PI * evaluate_reduced_J(rf, eps) == pytest.approx(0.25)

    def test_strong_interference_peak(self):
        rf = ReducedForm(gamma=0.25, q=2.0, eta=1.0)
        assert TWO_PI * evaluate_reduced_J(rf, 0.0) == pytest.approx(4 * 0.25)

    def test_consistency_with_full_form(self, rng):
        for _ in range(50):
            model = random_lindblad_model(rng, resonant=False)
            if model.gamma == 0.0:
                continue
            spec = pole_residue_from_model(model)
            rf = ReducedForm(model.gamma, model.q, model.eta)
            eps = rng.uniform(-20, 20, size=100)
            omegas = model.omega_C + model.kappa * eps / 2.0
            np.testing.assert_allclose(
                evaluate_reduced_J(rf, eps),
                evaluate_J(spec, omegas),
                rtol=1e-12, atol=1e-18,
            )

    def test_minimizer_at_minus_q(self):
        # golden-section search as the independent minimization oracle
        rf = ReducedForm(gamma=0.25, q=1.7, eta=1.0)
        lo, hi = -10.0, 10.0
        ratio = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        fa, fb = evaluate_reduced_J(rf, a), evaluate_reduced_J(rf, b)
        for _ in range(200):
            if fa < fb:
                hi, b, fb = b, a, fa
                a = hi - ratio * (hi - lo)
                fa = evaluate_reduced_J(rf, a)
            else:
                lo, a, fa = a, b, fb
                b = lo + ratio * (hi - lo)
                fb = evaluate_reduced_J(rf, b)
        minimizer = 0.5 * (lo + hi)
        assert abs(minimizer + 1.7) < 1e-8
        assert evaluate_reduced_J(rf, minimizer) < 1e-10


class TestMemoryKernel:
    def test_flat_model_has_no_regular_part(self):
        spec = pole_residue_from_model(
            FanoModel(gamma=0.3, kappa=1.0, g_abs=0.0, eta=0.0)
        )
        kernel = memory_kernel(spec, 2.0)
        assert kernel.delta_weight == pytest.approx(0.3)
        assert kernel.regular == 0.0

    def test_initial_value_substitution(self):
        # -2 pi i r1 at eta = 1, dphi = 0: |g|^2 - gamma kappa/4 - i|g|sqrt(gamma kappa)
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        spec = pole_residue_from_model(model)
        kernel = memory_kernel(spec, 0.0)
        assert kernel.regular == pytest.approx(0.1875 - 0.25j, rel=1e-15)

    def test_exponential_envelope(self):
        model = FanoModel(gamma=0.4, kappa=1.3, g_abs=0.8, eta=0.6, phi=0.2)
        spec = pole_residue_from_model(model)
        tau = 10.0 / model.kappa
        ratio = abs(memory_kernel(spec, tau).regular) / abs(
            memory_kernel(spec, 0.0).regular
        )
        assert ratio == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_vectorized_and_domain(self):
        spec = pole_residue_from_model(
            FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        )
        taus = np.linspace(0.0, 5.0, 11)
        kernel = memory_kernel(spec, taus)
        assert kernel.regular.shape == taus.shape
        with pytest.raises(ParameterError):
            memory_kernel(spec, -0.1)
        # a NaN tau is refused, not turned into a NaN kernel
        with pytest.raises(ParameterError):
            memory_kernel(spec, np.nan)
        with pytest.raises(ParameterError):
            memory_kernel(spec, np.array([0.0, np.nan]))
        with pytest.raises(ParameterError, match=r"^tau must be >= 0, got -1\.0$"):
            kernel_by_quadrature(spec, -1.0, window=50.0, n_points=1001)
        # the least tau is tested, so no tau at all is no refusal
        assert memory_kernel(spec, np.array([])).regular.shape == (0,)
        assert _kernel_quadrature(spec, np.array([]), 50.0, 1001)[0].shape == (0,)


class TestKernelQuadrature:
    def test_zero_residue(self):
        spec = PoleSpectral(J0=0.2, z1=-0.5j, r1=0.0)
        result = kernel_by_quadrature(spec, 1.3, window=50.0, n_points=10001)
        assert result.value == 0.0
        assert result.error_estimate == 0.0

    def test_converges_to_residue_form(self):
        # Frozen from the pre-test convergence study: the truncated 1/omega
        # tail leaves ~4e-4 at window 200/kappa for tau = 1/kappa.
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        spec = pole_residue_from_model(model)
        exact = memory_kernel(spec, 1.0).regular
        result = kernel_by_quadrature(spec, 1.0, window=200.0, n_points=200001)
        error = abs(result.value - exact)
        assert error < 5e-4
        assert error <= 2.0 * result.error_estimate
        assert result.error_estimate < 10.0 * error + 1e-12

    def test_window_convergence_monotone(self):
        # windows commensurate with 2pi/tau so the oscillatory truncation
        # factor is held fixed; the error envelope then decays like 1/window
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)
        spec = pole_residue_from_model(model)
        tau = 1.0
        exact = memory_kernel(spec, tau).regular
        errors = []
        for k in (8, 16, 32, 64):
            window = 2.0 * math.pi * k / tau
            n_points = int(200 * window) + 1
            result = kernel_by_quadrature(spec, tau, window, n_points)
            errors.append(abs(result.value - exact))
        assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 5e-4

    def test_tau_zero_integrand_is_real(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, phi=0.4)
        spec = pole_residue_from_model(model)
        result = kernel_by_quadrature(spec, 0.0, window=100.0, n_points=20001)
        assert abs(result.value.imag) < 1e-14 * max(1.0, abs(result.value))

    def test_parameter_errors(self):
        spec = PoleSpectral(J0=0.1, z1=-0.5j, r1=0.1j)
        with pytest.raises(ParameterError):
            kernel_by_quadrature(spec, 1.0, window=-1.0, n_points=100)
        with pytest.raises(ParameterError):
            kernel_by_quadrature(spec, 1.0, window=10.0, n_points=1)


class TestFactorizedQuadrature:
    """``_kernel_quadrature`` sums over rows of the grid against the per-tau
    direct loop of ``kernel_quadrature_direct``."""

    SPEC = pole_residue_from_model(
        FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, omega_C=0.3, phi=0.4)
    )
    WINDOW = 20.0
    TAUS = {
        "zero": [0.0],
        "single": [2.5],
        "unsorted": [3.7, 0.0, 10.0, 0.1, 2.5],
        "non-uniform": list(np.geomspace(1e-3, 10.0, 7)),
        "past one chunk": list(np.linspace(0.0, 10.0, 150)),
    }

    # 2-4: no subgrid for either estimate; 5: the central slice starts and
    # ends in one row; 16 and 10000: perfect squares, rows without padding;
    # 6 and 1000 even, the rest odd.
    @pytest.mark.parametrize("n_points", [2, 3, 4, 5, 6, 7, 16, 101, 1000, 10000, 20001])
    @pytest.mark.parametrize("taus", list(TAUS), ids=list(TAUS))
    def test_matches_direct_sum(self, n_points, taus):
        # Each phase omega tau is rounded at eps |omega| tau in either sum,
        # so the bound scales with the largest phase and the integrand's
        # absolute sum.  Measured: at most 0.71 of this scale in the values
        # and 1.5 in the estimates; in absolute terms at most 6.0e-15 at
        # n_points >= 16, and 5.4e-14 at n_points = 3, where the one grid
        # point near the pole carries a value of 2.4.
        taus = np.array(self.TAUS[taus])
        values, estimates = _kernel_quadrature(self.SPEC, taus, self.WINDOW, n_points)
        ref_values, ref_estimates = kernel_quadrature_direct(
            self.SPEC, taus, self.WINDOW, n_points
        )
        grid = np.linspace(self.SPEC.z1.real - self.WINDOW,
                           self.SPEC.z1.real + self.WINDOW, n_points)
        weight = (grid[1] - grid[0]) * np.sum(np.abs(evaluate_J(self.SPEC, grid)
                                                     - self.SPEC.J0))
        scale = np.finfo(float).eps * max(np.max(np.abs(grid)) * np.max(taus), 1.0)
        bound = 4.0 * scale * weight
        assert np.max(np.abs(values - ref_values)) <= bound
        assert np.max(np.abs(estimates - ref_estimates)) <= bound

    def test_memory_does_not_grow_with_taus(self):
        spec = pole_residue_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0))
        peaks = []
        for n_taus in (101, 101, 1001):  # the first call only warms numpy up
            taus = np.linspace(0.0, 10.0, n_taus)
            tracemalloc.start()
            try:
                _kernel_quadrature(spec, taus, 100.0, 100001)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1]
