"""Solver tests: four methods cross-validated plus their guard rails.

Oracles: closed-form Markovian decay, eigendecomposition of the 2x2
non-Hermitian effective Hamiltonian (independent of the step exponential), the
ground-state-gain quadratic form re-derived from the equations of motion,
and measured self-convergence studies whose tolerances are frozen below.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from fanomode import chebyshev, dynamics
from fanomode.dynamics import (
    DiscretizedReservoir,
    build_discretized,
    decay_rate,
    solve_amplitudes,
    solve_discretized,
    solve_qme,
    solve_volterra,
)
from fanomode.embedding import EmbeddedQME, embed_from_model, kossakowski
from fanomode.errors import (
    ParameterError,
    RecurrenceError,
    SpectralError,
    StepSizeError,
)
from fanomode.spectral import FanoModel, PoleSpectral, pole_residue_from_model

from conftest import (
    comb_direct,
    random_lindblad_model,
    star_solution,
    volterra_per_step,
)

TWO_PI = 2.0 * math.pi

PRESET = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0)


def effective_hamiltonian_solution(qme: EmbeddedQME, c1_0: complex, times):
    """Oracle: eigendecomposition of the non-Hermitian 2x2 generator."""
    a_mat = np.array(
        [
            [-1j * qme.omega_A - 0.5 * qme.gamma, -1j * qme.g_tilde_minus],
            [-1j * np.conj(qme.g_tilde_plus), -1j * qme.z1],
        ],
        dtype=complex,
    )
    eigvals, eigvecs = np.linalg.eig(a_mat)
    weights = np.linalg.solve(eigvecs, np.array([c1_0, 0.0], dtype=complex))
    modes = np.exp(np.outer(np.asarray(times), eigvals)) * weights
    return modes @ eigvecs.T


def qme_generator(qme: EmbeddedQME, rho: np.ndarray) -> np.ndarray:
    """Reference: the master equation's right-hand side, each superoperator
    term applied to the 3x3 rho as a matrix product."""
    h_ac = np.zeros((3, 3), dtype=complex)
    h_ac[1, 1], h_ac[2, 2] = qme.omega_A, qme.omega_C
    h_ac[1, 2], h_ac[2, 1] = qme.mu, np.conj(qme.mu)
    ops = np.zeros((2, 3, 3), dtype=complex)
    ops[0, 0, 1] = ops[1, 0, 2] = 1.0  # atom lowering, pseudomode annihilation
    gm = kossakowski(qme)
    out = -1j * (h_ac @ rho - rho @ h_ac)
    for m_idx in range(2):
        for n_idx in range(2):
            x_m, xnd = ops[m_idx], ops[n_idx].conj().T
            xndxm = xnd @ x_m
            out += gm[m_idx, n_idx] * (
                x_m @ rho @ xnd - 0.5 * (xndxm @ rho + rho @ xndxm)
            )
    return out


def comb_reference_rk4(res, omega_A: float, c1_0: complex, t_max: float, h: float):
    """Reference: the comb's former solver, classical RK4 over all N modes in
    the omega_A rotating frame.  Returns c1(t) and the reservoir population."""
    n = round(t_max / h)
    detunings = res.omegas - omega_A
    g = res.couplings.astype(complex)

    def rhs(y):
        out = np.empty_like(y)
        out[0] = -1j * np.add.reduce(g * y[1:])
        out[1:] = -1j * (detunings * y[1:] + g * y[0])
        return out

    y = np.zeros(res.n_modes + 1, dtype=complex)
    y[0] = c1_0
    c1 = np.empty(n + 1, dtype=complex)
    reservoir = np.empty(n + 1)
    c1[0], reservoir[0] = y[0], 0.0
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c1[i + 1] = y[0]
        reservoir[i + 1] = float(np.sum(np.abs(y[1:]) ** 2))
    return c1 * np.exp(-1j * omega_A * h * np.arange(n + 1)), reservoir


def sampled_kernel(name: str, rng: np.random.Generator, n: int) -> np.ndarray:
    t = 0.01 * np.arange(n + 1)
    if name == "random":
        return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    if name == "two_exponential":
        fast, slow = np.exp(-(0.3 + 2j) * t), np.exp(-(0.05 - 0.7j) * t)
        return 0.7j * fast - (0.2 - 0.5j) * slow
    assert name == "gaussian_oscillation"
    return 1.3 * np.exp(-((t / 3.0) ** 2) - 5j * t)


def random_initial_states(rng: np.random.Generator):
    """One initial amplitude c1(0), and one full-rank mixed density matrix."""
    c1_0 = complex(0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return c1_0, w @ w.conj().T / np.trace(w @ w.conj().T).real


def propagate_qme(qme: EmbeddedQME, rho_0: np.ndarray, t_max: float, h: float):
    """rho(t) from any initial rho_0 by the generator and sampler solve_qme
    uses, which itself starts only from the pure state of c1(0)."""
    times = dynamics._time_grid(t_max, h)
    gen = h * dynamics._liouvillian(qme)
    return dynamics._propagate(gen, rho_0.reshape(9), times).reshape(-1, 3, 3)


class TestSolveAmplitudes:
    def test_free_rotation(self):
        qme = EmbeddedQME(omega_A=1.3, omega_C=0.4, mu=0.0, gamma=0.0,
                          kappa=1.0, gamma_F=0.0)
        traj = solve_amplitudes(qme, 0.6 + 0.1j, 5.0, 1e-3)
        expected = (0.6 + 0.1j) * np.exp(-1j * 1.3 * traj.times)
        assert np.max(np.abs(traj.c1 - expected)) < 1e-12
        assert np.max(np.abs(traj.b1)) == 0.0

    def test_markovian_decay(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.0, eta=0.0, omega_A=0.7)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 10.0, 1e-3)
        expected = np.exp((-1j * 0.7 - 0.125) * traj.times)
        assert np.max(np.abs(traj.c1 - expected)) < 1e-10
        assert np.max(traj.pi_j) == pytest.approx(1.0 - abs(traj.c1[-1]) ** 2,
                                                  abs=1e-10)

    def test_vacuum_rabi_against_eigendecomposition(self):
        # eta = 0, gamma = 0 on resonance: damped Rabi exchange, envelope
        # set by kappa; oracle is the independent eigen-solution
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=0.5, eta=0.0)
        qme = embed_from_model(model)
        traj = solve_amplitudes(qme, 1.0, 20.0, 1e-3)
        oracle = effective_hamiltonian_solution(qme, 1.0, traj.times)
        assert np.max(np.abs(traj.c1 - oracle[:, 0])) < 1e-9
        assert np.max(np.abs(traj.b1 - oracle[:, 1])) < 1e-9
        # populations exchange: b1 peaks mid-run (damped by the kappa envelope)
        b_peak = np.argmax(np.abs(traj.b1))
        assert 0 < b_peak < len(traj.times) - 1
        assert np.abs(traj.b1[b_peak]) ** 2 > 0.25

    def test_norm_identity(self, rng):
        for _ in range(5):
            model = random_lindblad_model(rng)
            traj = solve_amplitudes(embed_from_model(model), 0.9 + 0.3j, 20.0, 1e-3)
            norm = (
                abs(traj.c0) ** 2 + traj.c1_abs2 + np.abs(traj.b1) ** 2 + traj.pi_j
            )
            assert np.max(np.abs(norm - 1.0)) < 1e-10

    def test_jump_rate_matches_equations_of_motion(self):
        # the Kossakowski quadratic form must equal -d/dt(|c1|^2 + |b1|^2)
        # with the derivatives taken from the amplitude equations; a complex
        # cross rate pins the index order of the form
        model = FanoModel(gamma=0.4, kappa=1.0, g_abs=0.8, eta=0.9,
                          phi=0.9, theta_A=2.1, theta_C=0.3, omega_A=0.5)
        qme = embed_from_model(model)
        traj = solve_amplitudes(qme, 1.0, 10.0, 1e-3)
        c1, b1 = traj.c1, traj.b1
        dc1 = (-1j * qme.omega_A - 0.5 * qme.gamma) * c1 - 1j * qme.g_tilde_minus * b1
        db1 = -1j * qme.z1 * b1 - 1j * np.conj(qme.g_tilde_plus) * c1
        loss = -2.0 * (np.conj(c1) * dc1).real - 2.0 * (np.conj(b1) * db1).real
        gm = kossakowski(qme)
        amps = np.stack([c1, b1], axis=1)
        rate = np.einsum("mn,tm,tn->t", gm, amps, amps.conj()).real
        assert np.max(np.abs(rate - loss)) < 1e-10

    def test_jump_monotone_for_lindblad(self, rng):
        for _ in range(5):
            model = random_lindblad_model(rng)
            traj = solve_amplitudes(embed_from_model(model), 1.0, 10.0, 1e-3)
            assert np.min(np.diff(traj.pi_j)) > -1e-12

    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_coarse_step_samples_the_same_solution(self, rng, h):
        # each step is the exact propagator, so h is only the sampling step
        for _ in range(3):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            fine = solve_amplitudes(qme, 0.9 + 0.3j, 20.0, 1e-3)
            coarse = solve_amplitudes(qme, 0.9 + 0.3j, 20.0, h)
            every = round(h / 1e-3)
            np.testing.assert_allclose(coarse.times, fine.times[::every], atol=1e-12)
            for name in ("c1", "b1", "pi_j"):
                got, want = getattr(coarse, name), getattr(fine, name)[::every]
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_pi_j_reads_the_kossakowski_matrix(self, monkeypatch):
        # Pi_j integrates the Kossakowski rate, not the amplitudes' norm loss
        # 1 - |P y|^2: a rate that disagrees with the generator must show as
        # a drift of the norm identity
        qme = embed_from_model(PRESET)
        shifted = kossakowski(qme) + np.diag([1e-6, 0.0])
        monkeypatch.setattr(dynamics, "kossakowski", lambda _: shifted)
        traj = solve_amplitudes(qme, 1.0, 20.0, 1e-3)
        drift = traj.observables()[0]["norm_sum"] - 1.0
        rate = np.sum(traj.c1_abs2[:-1]) * 1e-3 * 1e-6
        assert drift[-1] == pytest.approx(rate, rel=1e-3)

    @pytest.mark.parametrize("h", [1e-3, 0.5])
    def test_matches_effective_hamiltonian(self, rng, h):
        for _ in range(3):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            traj = solve_amplitudes(qme, 0.9 + 0.3j, 20.0, h)
            oracle = effective_hamiltonian_solution(qme, 0.9 + 0.3j, traj.times)
            assert np.max(np.abs(traj.c1 - oracle[:, 0])) <= 1e-12
            assert np.max(np.abs(traj.b1 - oracle[:, 1])) <= 1e-12

    def test_samples_are_the_direct_exponential(self, rng):
        # every sample is e^{tA} y0 from the generator: the rounding of the
        # stepped block starts must not walk over 60k steps
        idx = np.linspace(0, 60000, 41).astype(int)
        for _ in range(5):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            traj = solve_amplitudes(qme, 0.9 + 0.3j, 60.0, 1e-3)
            a_mat = np.array(
                [[-0.5 * qme.gamma, -1j * qme.g_tilde_minus],
                 [-1j * np.conj(qme.g_tilde_plus), -1j * (qme.z1 - qme.omega_A)]]
            )
            for k in idx:
                t = traj.times[k]
                want = dynamics._expm(t * a_mat) @ np.array([0.9 + 0.3j, 0.0])
                want *= np.exp(-1j * qme.omega_A * t)
                assert abs(traj.c1[k] - want[0]) <= 1e-13
                assert abs(traj.b1[k] - want[1]) <= 1e-13

    def test_jump_decreases_for_non_lindblad(self):
        # frozen demonstration point: the quadratic form turns negative
        # near t ~ 3 for this generator
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=1.0, eta=1.2)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 20.0, 1e-3)
        assert np.min(np.diff(traj.pi_j)) < -1e-7

    def test_initial_amplitude_validation(self):
        qme = embed_from_model(PRESET)
        with pytest.raises(ParameterError):
            solve_amplitudes(qme, 1.2, 1.0, 1e-3)
        with pytest.raises(ParameterError):
            solve_amplitudes(qme, 1.0, 1.0, -1e-3)
        with pytest.raises(ParameterError):
            solve_amplitudes(qme, 1.0, 1e-4, 1e-3)


B = dynamics._BLOCK


def misaligned(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` whose data starts 8 bytes off its usual alignment."""
    buf = np.empty(a.nbytes + 8, dtype=np.uint8)
    out = buf[8 : 8 + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def random_generator(rng: np.random.Generator, d: int) -> np.ndarray:
    """A d x d generator, mostly anti-Hermitian: its exponentials stay O(1)
    over a few hundred steps."""
    w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (0.05 * (w - w.conj().T) + 0.002 * w) / math.sqrt(d)


def propagate_reference(gen: np.ndarray, y0, n: int) -> np.ndarray:
    """Reference for ``_propagate``: one sample at a time, y_{Bk + j} = P_j z_k
    summed over the columns of P_j in order, with P_j from per-matrix calls."""
    powers = [dynamics._expm(j * gen) for j in range(min(n, B) + 1)]
    z = np.asarray(y0, dtype=complex)
    states = []
    for i in range(n + 1):
        k, j = divmod(i, B)
        if k and not j:
            z = np.add.reduce(powers[B] * z, axis=1)
        sample = powers[j][:, 0] * z[0]
        for c in range(1, len(z)):
            sample = sample + powers[j][:, c] * z[c]
        states.append(sample)
    return np.array(states)


class TestPropagate:
    @pytest.mark.parametrize("d", [2, 9])
    def test_samples_are_the_fixed_order_sums(self, rng, d):
        # the sums have a fixed order, so the result is the reference's bitwise
        gen = random_generator(rng, d)
        y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        n = 40 * B + 7  # two passes of the fill, the second one partial
        times = 0.1 * np.arange(n + 1)
        np.testing.assert_array_equal(dynamics._propagate(gen, y0, times),
                                      propagate_reference(gen, y0, n))

    @pytest.mark.parametrize("d", [2, 9])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_every_sample_is_the_direct_exponential(self, rng, n, d):
        gen = random_generator(rng, d)
        y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        y0 /= np.linalg.norm(y0)
        times = 0.1 * np.arange(n + 1)
        states = dynamics._propagate(gen, y0, times)
        assert states.shape == (n + 1, d)
        for k in range(n + 1):
            assert np.max(np.abs(states[k] - dynamics._expm(k * gen) @ y0)) <= 1e-14

    @pytest.mark.parametrize("d", [2, 9])
    def test_bitwise_reproducible(self, rng, d):
        gen = random_generator(rng, d)
        y0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        times = 0.1 * np.arange(1000)
        first = dynamics._propagate(gen, y0, times)
        np.testing.assert_array_equal(dynamics._propagate(gen.copy(), y0, times), first)
        shifted = dynamics._propagate(misaligned(gen), misaligned(y0), times)
        np.testing.assert_array_equal(shifted, first)

    def test_stacked_expm_is_the_per_matrix_expm(self, rng):
        # norms from 1e-4 to 1e2: each matrix has its own number of squarings
        gens = [k * random_generator(rng, 9) for k in range(B + 1)]
        gens += [scale * random_generator(rng, 9) for scale in np.logspace(-3, 3, 7)]
        stack = np.array(gens)
        got = dynamics._expm(stack)
        assert got.shape == stack.shape
        for matrix, want in zip(stack, got):
            np.testing.assert_array_equal(dynamics._expm(matrix), want)
        np.testing.assert_array_equal(dynamics._expm(stack.reshape(8, 9, 9, 9)),
                                      got.reshape(8, 9, 9, 9))

    def test_overflow_names_the_first_non_finite_time(self):
        times = 0.5 * np.arange(400)
        with pytest.raises(StepSizeError, match=r"not finite from t = 177\.5: "):
            dynamics._propagate(np.array([[2.0 + 0.0j]]), (1.0,), times)


def direct_far_field(kt, u):
    """Reference for ``_far_field``: far[m] = sum_{j < B floor(m / B)} kt[m - j] u[j],
    one direct sum per m."""
    return np.array([
        complex(np.sum(kt[m : m % B : -1] * u[: m - m % B])) for m in range(len(u))
    ])


def public_fft_far_field(kt, u):
    """Reference for ``_far_field``'s bits: its square decomposition, one
    fresh array per transform from the public ``np.fft.fft`` and
    ``np.fft.ifft``."""
    n = len(u) - 1
    far = np.zeros(n + 1, dtype=complex)
    for b in range(B, n + 1, B):
        size = B * ((b // B) & -(b // B))
        if b == n:
            far[n] += dynamics._dot(kt[size:0:-1], u[n - size : n])
        else:
            conv = np.fft.ifft(np.fft.fft(u[b - size : b], 2 * size)
                               * np.fft.fft(kt[: 2 * size], 2 * size))
            end = min(b + size, n + 1)
            far[b:end] += conv[size : size + end - b]
        yield far[b : b + B]


def public_fft_volterra_core(kt, damping, c1_0, h):
    """Reference for ``_volterra_core``'s bits: its block loop on
    :func:`public_fft_far_field`, with fresh temporaries per block."""
    lead = B - dynamics._START
    n = len(kt) - 1 - lead
    history = np.zeros(len(kt), dtype=complex)
    values, derivs = dynamics._volterra_start(kt, damping, c1_0, h)
    history[lead : lead + dynamics._START] = values[: n + 1]
    response = dynamics._block_response(
        kt, damping, h, min(B, n + 1 - dynamics._START))
    e0, e1, e2 = dynamics._GREGORY_EDGE
    edge = ((e0 - 1.0) * values[0], (e1 - 1.0) * values[1],
            (e2 - 1.0) * values[2])
    x = np.zeros(B + 5, dtype=complex)
    x[B:] = *values[dynamics._START - 2 :], *derivs[dynamics._START - 3 :]
    for b, far in zip(range(B, len(history), B), public_fft_far_field(kt, history)):
        size, m = len(far), b - lead
        x[:size] = far + edge[0] * kt[m : m + size]
        x[:size] += edge[1] * kt[m - 1 : m - 1 + size]
        x[:size] += edge[2] * kt[m - 2 : m - 2 + size]
        y = np.add.reduce(response * x, axis=1)
        history[b : b + size] = y[:size]
        x[B:] = y[B - 2 :]
    return history[lead:]


class TestBlockedHistory:
    # every base-block and square boundary
    @pytest.mark.parametrize(
        "n",
        [0, 1, 2, 3, 4, 5, 6, B - 1, B, B + 1, 2 * B, 2 * B + 1, 4 * B - 1, 1000,
         16 * B, 4097],
    )
    @pytest.mark.parametrize(
        "kernel", ["random", "two_exponential", "gaussian_oscillation"]
    )
    def test_matches_direct_sum(self, kernel, n):
        rng = np.random.default_rng(n)
        kt = sampled_kernel(kernel, rng, n)
        u = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        blocks = list(dynamics._far_field(kt, u))
        assert len(blocks) == n // B
        want = direct_far_field(kt, u)
        for b, far in zip(range(B, n + 1, B), blocks):
            assert len(far) == min(B, n + 1 - b)
            for m in range(b, b + len(far)):
                scale = np.sum(np.abs(kt[m:0:-1]) * np.abs(u[:m]))
                assert abs(far[m - b] - want[m]) <= 1e-12 * scale

    def test_no_fft_of_twice_the_history(self, monkeypatch):
        # at n = 64 * 2^k the last square feeds far[n] alone: a direct dot
        # adds it, where an FFT of size 2n used to
        from numpy.fft import _pocketfft_umath

        n = 4096
        sizes = []
        fft = _pocketfft_umath.fft

        def spy(a, fct, *args, out, **kwargs):
            sizes.append(len(out))
            return fft(a, fct, *args, out=out, **kwargs)

        monkeypatch.setattr(_pocketfft_umath, "fft", spy)
        rng = np.random.default_rng(n)
        kt = sampled_kernel("random", rng, n)
        u = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        for _ in dynamics._far_field(kt, u):
            pass
        assert max(sizes) == n

    @pytest.mark.parametrize(
        "n",
        [0, 1, 2, 3, 4, 5, 6, B - 1, B, B + 1, 2 * B, 2 * B + 1, 4 * B - 1, 259,
         1000, 1029, 16 * B, 4097, 60059],
    )
    @pytest.mark.parametrize(
        "kernel", ["random", "two_exponential", "gaussian_oscillation"]
    )
    def test_matches_public_fft_bit_for_bit(self, kernel, n):
        # the in-place pocketfft kernels give the bits of np.fft.fft / ifft
        rng = np.random.default_rng(n)
        kt = sampled_kernel(kernel, rng, n)
        u = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        blocks = list(dynamics._far_field(kt, u))
        want = list(public_fft_far_field(kt, u))
        assert len(blocks) == len(want) == n // B
        for got, block in zip(blocks, want):
            np.testing.assert_array_equal(got, block)

    def test_reads_only_the_known_history(self):
        # block b may read u[j] for j < b only: the solver fills u[b..b + B - 1]
        # after it, so entries not yet known are NaN here
        rng = np.random.default_rng(7)
        n = 4 * B + 5
        kt = sampled_kernel("random", rng, n)
        u_full = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        u = np.full(n + 1, np.nan, dtype=complex)
        u[:B] = u_full[:B]
        online = []
        for b, far in zip(range(B, n + 1, B), dynamics._far_field(kt, u)):
            online.append(far.copy())
            u[b : b + B] = u_full[b : b + B]
        offline = list(dynamics._far_field(kt, u_full))
        assert len(online) == len(offline) == n // B
        for got, want in zip(online, offline):
            np.testing.assert_array_equal(got, want)


class TestSolveVolterra:
    @pytest.mark.parametrize("t_max", [20.0, 60.0])
    @pytest.mark.parametrize("model", [
        PRESET,
        FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=1.0),
    ])
    def test_samples_match_public_fft_reference(self, monkeypatch, model, t_max):
        spec = pole_residue_from_model(model)
        got = solve_volterra(spec, model.omega_A, 1.0, t_max, 1e-3)
        monkeypatch.setattr(dynamics, "_volterra_core", public_fft_volterra_core)
        want = solve_volterra(spec, model.omega_A, 1.0, t_max, 1e-3)
        np.testing.assert_array_equal(got.c1, want.c1)

    def test_markovian_decay_exact(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.0, eta=0.0, omega_A=0.7)
        spec = pole_residue_from_model(model)
        traj = solve_volterra(spec, 0.7, 1.0, 10.0, 1e-3)
        expected = np.exp((-1j * 0.7 - 0.125) * traj.times)
        assert np.max(np.abs(traj.c1 - expected)) < 1e-8

    def test_closed_system_constant_modulus(self):
        spec = PoleSpectral(J0=0.0, z1=-0.5j, r1=0.0)
        traj = solve_volterra(spec, 0.3, 0.8, 5.0, 1e-3)
        assert np.max(np.abs(np.abs(traj.c1) - 0.8)) < 1e-13

    def test_matches_amplitudes_on_preset(self):
        spec = pole_residue_from_model(PRESET)
        tv = solve_volterra(spec, PRESET.omega_A, 1.0, 20.0, 1e-3)
        ta = solve_amplitudes(embed_from_model(PRESET), 1.0, 20.0, 1e-3)
        assert np.max(np.abs(np.abs(tv.c1) - np.abs(ta.c1))) < 1e-6

    def test_matches_amplitudes_random(self, rng):
        for _ in range(3):
            model = random_lindblad_model(rng)
            tv = solve_volterra(
                pole_residue_from_model(model), model.omega_A, 1.0, 20.0, 1e-3
            )
            ta = solve_amplitudes(embed_from_model(model), 1.0, 20.0, 1e-3)
            assert np.max(np.abs(np.abs(tv.c1) - np.abs(ta.c1))) < 1e-6

    def test_matches_direct_history_solver(self, rng):
        # block steps and the blocked history against the per-step solver
        # over the O(n^2) history
        for t_max in (20.0, 60.0):
            model = random_lindblad_model(rng, resonant=False)
            spec = pole_residue_from_model(model)
            got = solve_volterra(spec, model.omega_A, 1.0, t_max, 1e-3).c1
            want = volterra_per_step(spec, model.omega_A, 1.0, t_max, 1e-3)
            assert np.max(np.abs(got - want)) <= 1e-12

    # the start alone (n <= 4), the first stepped sample, and the base-block
    # and square boundaries of the block steps, in the padded history
    # (u[m] at m + B - 5) and in u itself
    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 4, 5, 6, B - 1, B, B + 1, B + 4, B + 5, 2 * B - 1, 2 * B, 2 * B + 1,
         3 * B, 4 * B - 1, 16 * B - 59, 16 * B, 4097],
    )
    def test_block_steps_match_per_step(self, n):
        model = random_lindblad_model(np.random.default_rng(n), resonant=False)
        spec = pole_residue_from_model(model)
        got = solve_volterra(spec, model.omega_A, 1.0, n * 1e-3, 1e-3).c1
        want = volterra_per_step(spec, model.omega_A, 1.0, n * 1e-3, 1e-3)
        assert len(got) == n + 1
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_bitwise_reproducible(self):
        spec = pole_residue_from_model(PRESET)
        first = solve_volterra(spec, PRESET.omega_A, 1.0, 5.0, 1e-3).c1
        second = solve_volterra(spec, PRESET.omega_A, 1.0, 5.0, 1e-3).c1
        np.testing.assert_array_equal(first, second)

    def test_fourth_order_convergence(self):
        # halving h cuts the error ~16x against the eigen-solution oracle
        model = FanoModel(gamma=1.0, kappa=1.0, g_abs=2.0, eta=1.0, phi=0.6)
        spec = pole_residue_from_model(model)
        qme = embed_from_model(model)
        errors = []
        for h in (1.6e-2, 8e-3, 4e-3):
            traj = solve_volterra(spec, 0.0, 1.0, 4.0, h)
            oracle = effective_hamiltonian_solution(qme, 1.0, traj.times)
            errors.append(float(np.max(np.abs(traj.c1 - oracle[:, 0]))))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(16.0, rel=0.2)

    def test_core_reads_only_kernel_samples(self):
        # a two-exponential kernel, which no single pole gives: with
        # I_i = int a_i e^{-b_i (t - s)} u(s) ds, (u, I_1, I_2)' = M (u, I_1, I_2),
        # so u(t) is the first entry of e^{tM} (1, 0, 0)
        (a1, b1), (a2, b2), damping = (0.6, 0.5 + 2j), (0.4 - 0.3j, 1.5 - 1j), 0.1
        gen = np.array([[-damping, -1, -1], [a1, -b1, 0], [a2, 0, -b2]], dtype=complex)

        def error(h):
            n = round(10.0 / h)
            lags = h * np.arange(n + 1 + B - dynamics._START)
            kt = a1 * np.exp(-b1 * lags) + a2 * np.exp(-b2 * lags)
            u = dynamics._volterra_core(kt, damping, 1.0, h)
            exact = dynamics._expm(lags[: n + 1, None, None] * gen)[:, 0, 0]
            return float(np.max(np.abs(u - exact)))

        assert error(1e-3) <= 1e-12
        errors = [error(h) for h in (1.6e-2, 8e-3, 4e-3)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(16.0, rel=0.2)

    def test_step_size_guard(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=10.0, eta=1.0)
        spec = pole_residue_from_model(model)  # |2 pi r1| ~ |g|^2 = 100
        with pytest.raises(StepSizeError):
            solve_volterra(spec, 0.0, 1.0, 1.0, 2e-3)

    def test_overflow_names_the_first_non_finite_time(self):
        # a kernel that grows the amplitude overflows it within the run:
        # StepSizeError, as for the amplitudes and the QME, not NaN samples
        spec = pole_residue_from_model(
            FanoModel(gamma=0.25, kappa=1.0, g_abs=5.0, eta=400.0))
        with pytest.raises(StepSizeError, match=r"not finite from t = 148\.362: "):
            solve_volterra(spec, 0.0, 1.0, 200.0, 2e-3)


class TestSolveQME:
    def test_ground_state_is_stationary(self):
        traj = solve_qme(embed_from_model(PRESET), 0.0, 2.0, 1e-3)
        assert np.max(np.abs(traj.rho - traj.rho[0])) < 1e-14

    def test_matches_amplitudes(self):
        qme = embed_from_model(PRESET)
        tq = solve_qme(qme, 1.0, 20.0, 1e-3)
        ta = solve_amplitudes(qme, 1.0, 20.0, 1e-3)
        rho = tq.rho
        assert np.max(np.abs(rho[:, 1, 1].real - ta.c1_abs2)) < 1e-8
        assert np.max(np.abs(rho[:, 2, 2].real - np.abs(ta.b1) ** 2)) < 1e-8
        assert np.max(np.abs(rho[:, 1, 2] - ta.c1 * np.conj(ta.b1))) < 1e-8
        assert np.max(np.abs(rho[:, 0, 0].real - (abs(ta.c0) ** 2 + ta.pi_j))) < 1e-8

    def test_coherence_with_ground_state(self):
        # partial initial excitation: rho_01 = c0 c1* pointwise
        qme = embed_from_model(PRESET)
        c1_0 = 0.6 + 0.48j
        c0 = math.sqrt(1.0 - abs(c1_0) ** 2)
        tq = solve_qme(qme, c1_0, 10.0, 1e-3)
        ta = solve_amplitudes(qme, c1_0, 10.0, 1e-3)
        assert np.max(np.abs(tq.rho[:, 0, 1] - c0 * np.conj(ta.c1))) < 1e-8

    def test_trace_and_positivity(self):
        qme = embed_from_model(PRESET)
        traj = solve_qme(qme, 1.0, 20.0, 1e-3)
        trace = np.trace(traj.rho, axis1=1, axis2=2)
        assert np.max(np.abs(trace - 1.0)) < 1e-10
        assert np.min(np.linalg.eigvalsh(traj.rho)) > -1e-10

    def test_accepts_mixed_states(self):
        # the generator and sampler solve_qme runs, from a mixed state
        qme = embed_from_model(PRESET)
        rho_0 = np.diag([0.3, 0.45, 0.25]).astype(complex)
        rho = propagate_qme(qme, rho_0, 5.0, 1e-3)
        trace = np.trace(rho, axis1=1, axis2=2)
        assert np.max(np.abs(trace - 1.0)) < 1e-10

    def test_long_time_limit_is_ground(self):
        # all dissipative eigenmodes are strictly lossy away from the
        # eta = 1 boundary; measured residual ~1e-11 at t = 100/kappa
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=0.5)
        traj = solve_qme(embed_from_model(model), 1.0, 100.0, 2e-3)
        final = traj.rho[-1]
        assert final[1, 1].real + final[2, 2].real < 1e-6
        assert final[0, 0].real == pytest.approx(1.0, abs=1e-6)

    def test_liouvillian_matches_matrix_form(self, rng):
        # the vectorized generator against the matrix-form one on random
        # Hermitian rho: a wrong kron or transpose order cannot hide
        for _ in range(5):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            assert qme.gamma_F.imag != 0.0
            liouvillian = dynamics._liouvillian(qme)
            for _ in range(3):
                w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                rho = w + w.conj().T
                got = (liouvillian @ rho.reshape(9)).reshape(3, 3)
                want = qme_generator(qme, rho)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_amplitudes_random(self, rng):
        # acceptance criterion 4's bounds on random Lindblad models
        for _ in range(3):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            c1_0, _ = random_initial_states(rng)
            rho = solve_qme(qme, c1_0, 5.0, 1e-3).rho
            ta = solve_amplitudes(qme, c1_0, 5.0, 1e-3)
            assert np.max(np.abs(rho[:, 1, 1].real - ta.c1_abs2)) < 1e-8
            assert np.max(np.abs(rho[:, 2, 2].real - np.abs(ta.b1) ** 2)) < 1e-8
            assert np.max(np.abs(rho[:, 1, 2] - ta.c1 * np.conj(ta.b1))) < 1e-8
            trace = np.trace(rho, axis1=1, axis2=2)
            assert np.max(np.abs(trace - 1.0)) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_coarse_step_samples_the_same_solution(self, rng, h):
        # each step is the exact propagator e^{hL}, so h is only the sampling
        # step
        for _ in range(3):
            qme = embed_from_model(random_lindblad_model(rng, resonant=False))
            c1_0, mixed = random_initial_states(rng)
            fine = solve_qme(qme, c1_0, 20.0, 1e-3).rho
            coarse = solve_qme(qme, c1_0, 20.0, h).rho
            assert np.max(np.abs(coarse - fine[:: round(h / 1e-3)])) <= 1e-12
            fine = propagate_qme(qme, mixed, 20.0, 1e-3)
            coarse = propagate_qme(qme, mixed, 20.0, h)
            assert np.max(np.abs(coarse - fine[:: round(h / 1e-3)])) <= 1e-12

    def test_unstable_step_raises(self):
        # a generator that grows the state (at eta = 50 the largest real
        # eigenvalue is 2.9 for the QME) overflows it: StepSizeError, not inf
        qme = embed_from_model(FanoModel(gamma=0.25, kappa=1.0, g_abs=5.0, eta=50.0))
        with pytest.raises(StepSizeError, match="not finite"):
            solve_qme(qme, 1.0, 1800.0, 0.9)
        with pytest.raises(StepSizeError, match="not finite"):
            solve_amplitudes(qme, 1.0, 1800.0, 0.9)

    def test_invalid_initial_state(self):
        qme = embed_from_model(PRESET)
        for c1_0 in (1.1, np.nan):
            with pytest.raises(ParameterError, match=r"\|c1\(0\)\| must be <= 1"):
                solve_qme(qme, c1_0, 1.0, 1e-3)


class TestDiscretizedReservoir:
    def test_flat_comb(self):
        model = FanoModel(gamma=0.3, kappa=1.0, g_abs=0.0, eta=0.0)
        spec = pole_residue_from_model(model)
        res = build_discretized(spec, window=40.0, n_modes=4001)
        assert np.allclose(res.couplings, res.couplings[0])
        total = np.sum(res.couplings**2)
        assert total == pytest.approx(0.3 / TWO_PI * 80.0, rel=1e-3)

    def test_coupling_sum_matches_integral(self, rng):
        model = random_lindblad_model(rng)
        spec = pole_residue_from_model(model)
        res = build_discretized(spec, window=40.0, n_modes=2001)
        from fanomode.spectral import evaluate_J

        grid = np.linspace(spec.z1.real - 40, spec.z1.real + 40, 20001)
        integral = np.trapezoid(evaluate_J(spec, grid), grid)
        assert np.sum(res.couplings**2) == pytest.approx(integral, rel=1e-3)

    def test_antiresonance_mode_decouples(self):
        spec = pole_residue_from_model(PRESET)  # J zero at omega_C - kappa
        res = build_discretized(spec, window=40.0, n_modes=4001)
        k_min = np.argmin(res.couplings)
        assert res.omegas[k_min] == pytest.approx(PRESET.omega_C - 1.0, abs=1e-9)
        assert res.couplings[k_min] < 1e-8

    def test_mode_spacing_and_recurrence(self):
        spec = pole_residue_from_model(PRESET)
        res_a = build_discretized(spec, 40.0, 2001)
        res_b = build_discretized(spec, 40.0, 4001)
        assert res_a.delta_omega == pytest.approx(2.0 * res_b.delta_omega, rel=1e-9)
        assert res_b.recurrence_time == pytest.approx(
            2.0 * res_a.recurrence_time, rel=1e-9
        )

    def test_build_errors(self):
        spec = pole_residue_from_model(PRESET)
        with pytest.raises(ParameterError):
            build_discretized(spec, 40.0, 99)
        with pytest.raises(ParameterError):
            build_discretized(spec, 10.0, 1001)
        corrupt = PoleSpectral(J0=0.0, z1=-0.5j, r1=(1j / TWO_PI) * (-0.25))
        with pytest.raises(SpectralError):
            build_discretized(corrupt, 40.0, 1001)

    @pytest.mark.parametrize(
        "spec, window, n_modes",
        [
            # kappa = 1e-300: (Im z1)^2 underflows, J overflows to inf
            (pole_residue_from_model(FanoModel(gamma=0.25, kappa=1e-300, g_abs=0.5,
                                               eta=1.0)), 1e-200, 100),
            # J = 1e300 is finite, J d_omega = 2e310 is not
            (PoleSpectral(J0=1e300, z1=-0.5j, r1=0j), 1e12, 101),
        ],
        ids=["J_overflows", "coupling_overflows"],
    )
    def test_non_finite_couplings_are_refused(self, spec, window, n_modes):
        with np.errstate(all="ignore"), pytest.raises(ParameterError, match="not finite"):
            build_discretized(spec, window, n_modes)

    @pytest.mark.parametrize("omega_A", [1e19, -1e300])
    def test_collapsed_detunings_are_refused(self, omega_A):
        # the comb's frequencies are distinct, their detunings from omega_A
        # all round to one value (the star's half-width was 0)
        res = build_discretized(pole_residue_from_model(PRESET), 40.0, 101)
        with pytest.raises(ParameterError, match="detunings"):
            solve_discretized(res, omega_A, 1.0, 1.0, 1e-2)

    def test_recurrence_guard(self):
        spec = pole_residue_from_model(PRESET)
        res = build_discretized(spec, 40.0, 101)  # recurrence ~ 7.9/kappa
        with pytest.raises(RecurrenceError):
            solve_discretized(res, 0.0, 1.0, 4.0, 1e-3)

    def test_flat_limit_reaches_markov(self):
        # truncating the flat background leaves a ~gamma/(pi W) deviation;
        # measured 2.7e-3 at W = 40/kappa (frozen from the study)
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.0, eta=0.0)
        res = build_discretized(pole_residue_from_model(model), 40.0, 2001)
        traj = solve_discretized(res, 0.0, 1.0, 3.0, 1e-3)
        expected = np.exp(-0.125 * traj.times)
        assert np.max(np.abs(np.abs(traj.c1) - expected)) < 5e-3

    def test_norm_conservation(self):
        # the reservoir population is |c1(0)|^2 (1 - |psi_0|^2), so the norm
        # sum holds by construction and fails only on NaN; the invariant
        # that carries information is |psi_0| <= 1 (a population >= 0)
        spec = pole_residue_from_model(PRESET)
        res = build_discretized(spec, 40.0, 2001)
        traj = solve_discretized(res, 0.0, 1.0, 5.0, 5e-4)
        norm = (
            abs(traj.c0) ** 2 + traj.c1_abs2 + traj.reservoir_population
        )
        assert np.max(np.abs(norm - 1.0)) < 1e-10
        assert traj.metadata["psi_peak"] <= 1.0 + 1e-12
        assert np.min(traj.reservoir_population) >= -1e-12

    def test_matches_volterra_at_study_tolerance(self):
        # window-truncation floor ~2.7e-3 at W = 40/kappa (measured)
        spec = pole_residue_from_model(PRESET)
        res = build_discretized(spec, 40.0, 4001)
        td = solve_discretized(res, 0.0, 1.0, 5.0, 1e-3)
        tv = solve_volterra(spec, 0.0, 1.0, 5.0, 1e-3)
        assert np.max(np.abs(np.abs(td.c1) - np.abs(tv.c1))) < 4e-3

    def test_mode_density_convergence(self):
        # density-limited regime (coarse combs): the error falls with
        # n_modes until it hits the window-truncation floor
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=1.0, eta=0.0)
        spec = pole_residue_from_model(model)
        tv = solve_volterra(spec, 0.0, 1.0, 3.0, 1e-3)
        errors = []
        for n_modes in (101, 201, 401):
            res = build_discretized(spec, 40.0, n_modes)
            td = solve_discretized(res, 0.0, 1.0, 3.0, 1e-3)
            errors.append(float(np.max(np.abs(np.abs(td.c1) - np.abs(tv.c1)))))
        assert errors[0] > errors[1] > errors[2]
        # beyond ~400 modes the floor dominates; the sequence stays flat
        res = build_discretized(spec, 40.0, 4001)
        td = solve_discretized(res, 0.0, 1.0, 3.0, 1e-3)
        floor = float(np.max(np.abs(np.abs(td.c1) - np.abs(tv.c1))))
        assert errors[2] < 2.0 * max(floor, 1e-6)

    def test_coarse_step_samples_the_same_solution(self):
        # each sample is exact, so h is only the sampling step
        spec = pole_residue_from_model(PRESET)
        res = build_discretized(spec, 40.0, 2001)
        fine = solve_discretized(res, 0.0, 1.0, 5.0, 1e-3)
        coarse = solve_discretized(res, 0.0, 1.0, 5.0, 0.1)
        np.testing.assert_allclose(coarse.times, fine.times[::100], atol=1e-12)
        assert np.max(np.abs(coarse.c1 - fine.c1[::100])) <= 1e-12
        pop, fine_pop = (t.reservoir_population for t in (coarse, fine))
        assert np.max(np.abs(pop - fine_pop[::100])) <= 1e-12

    @pytest.mark.parametrize("resonant", [True, False])
    def test_matches_rk4_reference(self, rng, resonant):
        model = random_lindblad_model(rng, resonant=resonant)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, model.omega_A, 0.8, 4.0, 1e-3)
        c1, reservoir = comb_reference_rk4(res, model.omega_A, 0.8, 4.0, 1e-3)
        assert np.max(np.abs(traj.c1 - c1)) <= 1e-9
        assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-9

    @pytest.mark.parametrize(
        "n_modes, t_max, near_recurrence", [(801, 4.0, False), (201, 7.5, True)]
    )
    def test_matches_dense_star(self, rng, n_modes, t_max, near_recurrence):
        model = random_lindblad_model(rng, resonant=False)
        res = build_discretized(pole_residue_from_model(model), 40.0, n_modes)
        assert (t_max > 0.45 * res.recurrence_time) == near_recurrence
        c1_0 = 0.6 - 0.3j
        traj = solve_discretized(res, model.omega_A, c1_0, t_max, 1e-2)
        c1, reservoir = star_solution(res, model.omega_A, c1_0, traj.times)
        assert np.max(np.abs(traj.c1 - c1)) <= 1e-12
        assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-12

    # n_t = 2 and 3 samples; 100 = 10^2 and 101 = 10^2 + 1; the default
    # 5001; the coarse h = 0.1
    @pytest.mark.parametrize(
        "t_max, h, n_t",
        [(1e-3, 1e-3, 2), (2e-3, 1e-3, 3), (0.099, 1e-3, 100), (0.1, 1e-3, 101),
         (5.0, 1e-3, 5001), (5.0, 0.1, 51)],
    )
    def test_two_level_sum_matches_direct_sum(self, t_max, h, n_t):
        # the weights from one FFT against their direct sums, and each
        # phase rounded at eps |lambda| t; measured at most 1.9e-15 here,
        # and 2.2e-15 over omega_A in {-1.3, 0, 2}
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, omega_A=0.4)
        res = build_discretized(pole_residue_from_model(model), 40.0, 2001)
        c1_0 = 0.6 - 0.3j
        traj = solve_discretized(res, model.omega_A, c1_0, t_max, h)
        assert len(traj.times) == n_t
        c1 = comb_direct(res, model.omega_A, c1_0, traj.times,
                         traj.metadata["chebyshev_order"])
        assert np.max(np.abs(traj.c1 - c1)) <= 3e-15

    def test_zero_coupling_is_free_rotation(self):
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=0.0, eta=0.0, omega_A=0.7)
        res = build_discretized(pole_residue_from_model(model), 40.0, 1001)
        traj = solve_discretized(res, 0.7, 0.6 + 0.3j, 5.0, 1e-2)
        np.testing.assert_allclose(
            traj.c1, (0.6 + 0.3j) * np.exp(-0.7j * traj.times), rtol=1e-15
        )
        assert np.all(traj.reservoir_population == 0.0)

    def test_couplings_with_subnormal_squares_run_cleanly(self):
        # at g_abs = 1e-160 the couplings' squares are subnormal, and the
        # two-site start of the outer eigenvalue rounds onto the top mode,
        # where the secular sum would divide by zero: no warning, and the
        # atom rotates freely (measured 5.6e-16)
        model = FanoModel(gamma=0.0, kappa=1.0, g_abs=1e-160, eta=0.0, omega_A=0.7)
        res = build_discretized(pole_residue_from_model(model), 40.0, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_discretized(res, 0.7, 0.6 + 0.3j, 1.0, 1e-2)
        assert traj.observables()[1] == []
        free = (0.6 + 0.3j) * np.exp(-0.7j * traj.times)
        assert np.max(np.abs(traj.c1 - free)) <= 2e-15
        assert np.max(traj.reservoir_population) <= 2e-15

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_atom_at_window_edge_matches_dense_star(self, side):
        # |omega_A - Re z1| = W: the widest Chebyshev interval of an atom
        # inside the window
        spec = pole_residue_from_model(PRESET)
        res = build_discretized(spec, 40.0, 801)
        omega_A = spec.z1.real + side * 40.0
        traj = solve_discretized(res, omega_A, 0.6 - 0.3j, 4.0, 1e-2)
        c1, reservoir = star_solution(res, omega_A, 0.6 - 0.3j, traj.times)
        assert np.max(np.abs(traj.c1 - c1)) <= 1e-12
        assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-12

    @pytest.mark.parametrize(
        "g_abs, omega_A, split_off",
        [(0.5, -500.0, 1), (0.5, 500.0, 1), (0.5, 5000.0, 1), (200.0, 0.4, 2)],
        ids=["atom_far_below", "atom_far_above", "atom_farther_above",
             "strong_coupling"],
    )
    def test_split_off_eigenvalues_match_dense_star(self, g_abs, omega_A, split_off):
        # the level of an atom far from the comb, or both polaritons of a
        # coupling ~5 W, lie far outside the comb and are summed in closed
        # form; the series runs on the rest
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=g_abs, eta=1.0, omega_A=omega_A)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, omega_A, 0.6 - 0.3j, 4.0, 1e-2)
        assert traj.metadata["split_off"] == split_off
        assert traj.observables()[1] == []
        c1, reservoir = star_solution(res, omega_A, 0.6 - 0.3j, traj.times)
        assert np.max(np.abs(traj.c1 - c1)) <= 1e-12
        assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-12

    @pytest.mark.parametrize(
        "g_abs, omega_A",
        [(0.5, 0.4), (0.5, 40.0), (50.0, 0.4), (5000.0, 0.4), (5000.0, 300.0),
         (0.5, 1e6), (1e7, -3.0)],
    )
    def test_order_is_bounded_by_the_comb(self, g_abs, omega_A):
        # the interval reaches at most W beyond the comb on either side, so
        # K is at most the order of a = 2 W, whatever |g| or the detuning
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=g_abs, eta=1.0, omega_A=omega_A)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, omega_A, 1.0, 4.0, 1e-2)
        assert traj.metadata["chebyshev_order"] <= dynamics._chebyshev_order(320.0)
        assert traj.observables()[1] == []

    def test_order_is_the_least_even_one_kapteyn_bounds(self):
        # |J_k(x)| <= r_k^k for k >= x (DLMF 10.14.5), and r_k falls with
        # k, so r_K^K / (1 - r_K) bounds every term past K
        def kapteyn_tail(x, k):
            z = x / k
            root = math.sqrt(1.0 - z * z)
            r = z * math.exp(root) / (1.0 + root)
            return math.inf if r >= 1.0 else r**k / (1.0 - r)

        xs = [0.0, 1e-300, 0.3, 1.0, 2.0, 7.5, 64.0, 100.0, 210.0, 410.0,
              1000.0, 12345.6, 1e6, *np.linspace(0.0, 2000.0, 2001)]
        orders = [chebyshev._chebyshev_order(x) for x in sorted(xs)]
        assert orders == sorted(orders)
        for x, order in zip(sorted(xs), orders):
            assert order % 2 == 0 and order >= max(x, 2.0)
            assert kapteyn_tail(x, order) <= chebyshev._CHEB_TAIL
            if order - 2 >= max(x, 2.0):
                assert kapteyn_tail(x, order - 2) > chebyshev._CHEB_TAIL

    @pytest.mark.parametrize("g_abs", [1e13, 1e100])
    def test_negligible_interior_is_left_out(self, monkeypatch, g_abs):
        # past |g| ~ 1e10 W the atom's weight between the polaritons is
        # bounded below 1e-20 and not summed; at 1e13 the series is still
        # stable, and summing it changes nothing
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=g_abs, eta=1.0, omega_A=0.4)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, model.omega_A, 1.0, 4.0, 1e-2)
        assert traj.metadata["split_off"] == 2
        assert traj.metadata["chebyshev_order"] == 0
        assert traj.observables()[1] == []
        if g_abs < 1e50:
            monkeypatch.setattr(dynamics, "_INTERIOR_NEGLIGIBLE", 0.0)
            summed = solve_discretized(res, model.omega_A, 1.0, 4.0, 1e-2)
            assert summed.metadata["chebyshev_order"] > 0
            assert np.max(np.abs(summed.c1 - traj.c1)) <= 1e-15

    @pytest.mark.parametrize("g_abs, omega_A, window, n_modes",
                             [(1e20, -1e6, 40.0, 801), (1e80, 0.4, 80.0, 4001)])
    def test_summing_a_negligible_interior_overflows(
        self, monkeypatch, g_abs, omega_A, window, n_modes
    ):
        # why the interior is left out: summed, the star moments of these
        # combs overflow and the run reports NaN violations
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=g_abs, eta=1.0, omega_A=omega_A)
        res = build_discretized(pole_residue_from_model(model), window, n_modes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_discretized(res, omega_A, 1.0, 1.0, 1e-2)
            assert traj.observables()[1] == []
        assert traj.metadata["chebyshev_order"] == 0
        monkeypatch.setattr(dynamics, "_INTERIOR_NEGLIGIBLE", 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summed = solve_discretized(res, omega_A, 1.0, 1.0, 1e-2)
            assert summed.observables()[1] != []
        assert any("overflow" in str(warning.message) for warning in caught)

    def test_high_order_matches_dense_star(self):
        # t_max = 30 is just inside half the recurrence time 31.4 of this
        # comb; the series runs to K ~ 1400 moments, at least a t_max
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.5, eta=1.0, omega_A=0.4)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, model.omega_A, 0.6 - 0.3j, 30.0, 1e-2)
        detunings = res.omegas - model.omega_A
        low, high, _, _ = dynamics._split_off(
            detunings, res.couplings, math.sqrt(float(res.couplings @ res.couplings))
        )
        order = traj.metadata["chebyshev_order"]
        assert order >= 0.5 * (high - low) * 30.0
        assert order > 1300
        c1, reservoir = star_solution(res, model.omega_A, 0.6 - 0.3j, traj.times)
        assert np.max(np.abs(traj.c1 - c1)) <= 1e-12
        assert np.max(np.abs(traj.reservoir_population - reservoir)) <= 1e-12

    @pytest.mark.parametrize(
        "g_abs, omega_A, split_off",
        [(0.5, 0.4, 0), (0.5, 5000.0, 1), (200.0, 0.4, 2)],
        ids=["weak", "atom_far_above", "strong_coupling"],
    )
    def test_longer_series_changes_nothing(
        self, monkeypatch, g_abs, omega_A, split_off
    ):
        # the terms past the order of Kapteyn's bound are below roundoff:
        # 64 more moved c1 by at most 1.5e-15 (measured, 801 to 8001 modes)
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=g_abs, eta=1.0, omega_A=omega_A)
        res = build_discretized(pole_residue_from_model(model), 40.0, 801)
        traj = solve_discretized(res, omega_A, 0.6 - 0.3j, 4.0, 1e-2)
        assert traj.metadata["split_off"] == split_off
        order = dynamics._chebyshev_order
        monkeypatch.setattr(dynamics, "_chebyshev_order", lambda x: order(x) + 64)
        longer = solve_discretized(res, omega_A, 0.6 - 0.3j, 4.0, 1e-2)
        assert (longer.metadata["chebyshev_order"]
                == traj.metadata["chebyshev_order"] + 64)
        assert np.max(np.abs(longer.c1 - traj.c1)) <= 5e-15
        assert (np.max(np.abs(longer.reservoir_population - traj.reservoir_population))
                <= 5e-15)

    def test_bitwise_reproducible(self):
        res = build_discretized(pole_residue_from_model(PRESET), 40.0, 2001)
        first = solve_discretized(res, 0.3, 0.9, 5.0, 1e-3)
        again = solve_discretized(res, 0.3, 0.9, 5.0, 1e-3)
        np.testing.assert_array_equal(first.c1, again.c1)
        np.testing.assert_array_equal(
            first.reservoir_population, again.reservoir_population
        )

    def test_bitwise_reproducible_at_any_alignment(self):
        # the moments' inner products are BLAS dots, whose order of summation
        # must follow the length alone, never the address of the operands
        rng = np.random.default_rng(19)
        for n in [*range(7, 40), 101, 1000, 4001, 8001]:
            x, y = rng.standard_normal((2, n))
            want = x @ y
            for offset in range(1, 8):
                x_buf, y_buf = np.empty(n + 8), np.empty(n + 8)
                x_moved, y_moved = x_buf[offset:offset + n], y_buf[8 - offset:-offset]
                x_moved[:], y_moved[:] = x, y
                assert x_moved @ y_moved == want
        res = build_discretized(pole_residue_from_model(PRESET), 40.0, 4001)
        want = solve_discretized(res, 0.3, 0.9, 5.0, 1e-3)
        for offset in range(1, 8):
            moved = []
            for values in (res.omegas, res.couplings):
                buffer = np.empty(len(values) + 8)
                moved.append(buffer[offset:offset + len(values)])
                moved[-1][:] = values
            got = solve_discretized(
                DiscretizedReservoir(*moved, res.delta_omega), 0.3, 0.9, 5.0, 1e-3
            )
            assert got.c1.tobytes() == want.c1.tobytes()
            assert (got.reservoir_population.tobytes()
                    == want.reservoir_population.tobytes())
            assert got.metadata == want.metadata


class TestDecayRate:
    def test_markovian_rate_exact(self):
        model = FanoModel(gamma=0.25, kappa=1.0, g_abs=0.0, eta=0.0)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 20.0, 1e-3)
        assert decay_rate(traj, (1.0, 15.0)) == pytest.approx(0.25, abs=1e-10)

    def test_golden_rule_regime(self):
        # weak coupling, detuned: rate tracks 2piJ(omega_A); measured
        # deviation 0.36% (frozen safety margin 5%)
        model = FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=1.0)
        spec = pole_residue_from_model(model)
        from fanomode.spectral import evaluate_J

        predicted = TWO_PI * evaluate_J(spec, model.omega_A)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 60.0, 1e-3)
        fitted = decay_rate(traj, (5.0, 40.0))
        assert fitted == pytest.approx(predicted, rel=0.05)

    def test_antiresonance_suppression(self):
        # omega_A at the spectral zero: decay all but freezes
        model = FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=-0.5)
        traj = solve_amplitudes(embed_from_model(model), 1.0, 60.0, 1e-3)
        with pytest.warns(UserWarning, match="not monotone"):
            fitted = decay_rate(traj, (5.0, 40.0))
        assert abs(fitted) < model.gamma / 10.0

    @pytest.mark.parametrize("model, t_max, window", [
        (FanoModel(gamma=0.01, kappa=1.0, g_abs=0.05, eta=1.0, omega_A=1.0),
         60.0, (5.0, 40.0)),
        (FanoModel(gamma=0.25, kappa=1.0, g_abs=0.0, eta=0.0), 20.0, (1.0, 15.0)),
    ])
    def test_master_equation_fits_the_amplitudes_rate(self, model, t_max, window):
        # the QME's |c1|^2 is rho_11; it used to raise for want of a c1
        qme = embed_from_model(model)
        want = decay_rate(solve_amplitudes(qme, 1.0, t_max, 1e-3), window)
        got = decay_rate(solve_qme(qme, 1.0, t_max, 1e-3), window)
        assert got == pytest.approx(want, abs=1e-12)

    def test_window_errors(self):
        traj = solve_amplitudes(embed_from_model(PRESET), 1.0, 5.0, 1e-3)
        with pytest.raises(ParameterError):
            decay_rate(traj, (3.0, 1.0))
        with pytest.raises(ParameterError):
            decay_rate(traj, (4.9995, 4.9996))
        # a window past the run is refused, not fitted on its part inside
        with pytest.raises(ParameterError, match="run's span"):
            decay_rate(traj, (4.0, 6.0))
        with pytest.raises(ParameterError, match="run's span"):
            decay_rate(traj, (np.nan, 4.0))
        zero = solve_amplitudes(embed_from_model(PRESET), 0.0, 5.0, 1e-3)
        with pytest.raises(ParameterError):
            decay_rate(zero, (1.0, 4.0))
        traj.c1[2000] = np.nan  # a NaN population, not a NaN rate
        with pytest.raises(ParameterError, match="strictly positive"):
            decay_rate(traj, (1.0, 4.0))


class TestTrajectory:
    def test_metadata_reproduces_run(self):
        spec = pole_residue_from_model(PRESET)
        traj = solve_volterra(spec, 0.3, 0.9, 2.0, 1e-3)
        meta = traj.metadata
        again = solve_volterra(
            meta["spec"], meta["omega_A"], meta["c1_0"], meta["t_max"], meta["h"]
        )
        np.testing.assert_array_equal(traj.c1, again.c1)

    def test_initial_amplitude_outside_the_unit_disc(self):
        # a NaN c1(0) is refused up front, not run into NaN samples or a
        # StepSizeError that blames the generator
        spec = pole_residue_from_model(PRESET)
        qme = embed_from_model(PRESET)
        reservoir = build_discretized(spec, 40.0, 801)
        solvers = (
            lambda c1_0: solve_volterra(spec, 0.0, c1_0, 1.0, 1e-3),
            lambda c1_0: solve_amplitudes(qme, c1_0, 1.0, 1e-3),
            lambda c1_0: solve_qme(qme, c1_0, 1.0, 1e-3),
            lambda c1_0: solve_discretized(reservoir, 0.0, c1_0, 1.0, 1e-3),
        )
        for solve in solvers:
            for c1_0 in (complex(np.nan, 0.0), 1.1):
                with pytest.raises(ParameterError, match=r"\|c1\(0\)\| must be <= 1"):
                    solve(c1_0)

    def test_time_grid_strictly_increasing(self):
        traj = solve_amplitudes(embed_from_model(PRESET), 1.0, 1.0, 1e-3)
        assert np.all(np.diff(traj.times) > 0)

    def test_time_grid_rejects_partial_last_step(self):
        # t_max = 1 with h = 0.3 used to stop silently at t = 0.9
        qme = embed_from_model(PRESET)
        with pytest.raises(ParameterError, match="multiple of h"):
            solve_amplitudes(qme, 1.0, 1.0, 0.3)
        with pytest.raises(ParameterError, match="multiple of h"):
            solve_qme(qme, 1.0, 1.0, 0.3)
        assert solve_amplitudes(qme, 1.0, 0.9, 0.3).times[-1] == pytest.approx(0.9)

    def test_qme_trajectory_reads_c1_from_rho_11(self):
        # it stores no c1; |c1|^2 is rho_11 and |c1| its square root
        traj = solve_qme(embed_from_model(PRESET), 0.8, 0.1, 1e-3)
        assert traj.c1 is None
        np.testing.assert_array_equal(traj.c1_abs2, traj.rho[:, 1, 1].real)
        np.testing.assert_array_equal(traj.c1_abs, np.sqrt(traj.rho[:, 1, 1].real))
        assert traj.c1_abs2[0] == pytest.approx(0.64, abs=1e-15)


def run_method(method: str, model: FanoModel, t_max: float, h: float):
    """One trajectory from the excited atom, as ``evolve`` runs it."""
    if method == "volterra":
        return solve_volterra(pole_residue_from_model(model), model.omega_A, 1.0,
                              t_max, h)
    if method == "amplitudes":
        return solve_amplitudes(embed_from_model(model), 1.0, t_max, h)
    if method == "qme":
        return solve_qme(embed_from_model(model), 1.0, t_max, h)
    reservoir = build_discretized(pole_residue_from_model(model), 40.0, 801)
    return solve_discretized(reservoir, model.omega_A, 1.0, t_max, h)


# The `evolve` columns of each method.
EVOLVE_COLUMNS = {
    "volterra": ["t", "c1_abs2"],
    "amplitudes": ["t", "c1_abs2", "b1_abs2", "pi_j", "norm_sum"],
    "qme": ["t", "rho_00", "rho_11", "rho_22", "trace", "min_eigenvalue"],
    "discretized": ["t", "c1_abs2", "reservoir_population", "norm_sum"],
}


class TestObservables:
    @pytest.mark.parametrize("method", list(EVOLVE_COLUMNS))
    def test_columns_and_no_violation_on_preset(self, method):
        traj = run_method(method, PRESET, 1.0, 1e-3)
        columns, violations = traj.observables()
        assert list(columns) == EVOLVE_COLUMNS[method]
        assert columns["t"] is traj.times
        assert all(values.shape == traj.times.shape for values in columns.values())
        assert violations == []

    @pytest.mark.parametrize("method", list(EVOLVE_COLUMNS))
    def test_c1_abs(self, method):
        traj = run_method(method, PRESET, 1.0, 1e-3)
        if method == "qme":
            expected = np.sqrt(traj.rho[:, 1, 1].real)
        else:
            expected = np.abs(traj.c1)
        np.testing.assert_array_equal(traj.c1_abs, expected)

    def test_norm_sum_is_the_norm_identity(self):
        traj = run_method("amplitudes", PRESET, 1.0, 1e-3)
        columns, _ = traj.observables()
        np.testing.assert_array_equal(
            columns["norm_sum"],
            abs(traj.c0) ** 2 + traj.c1_abs2 + np.abs(traj.b1) ** 2 + traj.pi_j,
        )

    def test_solve_qme_leaves_the_eigenvalues_to_observables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        traj = solve_qme(embed_from_model(PRESET), 1.0, 1.0, 1e-3)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            traj.observables()

    @pytest.mark.parametrize(
        "method, model, t_max, h, expected",
        [
            ("qme", FanoModel(gamma=0.25, kappa=1.0, g_abs=0.2, eta=1.2), 40.0,
             2e-3, ["density matrix loses positivity (min eigenvalue -4.881e-02)",
                    "jump probability decreases (min increment -1.644e-05)"]),
            ("amplitudes", FanoModel(gamma=0.25, kappa=1.0, g_abs=1.0, eta=1.2),
             20.0, 1e-3, ["jump probability decreases (min increment -8.694e-06)"]),
            # rho_00 is the jump probability: the same decrease as amplitudes
            ("qme", FanoModel(gamma=0.25, kappa=1.0, g_abs=1.0, eta=1.2),
             20.0, 1e-3, ["jump probability decreases (min increment -8.694e-06)"]),
            # a coarse step is exact: the norm identity holds
            ("amplitudes", FanoModel(gamma=0.25, kappa=1.0, g_abs=5.0, eta=1.0),
             20.0, 0.5, []),
        ],
        ids=["qme_non_lindblad", "amplitudes_non_lindblad", "qme_jump_decrease",
             "amplitudes_coarse_h"],
    )
    def test_violations(self, method, model, t_max, h, expected):
        assert run_method(method, model, t_max, h).observables()[1] == expected

    @pytest.mark.parametrize(
        "method, population, expected",
        [
            ("amplitudes", "pi_j",
             ["jump probability decreases (min increment nan)",
              "norm identity drifts by nan"]),
        ],
    )
    def test_nan_fails_every_check(self, method, population, expected):
        traj = run_method(method, PRESET, 1.0, 1e-3)
        samples = getattr(traj, population)
        samples[500] = np.nan
        assert traj.observables()[1] == expected

    @pytest.mark.parametrize(
        "stage, corrupt, expected",
        [
            # mu_7 set to 1 + 1e-9 also moves psi_0 by O(1)
            ("_star_moments", lambda mu: mu.__setitem__(7, 1.0 + 1e-9),
             ["star moments leave [-1, 1] (max |mu_k| - mu_0 = 1.000e-09)",
              "|psi_0| exceeds 1 by 1.850e-01"]),
            # every weight 1e-9 too large: psi_0(0) = sum_n w_n misses 1,
            # and |psi_0| leaves the unit disc
            ("_chebyshev_nodes",
             lambda nodes_weights: nodes_weights[1].__imul__(1.0 + 1e-9),
             ["psi_0(0) misses 1 by 1.000e-09", "|psi_0| exceeds 1 by 1.000e-09"]),
            ("_star_moments", lambda mu: mu.__setitem__(7, np.nan),
             ["star moments leave [-1, 1] (max |mu_k| - mu_0 = nan)",
              "psi_0(0) misses 1 by nan", "|psi_0| exceeds 1 by nan"]),
        ],
        ids=["moment_above_one", "wrong_weights", "nan"],
    )
    def test_corrupted_moments_are_a_violation(
        self, monkeypatch, stage, corrupt, expected
    ):
        compute = getattr(dynamics, stage)

        def corrupted(*args):
            result = compute(*args)
            corrupt(result)
            return result

        monkeypatch.setattr(dynamics, stage, corrupted)
        assert run_method("discretized", PRESET, 1.0, 1e-3).observables()[1] == expected

