"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fanomode import __version__, cli, dynamics
from fanomode.spectral import FanoModel, evaluate_J


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


def comb_direct(res, omega_A: float, c1_0: complex, times: np.ndarray, order: int):
    """Reference for the comb's Jacobi-Anger sum: from the solver's own
    Chebyshev moments mu_0..mu_order, the folded weight of each angle
    theta_n = 2 pi n / L, n = -L/4..L/4, L = 2K + 4, as its own dense sum
    over k of the real terms mu_k (2 - delta_k0) (-1)^(k/2) 2 cos(k theta)
    (k even) and mu_k 2 (-1)^((k+1)/2) 2 sin(k theta) (k odd) (halved at
    theta = +-pi/2, which has no partner pi - theta), with no FFT; then
    psi_0(t) = sum_n w_n e^{-i lambda_n t} as one dense row of node phases
    per sample.  Returns c1(t)."""
    detunings = res.omegas - omega_A
    norm = math.sqrt(float(res.couplings @ res.couplings))
    low, high, split, _ = dynamics._split_off(detunings, res.couplings, norm)
    assert not split  # a comb whose spectrum the series covers alone
    centre, half_width = 0.5 * (low + high), 0.5 * (high - low)
    mu = dynamics._star_moments(
        detunings, res.couplings, centre, half_width, order, split
    )
    size = 2 * order + 4
    k = np.arange(order + 1)
    n = np.arange(-size // 4, size // 4 + 1)
    theta = 2.0 * math.pi * n / size
    # e^{-ik theta} + e^{-ik (pi - theta)} times (-i)^k; k theta is reduced
    # modulo 2 pi in integers, so each angle is exact to an ulp
    k_theta = (2.0 * math.pi / size) * (np.outer(n, k) % size)
    terms = np.where(k % 2 == 0, np.cos(k_theta), np.sin(k_theta))
    terms *= 2.0 * (-1.0) ** ((k + 1) // 2)
    terms[[0, -1]] *= 0.5
    series = (2.0 - (k == 0)) * mu
    weights = terms @ series / size
    nodes = centre - half_width * np.sin(theta)
    psi = np.array([np.exp(-1j * t * nodes) @ weights for t in times])
    return c1_0 * psi * np.exp(-1j * omega_A * times)


def direct_history(kt, u):
    """Reference: the Gregory history sums with one dot over the whole
    history per step, O(n^2); yields (partial, w_end) for m = 5..n, where
    partial leaves out the implicit endpoint term w_end kt[0] u[m]."""
    n = len(u) - 1
    kt_rev = kt[::-1].copy()
    e0, e1, e2 = dynamics._GREGORY_EDGE
    for m in range(dynamics._START, n + 1):
        total = complex(np.add.reduce(kt_rev[n - m : n] * u[:m]))
        total += (e0 - 1.0) * kt[m] * u[0] + (e1 - 1.0) * kt[m - 1] * u[1]
        total += (e2 - 1.0) * kt[m - 2] * u[2]
        total += (e2 - 1.0) * kt[2] * u[m - 2] + (e1 - 1.0) * kt[1] * u[m - 1]
        yield total, e0


def volterra_per_step(spec, omega_A: float, c1_0: complex, t_max: float, h: float):
    """Reference for the Volterra solver: one implicit Adams-Moulton step at
    a time over the O(n^2) history sums of ``direct_history``, from the
    solver's own start.  Returns c1(t)."""
    n = round(t_max / h)
    damping = math.pi * spec.J0
    delta = spec.z1 - omega_A
    k0 = -2j * math.pi * spec.r1
    times = h * np.arange(max(n, 3) + 1)  # the start reads kt[0..3]
    kt = k0 * np.exp(-1j * delta * times)
    values, derivs = dynamics._volterra_start(kt, damping, c1_0, h)
    u = np.zeros(n + 1, dtype=complex)
    f = np.zeros(max(n + 1, dynamics._START), dtype=complex)
    u[: dynamics._START] = values[: n + 1]
    f[: dynamics._START] = derivs
    for m, (partial, w_end) in enumerate(direct_history(kt[: n + 1], u),
                                         start=dynamics._START):
        denom = 1.0 + (9.0 * h / 24.0) * damping + (9.0 * h * h / 24.0) * w_end * kt[0]
        explicit = u[m - 1] + (h / 24.0) * (
            19.0 * f[m - 1] - 5.0 * f[m - 2] + f[m - 3]
        ) - (9.0 * h * h / 24.0) * partial
        u[m] = explicit / denom
        f[m] = -damping * u[m] - h * (partial + w_end * kt[0] * u[m])
    return u * np.exp(-1j * omega_A * times[: n + 1])


def kernel_quadrature_direct(spec, taus, window: float, n_points: int):
    """Reference for ``spectral._kernel_quadrature``: one complex exponential
    over the whole grid per tau, and each trapezoid sum taken on its own
    slice of that integrand.  Returns (values, estimates)."""

    def integrate(integrand, grid):
        h = grid[1] - grid[0]
        return complex(h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))

    grid = np.linspace(spec.z1.real - window, spec.z1.real + window, n_points)
    f = evaluate_J(spec, grid) - spec.J0
    quarter = (n_points - 1) // 4
    central = slice(quarter, n_points - quarter)
    values = np.empty(len(taus), dtype=complex)
    estimates = np.empty(len(taus))
    for i, tau in enumerate(taus):
        integrand = f * np.exp(-1j * grid * tau)
        value = integrate(integrand, grid)
        if n_points >= 5:
            est_disc = abs(value - integrate(integrand[::2], grid[::2]))
            est_trunc = abs(value - integrate(integrand[central], grid[central]))
        else:
            est_disc = est_trunc = abs(value)
        values[i] = value
        estimates[i] = est_disc + est_trunc
    return values, estimates


def render_reference(command: str, config: dict, output, fmt: str, header: bool) -> str:
    """Reference for ``cli._render``: the whole file as one string, each table
    value formatted on its own with ``f"{v:.17g}"``."""
    table = output.report is None
    if fmt == "json":
        doc = (
            {"columns": output.columns, "rows": output.rows.tolist()}
            if table else dict(output.report)
        )
        if header:
            doc.update(tool=f"fanomode {__version__}", command=command, config=config)
            if table:
                doc.update(units=cli._UNITS_NOTE, meta=output.meta)
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    if header:
        lines += [f"# fanomode {__version__}", f"# command: {command}"]
        if table:
            lines.append(f"# units: {cli._UNITS_NOTE}")
        lines.append(
            "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":"))
        )
        lines += [f"# {key}: {output.meta[key]}" for key in sorted(output.meta)]
        if table:
            lines.append("# columns: " + ",".join(output.columns))
    if table:
        lines += [",".join(f"{v:.17g}" for v in row) for row in output.rows]
    else:
        lines.append("key,value")
        lines += [f"{key},{'' if value is None else value}"
                  for key, value in output.report.items()]
    return "\n".join(lines) + "\n"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
