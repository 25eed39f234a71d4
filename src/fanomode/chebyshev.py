"""Chebyshev propagation of e^{-iHt} from the moments of a state.

Given the Chebyshev moments mu_k = <0|T_k(H')|0> of a real symmetric H
scaled to H' = (H - centre) / half_width with its spectrum in [-1, 1]
(Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967), psi(t) = <0|e^{-iHt}|0>
is the series e^{-i centre t} sum_k (2 - delta_k0) (-i)^k J_k(half_width t)
mu_k.  :func:`_chebyshev_order` cuts it where Kapteyn's bound leaves
nothing in double precision, :func:`_chebyshev_nodes` turns it by
Jacobi-Anger into K + 3 real-weighted frequencies with one FFT, and
:func:`_paired_phase_sum` sums them at every sample of a two-level time grid
in real arithmetic.  The comb oracle,
:func:`fanomode.dynamics.solve_discretized`, takes the moments of its
atom + comb star and calls these three.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import TWO_PI, _phase_table

# The Chebyshev series of e^{-iHt} is cut at the least even order K >= x,
# x = half_width t_max, whose Kapteyn tail r_K^K / (1 - r_K) is <= _CHEB_TAIL; then
# the terms past K, and the aliases of the trapezoid sum on 2K + 4 nodes,
# add up to < 1e-16.
_CHEB_TAIL = 1e-18
# Offset pairs per block of the phase sum: a block's buffer and tables stay
# in cache, and the sum's memory does not grow with K.
_PAIR_BLOCK = 256
# (-i)^k, k mod 4, exactly.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _chebyshev_order(x: float) -> int:
    """Least even K >= x with r_K^K / (1 - r_K) <= _CHEB_TAIL, where

        r_k = z e^{sqrt(1 - z^2)} / (1 + sqrt(1 - z^2)),  z = x / k.

    By Kapteyn's inequality (DLMF 10.14.5) |J_k(x)| <= r_k^k for k >= x.
    r_k falls with k, so r_K^K / (1 - r_K) bounds the sum of |J_k(x)| over
    all k >= K, the terms cut off and the FFT's aliases alike, and falls
    with K.  At k = e x, r_k < 1/2, so K <= max(e x, 64) and a bisection
    on the bound finds it in O(log x) steps.  An x that
    underflows to 0 needs mu_0 alone; K is at least 2.
    """

    def above(k):
        z = x / k
        root = math.sqrt(1.0 - z * z)
        r = z * math.exp(root) / (1.0 + root)
        return r >= 1.0 or r**k > _CHEB_TAIL * (1.0 - r)

    low, high = max(math.ceil(x), 1), max(math.ceil(math.e * x), 64)
    if not above(low):
        high = low
    while high - low > 1:  # above(low) and not above(high)
        mid = (low + high) // 2
        low, high = (mid, high) if above(mid) else (low, mid)
    return high + high % 2


def _chebyshev_nodes(
    mu: np.ndarray, centre: float, half_width: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes lambda_n and real weights w_n with
    <0'|e^{-iHt}|0'> = sum_n w_n e^{-i lambda_n t} for |t| half_width <= x,
    x the argument of :func:`_chebyshev_order`.

    By Jacobi-Anger, J_k(z) is the mean of e^{i(z sin theta - k theta)} over
    the circle, so the Chebyshev series of psi_0(t) (Tal-Ezer & Kosloff, J.
    Chem. Phys. 81 (1984) 3967) is a mean of
    e^{-i(centre - half_width sin theta) t} against the weight
    sum_k (2 - delta_k0) (-i)^k mu_k e^{-ik theta}.  Its
    trapezoid sum on L = 2K + 4 angles theta_n = 2 pi n / L is one FFT; it
    errs only by the Bessel terms of order >= L - K > K.  The angles theta
    and pi - theta share their node, so n runs over -L/4..L/4 and each pair
    is folded into one real weight (the imaginary parts cancel).  The K + 3
    nodes come in mirror pairs lambda_{+-n} = centre -+ half_width sin
    theta_n about the centre node lambda_0 = centre, in order of n.
    """
    order = len(mu) - 1
    size = 2 * order + 4
    series = mu * _MINUS_I_POWERS[np.arange(order + 1) % 4]
    series[1:] *= 2.0
    spectrum = np.fft.fft(series, size)
    angles = np.arange(-size // 4, size // 4 + 1)
    weights = spectrum[angles]
    weights[1:-1] += spectrum[size // 2 - angles[1:-1]]
    nodes = centre - half_width * np.sin((TWO_PI / size) * angles)
    return nodes, weights.real / size


def _paired_phase_sum(
    nodes: np.ndarray, weights: np.ndarray, centre: float, h: float, n: int
) -> np.ndarray:
    """sum_n w_n e^{-i lambda_n t} at t = j h, j < n, for the mirror-paired
    ``nodes`` of :func:`_chebyshev_nodes`, in real arithmetic, over the
    two-level index j = b m + r, m = ceil(sqrt(n)).

    With o_n = centre - lambda_n the pair lambda_{+-n} sums to
    e^{-i centre t} [s_n cos(o_n t) + i d_n sin(o_n t)], s_n = w_n + w_-n
    and d_n = w_n - w_-n; the centre node is the pair o_0 = 0, s_0 = w_0,
    d_0 = 0.  With E = e^{i o b m h} and F = e^{-i o r h}, the tables of
    :func:`fanomode.spectral._phase_table`, the real parts over the
    imaginary parts negated are one real product

        [E s_n; i E d_n] @ [Re F; Im F]

    of the interleaved real and imaginary parts, taken _PAIR_BLOCK pairs at
    a time into one preallocated buffer: half the multiply-adds of the
    complex product over all nodes, and 2 (sqrt(rows) + sqrt(m))
    exponentials per pair.
    """
    mid = len(nodes) // 2
    offsets = centre - nodes[mid:]
    sums = weights[mid:] + weights[mid::-1]
    sums[0] *= 0.5
    diffs = 1j * (weights[mid:] - weights[mid::-1])
    m = math.isqrt(n - 1) + 1
    rows = -(-n // m)
    parts = np.zeros((2 * rows, m))
    buffer = np.empty(2 * rows * min(len(offsets), _PAIR_BLOCK), dtype=complex)
    for block in range(0, len(offsets), _PAIR_BLOCK):
        o, s, d = (x[block : block + _PAIR_BLOCK] for x in (offsets, sums, diffs))
        left = buffer[: 2 * rows * len(o)].reshape(2 * rows, len(o))
        table = _phase_table(-o, m * h, rows)
        np.multiply(table, s, out=left[:rows])
        np.multiply(table, d, out=left[rows:])
        parts += left.view(float) @ _phase_table(o, h, m).view(float).T
    real, imag = np.split(parts, 2)
    carrier = _phase_table(np.array([centre]), h, n)[:, 0]
    return (real - 1j * imag).reshape(-1)[:n] * carrier
