"""The six kernels against small literal references written as plain loops."""

import math

import numpy as np
import pytest

from aadkit import kernels, numerics


def sosfilt_reference(sections, x):
    """Direct form II transposed, zero initial conditions, one sample at a
    time."""
    y = x.copy()
    for c in range(x.shape[1]):
        for b0, b1, b2, a1, a2 in sections:
            z0 = z1 = 0.0
            for t in range(x.shape[0]):
                xt = y[t, c]
                yt = b0 * xt + z0
                z0 = b1 * xt - a1 * yt + z1
                z1 = b2 * xt - a2 * yt
                y[t, c] = yt
    return y


def fir_resample_reference(x, h, up, down, n_out):
    """Zero-stuff, full convolution, then every ``down``-th sample from the
    group delay on; zero past the end of the convolution."""
    delay = (len(h) - 1) // 2
    idx = np.arange(n_out) * down + delay
    y = np.zeros((n_out, x.shape[1]))
    for c in range(x.shape[1]):
        stuffed = np.zeros(x.shape[0] * up)
        stuffed[::up] = x[:, c]
        full = np.convolve(stuffed, h)
        inside = idx < full.size
        y[inside, c] = full[idx[inside]]
    return y


def resonator_reference(x, poles, gains, n_stages):
    out = np.empty((len(x), len(poles)))
    for b, (pole, gain) in enumerate(zip(poles, gains)):
        w = [complex(v) for v in x]
        for _ in range(n_stages):
            acc = 0j
            for t in range(len(w)):
                acc = w[t] + pole * acc
                w[t] = acc
        out[:, b] = [gain * abs(v) for v in w]
    return out


def test_sosfilt_bit_identical_to_loop(rng):
    sos = np.array([[0.2, 0.1, 0.05, -0.3, 0.2], [0.5, 0.0, -0.5, 0.1, 0.05]])
    x = rng.standard_normal((64, 3))
    assert np.array_equal(kernels.sosfilt(sos, x), sosfilt_reference(sos, x))


@pytest.mark.parametrize("up, down", [(8, 25), (25, 4), (1, 2)])
def test_fir_resample_matches_convolution(rng, up, down):
    x = rng.standard_normal((125, 2))
    h = np.kaiser(31, 5.0) * np.sinc(0.3 * (np.arange(31) - 15))
    n_out = math.ceil(125 * up / down)
    # past the last input sample the output must run out into zeros
    for n in (n_out, n_out + 40):
        y = kernels.fir_resample(x, h, up, down, n)
        ref = fir_resample_reference(x, h, up, down, n)
        assert y.shape == (n, 2)
        assert np.allclose(y, ref, rtol=0, atol=1e-12)
    assert np.all(y[n_out + 20 :] == 0.0)


def test_resonator_matches_complex_recurrence(rng):
    x = rng.standard_normal(200)
    poles = 0.95 * np.exp(2j * np.pi * np.array([0.05, 0.11, 0.2]))
    gains = (1 - np.abs(poles)) ** 4
    m = kernels.resonator_magnitudes(x, poles, gains, 4)
    ref = resonator_reference(x, poles, gains, 4)
    assert m.shape == (200, 3)
    assert np.max(np.abs(m - ref) / np.abs(ref)) < 1e-12


class TestCholesky:
    def test_spd_factor_in_lower_triangle(self, rng):
        a = rng.standard_normal((10, 10))
        a = a @ a.T + 10 * np.eye(10)
        fac = a.copy()
        assert kernels.cholesky_inplace(fac, 1e-14) == -1
        assert np.allclose(np.tril(fac), np.linalg.cholesky(a), atol=1e-12)
        assert np.array_equal(np.triu(fac, 1), np.triu(a, 1))

    def test_indefinite_returns_failing_pivot(self):
        a = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 3.0], [0.0, 3.0, 1.0]])
        # pivots: 4, 5 - 1 = 4, 1 - 9/4 < 0
        assert kernels.cholesky_inplace(a.copy(), 1e-12) == 2
        assert kernels.cholesky_inplace(np.diag([1.0, -1.0, 2.0]), 0.0) == 1

    def test_rank_deficient_returns_first_null_pivot(self, rng):
        g = rng.standard_normal((5, 2))
        a = g @ g.T  # rank 2: the third pivot is roundoff
        assert kernels.cholesky_inplace(a.copy(), 1e-13 * np.trace(a) / 5) == 2

    def test_pivot_at_tolerance_counts_as_failure(self):
        a = np.diag([1.0, 1e-20, 1.0])
        assert kernels.cholesky_inplace(a.copy(), 1e-13) == 1
        assert kernels.cholesky_inplace(a.copy(), 0.0) == -1


def test_jacobi_sweep_diagonalizes(rng):
    s = rng.standard_normal((12, 12))
    s = 0.5 * (s + s.T)
    a, v = s.copy(), np.eye(12)
    assert kernels.jacobi_sweep(a, v) == 0
    assert np.array_equal(a, np.diag(np.diag(a)))
    assert np.allclose(v @ a @ v.T, s, atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(12), atol=1e-12)


def test_sym_eig_descending(rng):
    s = rng.standard_normal((12, 12))
    s = 0.5 * (s + s.T)
    values, vectors = numerics.sym_eig(s)
    assert np.all(np.diff(values) <= 0)
    assert np.allclose((vectors * values) @ vectors.T, s, atol=1e-12)


def test_svd_sweep_factors(rng):
    m = rng.standard_normal((9, 5))
    b, v = m.copy(), np.eye(5)
    assert kernels.svd_sweep(b, v) == 0
    assert np.allclose(b @ v.T, m, atol=1e-12)
    s = np.linalg.norm(b, axis=0)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(b.T @ b, np.diag(s**2), atol=1e-12)


@pytest.mark.parametrize("wide", [False, True])
def test_svd_zero_singular_value(rng, wide):
    m = rng.standard_normal((9, 5))
    m[:, 4] = m[:, 3]
    if wide:
        m = m.T
    u, s, v = numerics.svd(m)
    assert s[-1] == 0.0
    assert np.all(np.diff(s) <= 0)
    assert np.allclose((u * s) @ v.T, m, atol=1e-12)
    assert np.allclose(u.T @ u, np.eye(5), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(5), atol=1e-12)
