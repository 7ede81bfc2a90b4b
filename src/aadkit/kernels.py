"""Hot numeric kernels, each one LAPACK or scipy.signal call.

These six functions are the only places where the package runs a dense
factorization or a sample-by-sample filter recurrence. :mod:`aadkit.numerics`
builds its solvers on the first three, the filtering and resampling code on
the last three. Library failures come back as the integer status codes the
callers already map onto :mod:`aadkit.errors`, never as exceptions.
"""

import numpy as np
from scipy import signal as _signal
from scipy.linalg import lapack as _lapack


def jacobi_sweep(a, v, tol=None, max_sweeps=None):
    """Diagonalize symmetric ``a`` in place with LAPACK (``np.linalg.eigh``).

    On return ``a`` is ``diag(eigenvalues)`` and ``v`` has been multiplied
    on the right by the orthonormal eigenvectors, so that the original
    ``a`` equals ``v @ a @ v.T`` when ``v`` started as the identity.
    Eigenvalues are ascending. ``tol`` and ``max_sweeps`` are ignored:
    LAPACK applies its own convergence test.

    Returns 0, or -1 when LAPACK fails to converge or the spectrum is not
    finite.
    """
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return -1
    if not np.all(np.isfinite(values)):
        return -1
    a[...] = np.diag(values)
    v[...] = v @ vectors
    return 0


def svd_sweep(b, v, tol=None, max_sweeps=None):
    """Thin SVD of ``b`` (m >= n) in place with LAPACK (``np.linalg.svd``).

    On return the columns of ``b`` are ``u_j * s_j`` (singular values
    descending) and ``v`` has been multiplied on the right by the right
    singular vectors, so that the original ``b`` equals ``b @ v.T`` when
    ``v`` started as the identity. ``tol`` and ``max_sweeps`` are ignored,
    as in :func:`jacobi_sweep`.

    Returns 0, or -1 when LAPACK fails to converge.
    """
    try:
        u, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        return -1
    b[...] = u * s
    v[...] = v @ vt.T
    return 0


def cholesky_inplace(a, tol):
    """Lower Cholesky factor of symmetric ``a`` with LAPACK ``dpotrf``.

    The factor overwrites the lower triangle of ``a``; the strict upper
    triangle is left as it was. Pivot ``j`` counts as positive only when
    ``L[j, j] ** 2 > tol``.

    Returns the index of the first pivot that is not positive, or -1 when
    all are.
    """
    # dpotrf on the transposed (Fortran-ordered) view of a C-ordered ``a``
    # factors in place: its upper factor U = L^T lands on the lower triangle
    # of ``a``. The copy back below only moves data for other layouts.
    factor, info = _lapack.dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal argument {-info}")
    a[...] = factor.T
    n_done = a.shape[0] if info == 0 else info - 1
    bad = np.flatnonzero(~(np.diagonal(a)[:n_done] ** 2 > tol))
    if bad.size:
        return int(bad[0])
    return -1 if info == 0 else n_done


def sosfilt(sections, x):
    """Filter the columns of ``x`` (T, C) through second-order sections.

    ``sections`` rows are ``(b0, b1, b2, a1, a2)`` with ``a0 = 1``; direct
    form II transposed with zero initial conditions (``scipy.signal.sosfilt``).
    """
    sos = np.insert(sections, 3, 1.0, axis=1)
    return _signal.sosfilt(sos, x, axis=0)


def resonator_magnitudes(x, poles, gains, n_stages):
    """Per-band magnitude of a cascade of complex one-pole resonators.

    Band ``b`` runs ``n_stages`` times through ``w[t] = in[t] + poles[b] *
    w[t-1]`` (``scipy.signal.lfilter`` per stage); the output column is
    ``gains[b] * |w|``. Returns shape (T, n_bands).
    """
    out = np.empty((x.shape[0], poles.shape[0]))
    for band, (pole, gain) in enumerate(zip(poles, gains)):
        w = x
        for _ in range(n_stages):
            w = _signal.lfilter([1.0], [1.0, -pole], w)
        out[:, band] = gain * np.abs(w)
    return out


def fir_resample(x, h, up, down, n_out):
    """Rational resampling of the columns of ``x`` (T, C) by ``up/down``.

    Zero-stuffs by ``up``, filters with ``h`` (odd length), keeps every
    ``down``-th sample starting at the filter's group delay
    ``(len(h) - 1) // 2``, and returns exactly ``n_out`` rows, zero past the
    end of the filtered signal (``scipy.signal.upfirdn``).
    """
    delay = (h.shape[0] - 1) // 2
    # leading zeros on h shift the delay onto a multiple of ``down``
    pad = -delay % down
    full = _signal.upfirdn(np.concatenate([np.zeros(pad), h]), x, up, down,
                           axis=0)
    start = (delay + pad) // down
    y = np.zeros((n_out, x.shape[1]))
    kept = full[start : start + n_out]
    y[: kept.shape[0]] = kept
    return y
