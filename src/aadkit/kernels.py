"""Hot numeric kernels, each one LAPACK or scipy.signal call.

These six functions are the only places where the package runs a dense
factorization or a sample-by-sample filter recurrence. :mod:`aadkit.numerics`
builds its solvers on the first three, the filtering and resampling code on
the last three. Library failures come back as the integer status codes the
callers already map onto :mod:`aadkit.errors`, never as exceptions.

The gammatone resonator is one complex ``sosfilt`` call per band: the
band's identical one-pole stages become that many complex sections, so the
cascade runs in a single pass over the audio.

SciPy is imported on first use, never at module level. The filtering
kernels import ``scipy.signal`` (about a second, and it pulls in
``scipy.linalg``), which the ``wf``, ``cca`` and ``rgc`` decoders never
need. :func:`cholesky_inplace` imports ``scipy.linalg.lapack`` (about 0.3 s),
which only a Wiener-filter solve needs. A run of a decoder that neither
filters nor solves a Cholesky system loads no SciPy module at all.
"""

import numpy as np


def jacobi_sweep(a, v):
    """Diagonalize each symmetric matrix of the stack ``a`` (..., n, n) in
    place with one LAPACK call (``np.linalg.eigh``); a single matrix is a
    stack with no leading axes.

    On return each member of ``a`` is ``diag(eigenvalues)`` and the same
    member of ``v`` has been multiplied on the right by its orthonormal
    eigenvectors, so that the original member equals ``v @ a @ v.T`` when
    ``v`` started as the identity. Eigenvalues are ascending.

    Returns 0, or -1 when LAPACK fails to converge or a spectrum is not
    finite.
    """
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return -1
    if not np.all(np.isfinite(values)):
        return -1
    diag = np.arange(a.shape[-1])
    a[...] = 0.0
    a[..., diag, diag] = values
    v[...] = v @ vectors
    return 0


def svd_sweep(b, v):
    """Thin SVD of each matrix of the stack ``b`` (..., m, n), m >= n, in
    place with one LAPACK call (``np.linalg.svd``); a single matrix is a
    stack with no leading axes.

    On return the columns of each member of ``b`` are ``u_j * s_j``
    (singular values descending) and the same member of ``v`` has been
    multiplied on the right by its right singular vectors, so that the
    original member equals ``b @ v.T`` when ``v`` started as the identity.

    Returns 0, or -1 when LAPACK fails to converge.
    """
    try:
        u, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        return -1
    b[...] = u * s[..., None, :]
    v[...] = v @ vt.swapaxes(-1, -2)
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
    from scipy.linalg import lapack as _lapack

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
    from scipy import signal as _signal

    sos = np.insert(sections, 3, 1.0, axis=1)
    return _signal.sosfilt(sos, x, axis=0)


def resonator_magnitudes(x, poles, gains, n_stages):
    """Per-band magnitude of a cascade of complex one-pole resonators.

    Band ``b`` runs ``n_stages`` times through ``w[t] = in[t] + poles[b] *
    w[t-1]``, as one ``scipy.signal.sosfilt`` call whose ``n_stages``
    complex sections are each ``[1, 0, 0, 1, -poles[b], 0]``; the output
    column is ``gains[b] * |w|``. Returns shape (T, n_bands), C-ordered.
    """
    # sosfilt raises on zero sections and on empty input; both reduce to
    # the gains times |x|
    if n_stages == 0 or x.shape[0] == 0:
        return gains * np.abs(x)[:, None]
    from scipy import signal as _signal

    xc = x.astype(np.complex128)
    sos = np.zeros((n_stages, 6), dtype=np.complex128)
    sos[:, 0] = sos[:, 3] = 1.0
    # band-major, so each band's magnitudes land in one contiguous row
    out = np.empty((poles.shape[0], x.shape[0]))
    for band, (pole, gain) in enumerate(zip(poles, gains)):
        sos[:, 4] = -pole
        out[band] = gain * np.abs(_signal.sosfilt(sos, xc))
    return np.ascontiguousarray(out.T)


def fir_resample(x, h, up, down, n_out):
    """Rational resampling of the columns of ``x`` (T, C) by ``up/down``.

    Zero-stuffs by ``up``, filters with ``h`` (odd length), keeps every
    ``down``-th sample starting at the filter's group delay
    ``(len(h) - 1) // 2``, and returns exactly ``n_out`` rows, zero past the
    end of the filtered signal (``scipy.signal.upfirdn``).
    """
    from scipy import signal as _signal

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
