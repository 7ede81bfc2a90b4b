"""Hot numeric kernels, each built on LAPACK, BLAS or one scipy.signal call.

The decoders run every dense factorization in the first three of these
six functions, and the package runs every sample-by-sample filter
recurrence and resampling filter in the last three; the one other
factorization is the QR call that draws the synthetic generator's spatial
patterns. :mod:`aadkit.numerics` builds its solvers on the first three,
the filtering and resampling code on the last three. Library failures
come back as the integer status codes the callers already map onto
:mod:`aadkit.errors`, never as exceptions.

The eigen and SVD kernels pass LAPACK's factors on as they come, in the
list their caller hands them: eigenvalues ascending, singular values
descending. The package's own order and tolerance rules are
:mod:`aadkit.numerics`' business.

The gammatone resonator is one complex ``sosfilt`` call per band: the
band's identical one-pole stages become that many complex sections, so the
cascade runs in a single pass over the audio.

Polyphase resampling is a matrix product: the input, cut into rows of a
multiple of the decimation factor, times one table of the filter's taps,
one BLAS call per block of rows (see :func:`fir_resample`).

SciPy is imported on first use, never at module level. The filtering
kernels import ``scipy.signal`` (about a second, and it pulls in
``scipy.linalg``), which the ``wf``, ``cca`` and ``rgc`` decoders never
need; resampling needs no SciPy. :func:`cholesky_inplace` imports
``scipy.linalg.lapack`` (about 0.3 s), which only a Wiener-filter solve
needs. A run of a decoder that neither filters nor solves a Cholesky
system loads no SciPy module at all.
"""

import numpy as np


def jacobi_sweep(a, out):
    """Eigendecomposition of each symmetric matrix of the stack ``a``
    (..., n, n) with one LAPACK call (``np.linalg.eigh``); a single matrix
    is a stack with no leading axes. ``a`` is left as it was.

    On success the list ``out`` holds eigh's ``[values, vectors]``: values
    (..., n) ascending, and vectors (..., n, n) whose orthonormal columns
    are the matching eigenvectors.

    Returns 0, or -1 when LAPACK fails to converge or a spectrum is not
    finite.
    """
    try:
        out[:] = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return -1
    return 0 if np.all(np.isfinite(out[0])) else -1


def svd_sweep(b, out):
    """Thin SVD of each matrix of the stack ``b`` (..., m, n) with one
    LAPACK call (``np.linalg.svd``); a single matrix is a stack with no
    leading axes, and it may be tall or wide. ``b`` is left as it was.

    On success the list ``out`` holds svd's ``[u, s, vt]`` with
    ``k = min(m, n)``: ``u`` (..., m, k) and ``vt`` (..., k, n) with
    orthonormal columns and rows, ``s`` (..., k) descending, so that each
    member equals ``(u * s) @ vt``.

    Returns 0, or -1 when LAPACK fails to converge.
    """
    try:
        out[:] = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        return -1
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
        row = out[band]
        np.abs(_signal.sosfilt(sos, xc), out=row)
        row *= gain
    return np.ascontiguousarray(out.T)


# Rows of the resampling product hold a multiple of ``down`` samples, at
# least this many: shorter rows leave BLAS a short inner dimension and more
# shifted slices to add, longer ones multiply more zero taps.
_MIN_ROW = 50
# bytes of product computed at a time, so that it stays in a core's L2 cache
_BLOCK_BYTES = 1 << 20


def fir_resample(x, h, up, down, n_out):
    """Rational resampling of the columns of ``x`` (T, C) by ``up/down``.

    Zero-stuffs by ``up``, filters with ``h`` (odd length), keeps every
    ``down``-th sample starting at the filter's group delay
    ``(len(h) - 1) // 2``, and returns exactly ``n_out`` rows, zero past the
    end of the filtered signal.

    Only kept outputs are computed: output ``k`` is
    ``sum_s h[k*down + delay - up*s] * x[s]``. With ``U = m*up`` and
    ``D = m*down`` for a row multiple ``m``, output ``k = U*a + b`` and
    input ``s = D*(a + j) + r`` (``0 <= b < U``, ``0 <= r < D``) meet
    through tap ``h[b*down + delay - up*(D*j + r)]``, which does not depend
    on ``a`` (polyphase decimation; Crochiere & Rabiner 1983, *Multirate
    DSP*, ch. 3). So the zero-padded input, cut into rows of ``D`` samples,
    is multiplied by one ``(n_c*U, D)`` tap table, one BLAS product per
    block of rows, and output row ``a`` sums, over the ``n_c`` values of
    ``j``, the ``U`` columns of slot ``j`` in the product of input row
    ``a + j``.
    """
    n_in, n_ch = x.shape
    taps = h.shape[0]
    delay = (taps - 1) // 2
    y = np.zeros((n_out, n_ch))
    # outputs whose window lies past the last input sample stay zero
    n_live = min(n_out, max(0, ((n_in - 1) * up + taps - 1 - delay) // down
                            + 1))
    if n_live == 0:
        return y
    m = -(-_MIN_ROW // down)
    big_up, big_down = m * up, m * down
    # the slots j whose taps fall inside h for some (r, b)
    j_lo = -((up * (big_down - 1) + taps - 1 - delay) // (up * big_down))
    j_hi = ((big_up - 1) * down + delay) // (up * big_down)
    n_c = j_hi - j_lo + 1
    idx = (np.arange(big_up)[:, None] * down + delay
           - up * (big_down * np.arange(j_lo, j_hi + 1)[:, None, None]
                   + np.arange(big_down)))
    table = np.where((idx >= 0) & (idx < taps), h.take(idx, mode="clip"),
                     0.0).reshape(n_c * big_up, big_down)

    # input row q holds samples [big_down*(q + j_lo), big_down*(q + j_lo + 1))
    n_a = -(-n_live // big_up)
    rows = n_a + n_c - 1
    acc = np.zeros((big_up, n_a, n_ch))
    step = min(rows, max(1, _BLOCK_BYTES // (8 * n_c * big_up * n_ch)))
    buf = np.empty(n_c * big_up * step * n_ch)
    for q0 in range(0, rows, step):
        q1 = min(q0 + step, rows)
        s0, s1 = (q0 + j_lo) * big_down, (q1 + j_lo) * big_down
        if 0 <= s0 and s1 <= n_in:
            part = x[s0:s1]
        else:
            part = np.zeros((s1 - s0, n_ch))
            lo, hi = max(s0, 0), min(s1, n_in)
            if lo < hi:
                part[lo - s0 : hi - s0] = x[lo:hi]
        cols = (q1 - q0) * n_ch
        block = part.reshape(q1 - q0, big_down, n_ch).transpose(1, 0, 2)
        prod = np.matmul(table, block.reshape(big_down, cols),
                         out=buf[: n_c * big_up * cols].reshape(-1, cols))
        prod = prod.reshape(n_c, big_up, q1 - q0, n_ch)
        # slot i (j = j_lo + i) of input row q belongs to output row q - i
        for i in range(n_c):
            lo, hi = max(q0 - i, 0), min(q1 - i, n_a)
            if lo < hi:
                acc[:, lo:hi] += prod[i, :, lo + i - q0 : hi + i - q0]
    y[:n_live] = acc.transpose(1, 0, 2).reshape(n_a * big_up, n_ch)[:n_live]
    return y
