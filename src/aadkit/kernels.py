"""Hot numeric kernels, each built on LAPACK or BLAS.

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

IIR filtering is numpy, on one block state-space engine: a cascade of
DF2T sections, real or complex, runs as one linear system whose matrices
are built once per cascade (:func:`_operators`), and whose states before
each block of the input come from one routine (:func:`_block_states`);
then the output is BLAS products of the input's blocks. :func:`sosfilt`
runs a whole cascade of second-order sections as one system, and
:func:`resonator_magnitudes` one system per gammatone band for its
cascade of identical complex one-pole stages, all bands at once.

Polyphase resampling is a matrix product: the input, cut into rows of a
multiple of the decimation factor, times one table of the filter's taps,
one BLAS call per block of rows (see :func:`fir_resample`).

SciPy is imported on first use, never at module level, and only for the
Cholesky path: :func:`cholesky_inplace` imports ``scipy.linalg.lapack``
(about 0.3 s) for ``dpotrf``, and :func:`aadkit.numerics.solve_regularized`
imports it for ``dpotrs``; only a Wiener-filter solve needs either.
Synthesis, conditioning, audio envelopes and every decoder but ``wf`` load
no SciPy module at all.
"""

import functools

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
    # of ``a``. Other layouts are factored in a copy, which is copied back.
    from scipy.linalg import lapack as _lapack

    factor, info = _lapack.dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal argument {-info}")
    if not np.may_share_memory(factor, a):
        a[...] = factor.T
    n_done = a.shape[0] if info == 0 else info - 1
    bad = np.flatnonzero(~(np.diagonal(a)[:n_done] ** 2 > tol))
    if bad.size:
        return int(bad[0])
    return -1 if info == 0 else n_done


# Samples per block of the block state-space filters, the most blocks per
# group of their state recurrence (the Python loop of :func:`_block_states`
# takes one step per group of up to 1,024 samples), and blocks per chunk of
# the resonator's output products.
_BLOCK = 64
_GROUP = 16
_CHUNK = 32


@functools.lru_cache(maxsize=32)
def _operators(cascades):
    """The matrices ``(W, U, G)`` of the block state-space filter that
    runs ``cascades``: a tuple of P systems, each a tuple of the same
    number of DF2T sections ``(b0, b1, b2, a1, a2)``, real or complex;
    blocks of ``N = _BLOCK`` samples and groups of ``K = _GROUP`` blocks.

    A system's state ``s`` holds the DF2T states ``(z0, z1)`` of each of
    its sections, less those that every block leaves at zero (``z1`` of a
    one-pole section): m of them. ``W[p]`` (N + m, N) maps a block's real
    input and the states before it, ``[x, s]``, to its output, and ``U``
    (N, P m) maps a block's input to every system's states after it from
    zero states. Both are float64: for complex systems a state or output
    is an interleaved real and imaginary pair, so ``W[p]`` is (N + 2m,
    2N) and ``U`` (N, 2Pm). ``G[p]`` runs the states over a group: with
    the states moving by ``s <- s @ D + u_j`` per block, ``[S, u_0, ...,
    u_{K-1}] @ G[p]`` gives, from the group's start state ``S``, the
    states before each of its blocks and after the last. Its (r, j) block
    of m rows and columns is ``D ** (j - r)``, zero for ``j < r``, so its
    leading ``(k + 1) m`` square serves a group of ``k < K`` blocks.

    Row ``i`` of ``W`` and ``U`` is the response to the ``i``-th unit
    vector, so both come from running the sections on the identity; that
    and ``D``'s powers run in long double, so that each entry is rounded
    to float64 once. The arrays are read-only: every call on the same
    cascades shares them.
    """
    coef = np.array(cascades)
    cplx = np.iscomplexobj(coef)
    dt = np.clongdouble if cplx else np.longdouble
    n, k = _BLOCK, _GROUP
    n_sys, n_sec = coef.shape[:2]
    # per section, each coefficient as a column over the systems
    sections = coef.astype(dt).transpose(1, 2, 0)[..., None]
    basis = np.eye(n + 2 * n_sec, dtype=dt)
    f = np.empty((n_sys,) + basis.shape, dtype=dt)
    z = list(basis[n:])
    for t in range(n):
        v = basis[t]
        for i, (b0, b1, b2, a1, a2) in enumerate(sections):
            y = b0 * v + z[2 * i]
            z[2 * i] = b1 * v - a1 * y + z[2 * i + 1]
            z[2 * i + 1] = b2 * v - a2 * y
            v = y
        f[..., t] = v
    f[..., n:] = np.stack(z, axis=-1)
    # states that every block leaves at zero stay zero from a zero start
    live = np.flatnonzero(np.any(f[..., n:] != 0, axis=(0, 1)))
    keep = np.r_[:n, n + live]
    f = f[:, keep][:, :, keep]
    m = f.shape[1] - n
    power = np.broadcast_to(np.eye(m, dtype=dt), (n_sys, m, m))
    g = np.zeros((n_sys, (k + 1) * m, (k + 1) * m), dtype=dt)
    for q in range(k + 1):
        for r in range(k + 1 - q):
            g[:, r * m:(r + 1) * m, (r + q) * m:(r + q + 1) * m] = power
        power = power @ f[:, n:, n:]
    w = f[..., :n]
    if cplx:
        w = np.concatenate([w[:, :n], np.stack(
            [w[:, n:], 1j * w[:, n:]], axis=2).reshape(n_sys, 2 * m, n)], 1)
    u = f[:, :n, n:].transpose(1, 0, 2).reshape(n, n_sys * m)
    out = np.complex128 if cplx else np.float64
    ops = (np.ascontiguousarray(w, out).view(np.float64),
           np.ascontiguousarray(u, out).view(np.float64), g.astype(out))
    for a in ops:
        a.setflags(write=False)
    return ops


def _block_states(u, g):
    """The states before each block from zero states at the start, for
    systems batched over the leading axes: ``u`` (..., blocks, m) holds
    each block's states after it from zero states before it, and ``g`` is
    the matching ``G`` of :func:`_operators`. Returns (..., blocks, m).

    The blocks go in groups of ``k = min(blocks, _GROUP)``, the last one
    zero-padded. One product per group with ``G`` gives the states within
    it from a zero start, and a Python loop over the groups carries each
    group's end state to the next; one more product adds each group's
    start state to the states within it.
    """
    lead, (blocks, m) = u.shape[:-2], u.shape[-2:]
    k = min(blocks, _GROUP)
    groups = -(-blocks // k)
    padded = np.zeros(lead + (groups * k, m), dtype=u.dtype)
    padded[..., :blocks, :] = u
    z = (padded.reshape(lead + (groups, k * m))
         @ g[..., m:(k + 1) * m, :(k + 1) * m])
    states = z[..., :k * m]
    if groups > 1:
        starts = np.zeros((groups,) + lead + (1, m), dtype=z.dtype)
        step = g[..., :m, k * m:(k + 1) * m]
        for j in range(1, groups):
            np.matmul(starts[j - 1], step, out=starts[j])
            starts[j, ..., 0, :] += z[..., j - 1, k * m:]
        states = states + (np.moveaxis(starts[..., 0, :], 0, -2)
                           @ g[..., :m, :k * m])
    return states.reshape(lead + (groups * k, m))[..., :blocks, :]


def sosfilt(sections, x):
    """Filter the columns of ``x`` (T, C) through second-order sections.

    ``sections`` rows are ``(b0, b1, b2, a1, a2)`` with ``a0 = 1``: direct
    form II transposed with zero initial conditions, one section after
    the other. Returns a (T, C) array whose columns are contiguous, or,
    with no sections, a copy of ``x``.

    The whole cascade runs as one block state-space filter (Burrus 1972)
    with two states per section: cut into blocks of N samples, a column's
    output is ``[x_k, s_k] @ W`` per block (:func:`_operators`), one BLAS
    product for all blocks once the states ``s_k`` before them are known
    (:func:`_block_states`). Every product is batched over columns, one
    matrix per column, so a column's output does not depend on the
    others. The error is about that of DF2T itself, below 1e-13 of the
    output's peak on the package's designs; a cascade filtered in one
    call and one filtered a part at a time agree to that error, not bit
    for bit.
    """
    t_len, n_ch = x.shape
    if t_len == 0 or len(sections) == 0:
        return np.array(x, dtype=np.float64)
    n = _BLOCK
    w, u, g = _operators((tuple(map(tuple, np.asarray(
        sections, dtype=np.float64).tolist())),))
    blocks = -(-t_len // n)
    # per column, each block's samples and then the states before it;
    # zeros past the end change no output before it
    lhs = np.zeros((n_ch, blocks, n + u.shape[1]))
    full, rest = divmod(t_len, n)
    lhs[:, :full, :n] = x[: full * n].T.reshape(n_ch, full, n)
    if rest:
        lhs[:, full, :rest] = x[full * n:].T
    lhs[..., n:] = _block_states(lhs[..., :n] @ u, g)
    return (lhs @ w).reshape(n_ch, blocks * n)[:, :t_len].T


def resonator_magnitudes(x, poles, gains, n_stages):
    """Per-band magnitude of a cascade of complex one-pole resonators.

    Band ``b`` runs the real input ``x`` (T,) ``n_stages`` times through
    ``w[t] = in[t] + poles[b] * w[t-1]`` from zero; the output column is
    ``gains[b] * |w|``. Returns shape (T, n_bands), float64, C-ordered.

    Each band's cascade runs as one ``n_stages``-state block state-space
    filter, as :func:`sosfilt` runs its cascade, all bands at once: a
    stage is the DF2T section ``(1, 0, 0, -poles[b], 0)``. The states
    before every block come from :func:`_block_states`; then a block's
    output is one real product ``[x_k, Re s_k, Im s_k] @ W[b]``
    (:func:`_operators`) whose interleaved columns read as complex. The
    output products run ``_CHUNK`` blocks at a time for all bands, and
    each chunk's magnitudes go straight into the (T, n_bands) result.
    Against a long-double recurrence the error is below 2e-15 of each
    band's peak on gammatone banks of up to 32 bands and 6 stages at 8 to
    48 kHz, about half that of ``scipy.signal.sosfilt`` with complex
    sections.
    """
    t_len, n_bands = x.shape[0], poles.shape[0]
    if n_stages == 0 or t_len == 0:
        return gains * np.abs(x)[:, None]
    n = _BLOCK
    w, u, g = _operators(tuple(
        ((1.0, 0.0, 0.0, -p, 0.0),) * n_stages
        for p in np.asarray(poles, dtype=np.complex128).tolist()))
    m = u.shape[1] // (2 * n_bands)
    blocks = -(-t_len // n)
    # zeros past the end change no output before it
    xb = np.zeros((blocks, n))
    xb.reshape(-1)[:t_len] = x
    states = _block_states(
        (xb @ u).view(np.complex128).reshape(blocks, n_bands, m)
        .transpose(1, 0, 2), g)

    out = np.empty((t_len, n_bands))
    lhs = np.empty((n_bands, min(_CHUNK, blocks), n + 2 * m))
    for b0 in range(0, blocks, _CHUNK):
        b1 = min(b0 + _CHUNK, blocks)
        t0, t1 = b0 * n, min(b1 * n, t_len)
        part = lhs[:, : b1 - b0]
        part[..., :n] = xb[b0:b1]
        part[..., n:].view(np.complex128)[...] = states[:, b0:b1]
        y = (part @ w).view(np.complex128).reshape(n_bands, -1)
        np.multiply(np.abs(y[:, : t1 - t0]).T, gains, out=out[t0:t1])
    return out


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
