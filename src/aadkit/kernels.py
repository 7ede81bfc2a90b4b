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

IIR filtering is numpy: each second-order section runs as a block
state-space filter, BLAS products of the input's blocks with matrices
built once per section (see :func:`sosfilt`). The gammatone resonators
run the same way, one state-space system per band for its whole cascade
of identical complex one-pole stages, with matrices built once per bank
(see :func:`resonator_magnitudes`).

Polyphase resampling is a matrix product: the input, cut into rows of a
multiple of the decimation factor, times one table of the filter's taps,
one BLAS call per block of rows (see :func:`fir_resample`).

SciPy is imported by one kernel only, on first use, never at module
level: :func:`cholesky_inplace` imports ``scipy.linalg.lapack`` (about
0.3 s), which only a Wiener-filter solve needs. Synthesis, conditioning,
audio envelopes and every decoder but ``wf`` load no SciPy module at all.
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


# Samples per block of the IIR kernel, and the most blocks per group: the
# Python loop of :func:`sosfilt` takes one step per group of up to 512
# samples.
_IIR_BLOCK = 32
_IIR_GROUP = 16


@functools.lru_cache(maxsize=256)
def _sosfilt_operators(section, count):
    """The matrices ``(F, G)`` of :func:`sosfilt` for one section and
    groups of ``count`` blocks of ``N = _IIR_BLOCK`` samples.

    ``F`` runs the section over one block: with the block's input ``x``
    and the DF2T states ``s = (z0, z1)`` before it, ``[x, s] @ F = [y,
    s']``, its output and the states after it. ``G`` runs the states over
    a group: with ``u_k = x_k @ F[:N, N:]``, the states move by ``s <- s
    @ F[N:, N:] + u_k`` per block, and ``[u_0, ..., u_{count-1}, S] @ G``
    gives, from the group's start state ``S``, the states before each of
    its blocks and after the last. Row ``i`` of each matrix is the
    response to the ``i``-th unit vector, so both come from running the
    recurrences on the identity, in long double so that each entry is
    rounded to float64 once.
    """
    b0, b1, b2, a1, a2 = (np.longdouble(v) for v in section)
    n = _IIR_BLOCK
    basis = np.eye(n + 2, dtype=np.longdouble)
    f = np.empty_like(basis)
    z0, z1 = basis[:, n], basis[:, n + 1]
    for t in range(n):
        x = basis[:, t]
        f[:, t] = y = b0 * x + z0
        z0, z1 = b1 * x - a1 * y + z1, b2 * x - a2 * y
    f[:, n], f[:, n + 1] = z0, z1
    basis = np.eye(2 * count + 2, dtype=np.longdouble)
    g = np.empty_like(basis)
    s = basis[:, 2 * count:]
    for k in range(count):
        g[:, 2 * k : 2 * k + 2] = s
        s = s @ f[n:, n:] + basis[:, 2 * k : 2 * k + 2]
    g[:, 2 * count:] = s
    return f.astype(np.float64), g.astype(np.float64)


def sosfilt(sections, x):
    """Filter the columns of ``x`` (T, C) through second-order sections.

    ``sections`` rows are ``(b0, b1, b2, a1, a2)`` with ``a0 = 1``: direct
    form II transposed with zero initial conditions, one section after
    the other. Returns a (T, C) array whose columns are contiguous, or,
    with no sections, a copy of ``x``.

    Each section runs as a block state-space filter (Burrus 1972): cut
    into blocks of N samples, a column's output is ``[x_k, s_k] @ F`` per
    block, one BLAS product for all blocks once the states ``s_k`` before
    them are known. These follow from one product of each group of up to
    ``_IIR_GROUP`` blocks with ``G`` (:func:`_sosfilt_operators`) and a
    Python loop over the groups that carries the state from one group to
    the next. Every product is batched over columns, one matrix per
    column, so a column's output does not depend on the others; a section
    at a time, so a cascade in one call equals one call per part. The
    error is about that of DF2T itself, below 1e-13 of the output's peak
    on the package's designs.
    """
    t_len, n_ch = x.shape
    if t_len == 0 or len(sections) == 0:
        return np.array(x, dtype=np.float64)
    n = _IIR_BLOCK
    blocks = -(-t_len // n)
    groups = -(-blocks // _IIR_GROUP)
    count = -(-blocks // groups)
    blocks = groups * count
    # per column, each block's samples and then the states before it;
    # zeros past the end change no output before it
    cur = np.zeros((n_ch, blocks, n + 2))
    full, rest = divmod(t_len, n)
    cur[:, :full, :n] = x[: full * n].T.reshape(n_ch, full, n)
    if rest:
        cur[:, full, :rest] = x[full * n:].T
    nxt = np.empty_like(cur)
    for section in np.asarray(sections, dtype=np.float64).tolist():
        f, g = _sosfilt_operators(tuple(section), count)
        u = (cur[..., :n] @ f[:n, n:]).reshape(n_ch, groups, 2 * count)
        z = u @ g[: 2 * count]
        states = z[..., :-2]
        if groups > 1:
            ends = z[:, :-1, -2:].transpose(1, 2, 0)
            starts = np.zeros((groups, 2, n_ch))
            step = g[2 * count:, 2 * count:, None]
            for j in range(1, groups):
                starts[j] = (step * starts[j - 1][:, None]).sum(axis=0)
                starts[j] += ends[j - 1]
            states = states + starts.transpose(2, 0, 1) @ g[2 * count:, :-2]
        cur[..., n:] = states.reshape(n_ch, blocks, 2)
        np.matmul(cur, f[:, :n], out=nxt[..., :n])
        cur, nxt = nxt, cur
    return cur[..., :n].reshape(n_ch, blocks * n)[:, :t_len].T


# Samples per block of the resonator kernel, blocks per group of its state
# recurrence (the Python loop of :func:`resonator_magnitudes` takes one
# step per 1,024 samples), and blocks per chunk of its output products.
_RES_BLOCK = 64
_RES_GROUP = 16
_RES_CHUNK = 32


@functools.lru_cache(maxsize=8)
def _resonator_operators(poles, n_stages):
    """The matrices ``(W, U, G)`` of :func:`resonator_magnitudes` for one
    bank: ``poles`` a tuple of B complex poles, ``m = n_stages``, blocks of
    ``N = _RES_BLOCK`` samples and groups of ``K = _RES_GROUP`` blocks.

    A band's state ``s`` is the last output of each of its ``m`` stages.
    ``W[b]`` (N + 2m, 2N) maps a block's real input and the interleaved
    real and imaginary parts of the states before it, ``[x, Re s_1, Im
    s_1, ...]``, to its output, interleaved the same way. ``U`` (N, 2mB)
    maps a block's input to every band's states after it from zero states,
    ``u``. ``G[b]`` runs the states over a group: with the states moving
    by ``s <- s @ D + u_k`` per block, ``[u_0, ..., u_{K-1}, S] @ G[b]``
    gives, from the group's start state ``S``, the states before each of
    its blocks and after the last. Row ``i`` of each matrix is the
    response to the ``i``-th unit vector, so all come from running the
    recurrences on the identity, in long double so that each entry is
    rounded to float64 once. The arrays are read-only: every call on the
    bank shares them.
    """
    n, m, k = _RES_BLOCK, n_stages, _RES_GROUP
    p = np.array(poles, dtype=np.clongdouble)[:, None]
    basis = np.eye(n + m, dtype=np.clongdouble)
    f = np.empty((p.shape[0], n + m, n + m), dtype=np.clongdouble)
    w = [basis[n + i] for i in range(m)]
    for t in range(n):
        v = basis[t]
        for i in range(m):
            w[i] = v = v + p * w[i]
        f[..., t] = v
    for i in range(m):
        f[..., n + i] = w[i]
    out_op = np.empty((p.shape[0], n + 2 * m, n), dtype=np.clongdouble)
    out_op[:, :n] = f[:, :n, :n]
    out_op[:, n::2] = f[:, n:, :n]
    out_op[:, n + 1::2] = 1j * f[:, n:, :n]
    in_op = f[:, :n, n:].transpose(1, 0, 2).astype(np.complex128)
    basis = np.eye((k + 1) * m, dtype=np.clongdouble)
    g = np.empty((p.shape[0],) + basis.shape, dtype=np.clongdouble)
    s = np.broadcast_to(basis[:, k * m:], g[..., :m].shape)
    for j in range(k):
        g[..., j * m:(j + 1) * m] = s
        s = s @ f[:, n:, n:] + basis[:, j * m:(j + 1) * m]
    g[..., k * m:] = s
    ops = (out_op.astype(np.complex128).view(np.float64),
           in_op.view(np.float64).reshape(n, -1), g.astype(np.complex128))
    for a in ops:
        a.setflags(write=False)
    return ops


def resonator_magnitudes(x, poles, gains, n_stages):
    """Per-band magnitude of a cascade of complex one-pole resonators.

    Band ``b`` runs the real input ``x`` (T,) ``n_stages`` times through
    ``w[t] = in[t] + poles[b] * w[t-1]`` from zero; the output column is
    ``gains[b] * |w|``. Returns shape (T, n_bands), float64, C-ordered.

    Each band's cascade runs as one ``n_stages``-state block state-space
    filter (Burrus 1972), as :func:`sosfilt` runs a section: cut into
    blocks of N samples, the states before every block follow from one
    product per group of ``_RES_GROUP`` blocks and a Python loop over the
    groups, batched over bands; then a block's output is one real product
    ``[x_k, Re s_k, Im s_k] @ W[b]`` (:func:`_resonator_operators`) whose
    interleaved columns read as complex. The output products run
    ``_RES_CHUNK`` blocks at a time for all bands, and each chunk's
    magnitudes go straight into the (T, n_bands) result. Against a
    long-double recurrence the error is below 2e-15 of each band's peak
    on gammatone banks of up to 32 bands and 6 stages at 8 to 48 kHz,
    about half that of ``scipy.signal.sosfilt`` with complex sections.
    """
    t_len, n_bands = x.shape[0], poles.shape[0]
    if n_stages == 0 or t_len == 0:
        return gains * np.abs(x)[:, None]
    n, m, k = _RES_BLOCK, n_stages, _RES_GROUP
    out_op, in_op, g = _resonator_operators(
        tuple(np.asarray(poles, dtype=np.complex128).tolist()), n_stages)
    blocks = -(-t_len // n)
    groups = -(-blocks // k)
    # zeros past the end change no output before it
    xb = np.zeros((groups * k, n))
    xb.reshape(-1)[:t_len] = x
    u = (xb @ in_op).view(np.complex128).reshape(groups, k, n_bands, m)
    z = u.transpose(2, 0, 1, 3).reshape(n_bands, groups, k * m) @ g[:, :k * m]
    states = z[..., :k * m]
    if groups > 1:
        starts = np.zeros((groups, n_bands, 1, m), dtype=np.complex128)
        step = g[:, k * m:, k * m:]
        for j in range(1, groups):
            np.matmul(starts[j - 1], step, out=starts[j])
            starts[j, :, 0] += z[:, j - 1, k * m:]
        states = states + (starts[:, :, 0].transpose(1, 0, 2)
                           @ g[:, k * m:, :k * m])
    states = states.reshape(n_bands, groups * k, m).view(np.float64)

    out = np.empty((t_len, n_bands))
    lhs = np.empty((n_bands, min(_RES_CHUNK, blocks), n + 2 * m))
    for b0 in range(0, blocks, _RES_CHUNK):
        b1 = min(b0 + _RES_CHUNK, blocks)
        t0, t1 = b0 * n, min(b1 * n, t_len)
        part = lhs[:, : b1 - b0]
        part[..., :n] = xb[b0:b1]
        part[..., n:] = states[:, b0:b1]
        y = (part @ out_op).view(np.complex128).reshape(n_bands, -1)
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
