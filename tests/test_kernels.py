"""The six kernels against small literal references written as plain loops;
the eigen and SVD kernels against the numpy.linalg calls whose factors they
pass on, and numerics' rules on top of them."""

import inspect
import math

import numpy as np
import pytest

from aadkit import envelope, kernels, numerics, preprocess, spatial


def sosfilt_reference(sections, x):
    """Direct form II transposed, zero initial conditions, one sample at a
    time (all columns at once), in long double."""
    y = x.T.astype(np.longdouble)
    for b0, b1, b2, a1, a2 in np.asarray(sections, dtype=np.longdouble):
        z0 = np.zeros(y.shape[0], dtype=np.longdouble)
        z1 = z0.copy()
        for t in range(y.shape[1]):
            xt = y[:, t].copy()
            y[:, t] = yt = b0 * xt + z0
            z0 = b1 * xt - a1 * yt + z1
            z1 = b2 * xt - a2 * yt
    return y.T


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


def _package_designs():
    """Every filter the package runs: the conditioning chain's band-pass
    and notch, alone and as the one cascade ``standard_chain`` runs, at
    125 and 250 Hz; the four CSP bands and synth's direction band, at
    40 Hz."""
    designs = {}
    for fs in (125.0, 250.0):
        designs[f"bandpass-{fs:g}"] = preprocess.design_bandpass(
            0.5, 62.0, 8, fs)
        designs[f"notch-{fs:g}"] = preprocess.design_notch(48.0, 52.0, fs)
        designs[f"chain-{fs:g}"] = preprocess._conditioning_cascade(
            (0.5, 62.0), 8, (48.0, 52.0), fs)
    for (lo, hi), cascade in zip(spatial.DEFAULT_BANDS,
                                 spatial._band_cascades(spatial.DEFAULT_BANDS,
                                                        40.0)):
        designs[f"csp-{lo:g}-{hi:g}"] = cascade
    designs["synth-6-14"] = preprocess.design_bandpass(6.0, 14.0, 4, 40.0)
    return {name: d.sections for name, d in designs.items()}


DESIGNS = _package_designs()


def _peak_error(got, want):
    """Largest error relative to the reference's peak."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_sosfilt_matches_long_double_df2t(rng, name):
    """Each design within 1e-12 of the output's peak on 7,500 samples
    (30 s at 250 Hz), several groups of blocks long."""
    x = rng.standard_normal((7500, 3))
    y = kernels.sosfilt(DESIGNS[name], x)
    assert y.shape == x.shape and y.dtype == np.float64
    assert _peak_error(y, sosfilt_reference(DESIGNS[name], x)) < 1e-12


def _edge_lengths():
    """Lengths around half, one and two blocks, half, one and two groups
    of blocks (a shorter input makes one shorter group; past one group,
    the last group is zero-padded) and one chunk of the resonator's output
    products."""
    n, group = kernels._BLOCK, kernels._BLOCK * kernels._GROUP
    edges = (n // 2, n, 2 * n, group // 2, group, 2 * group,
             n * kernels._CHUNK)
    return sorted({1} | {e + d for e in edges for d in (-1, 0, 1)})


@pytest.mark.parametrize("t_len", _edge_lengths())
def test_sosfilt_block_edges(rng, t_len):
    sections = DESIGNS["chain-250"]
    x = rng.standard_normal((t_len, 2))
    y = kernels.sosfilt(sections, x)
    assert y.shape == (t_len, 2)
    assert _peak_error(y, sosfilt_reference(sections, x)) < 1e-12


def test_sosfilt_empty_input_and_no_sections(rng):
    y = kernels.sosfilt(DESIGNS["chain-250"], np.empty((0, 3)))
    assert y.shape == (0, 3)
    x = rng.standard_normal((50, 3))
    y = kernels.sosfilt(np.empty((0, 5)), x)
    assert np.array_equal(y, x) and not np.shares_memory(y, x)


def _stage_cases(rate_pairs):
    """One case per stage that ``preprocess.resample`` runs for each pair
    of rates, with that stage's anti-alias taps."""
    cases = []
    for fs_from, fs_to in rate_pairs:
        fs = fs_from
        for up, down, stage_fs in preprocess._resample_stages(fs_from, fs_to):
            cases.append(pytest.param(up, down, (fs, stage_fs),
                                      id=f"{fs:g}-{stage_fs:g}Hz"))
            fs = stage_fs
    return cases


@pytest.mark.parametrize("up, down, rates", [
    pytest.param(8, 25, None, id="8-25"),
    pytest.param(25, 4, None, id="25-4"),
    pytest.param(1, 2, None, id="1-2"),
] + _stage_cases([
    (250, 40), (500, 40), (1000, 40),  # EEG
    (8000, 40), (16000, 40), (22050, 40), (44100, 40), (48000, 40),  # audio
    (40, 250),
]))
def test_fir_resample_matches_convolution(rng, monkeypatch, up, down, rates):
    """Short toy taps, and the real taps of every resampling stage from
    EEG and audio rates to 40 Hz and from 40 to 250 Hz: on an input longer
    than the filter, one shorter, and a single sample; computed in one
    block and one input row at a time."""
    if rates is None:
        h = np.kaiser(31, 5.0) * np.sinc(0.3 * (np.arange(31) - 15))
    else:
        h = preprocess._antialias_fir(*rates, up)
    delay = (h.size - 1) // 2
    for n_in in (max(125, -(-h.size // up) + 2 * down),
                 h.size // (3 * up) + 1, 1):
        x = rng.standard_normal((n_in, 2))
        n_out = math.ceil(n_in * up / down)
        # from this output on, the filter window lies past the last input
        n_live = ((n_in - 1) * up + h.size - 1 - delay) // down + 1
        ref = fir_resample_reference(x, h, up, down, n_live + 40)
        for n in (n_out, n_live + 40):
            for block_bytes in (kernels._BLOCK_BYTES, 1):
                monkeypatch.setattr(kernels, "_BLOCK_BYTES", block_bytes)
                y = kernels.fir_resample(x, h, up, down, n)
                assert y.shape == (n, 2)
                assert np.allclose(y, ref[:n], rtol=0, atol=1e-12)
                assert np.all(y[n_live:] == 0.0)


def test_resonator_matches_complex_recurrence(rng):
    x = rng.standard_normal(200)
    poles = 0.95 * np.exp(2j * np.pi * np.array([0.05, 0.11, 0.2]))
    gains = (1 - np.abs(poles)) ** 4
    m = kernels.resonator_magnitudes(x, poles, gains, 4)
    ref = resonator_reference(x, poles, gains, 4)
    assert m.shape == (200, 3)
    assert np.max(np.abs(m - ref) / np.abs(ref)) < 1e-12


def resonator_long_double(x, poles, gains, n_stages):
    """The cascade one sample at a time (all bands at once), in long
    double."""
    p = poles.astype(np.clongdouble)
    w = [np.zeros(p.shape, dtype=np.clongdouble) for _ in range(n_stages)]
    y = np.empty((x.shape[0], p.shape[0]), dtype=np.clongdouble)
    for t, v in enumerate(x.astype(np.longdouble)):
        for i in range(n_stages):
            w[i] = v = v + p * w[i]
        y[t] = v
    return gains * np.abs(y)


def _band_peak_error(got, want):
    """Largest error in each band relative to that band's peak."""
    return float(np.max(np.abs(got - want) / np.max(want, axis=0)))


class TestResonatorBitIdentity:
    """The block state-space kernel is within 1e-14 of each band's peak
    of a long-double recurrence; its empty and zero-stage edges are
    exactly ``gains * |x|``, and the envelope applies its formula to the
    kernel's output bit for bit."""

    @pytest.mark.parametrize("fs", [8000, 16000, 48000])
    @pytest.mark.parametrize("n_bands", [1, 3, 17])
    @pytest.mark.parametrize("n_stages", [0, 1, 2, 4])
    @pytest.mark.parametrize("t_len", [0, 1, 2, 200, 16000])
    def test_equals_lfilter_cascade(self, rng, fs, n_bands, n_stages, t_len):
        bank = envelope.gammatone_bank(fs, 50.0, min(5000.0, 0.4 * fs),
                                       n_bands)
        x = rng.standard_normal(t_len)
        m = kernels.resonator_magnitudes(x, bank.poles, bank.gains, n_stages)
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert m.shape == (t_len, n_bands)
        if t_len == 0 or n_stages == 0:
            assert np.array_equal(m, bank.gains * np.abs(x)[:, None])
        else:
            want = resonator_long_double(x, bank.poles, bank.gains, n_stages)
            assert _band_peak_error(m, want) < 1e-14

    def test_envelope_equals_cascade_formula(self, rng):
        bank = envelope.gammatone_bank(16000, 50.0, 5000.0, 17)
        audio = envelope.AudioTrack(0.1 * rng.standard_normal(16000), 16000)
        mags = kernels.resonator_magnitudes(audio.samples, bank.poles,
                                            bank.gains, bank.n_stages)
        summed = np.sum(mags ** 0.6, axis=1)
        res = preprocess.resample(
            preprocess.MultichannelSignal(summed[:, None], 16000), 40.0)
        env = envelope.compute_envelope(audio, bank, 40.0)
        assert np.array_equal(env.samples, np.maximum(res.samples[:, 0], 0.0))


@pytest.mark.parametrize("t_len", _edge_lengths())
def test_resonator_block_edges(rng, t_len):
    bank = envelope.gammatone_bank(16000, 50.0, 5000.0, 17)
    x = rng.standard_normal(t_len)
    m = kernels.resonator_magnitudes(x, bank.poles, bank.gains, 4)
    assert m.shape == (t_len, 17) and m.flags.c_contiguous
    want = resonator_long_double(x, bank.poles, bank.gains, 4)
    assert _band_peak_error(m, want) < 1e-14


def test_resonator_operators_built_once_per_bank(rng):
    """The operators depend on the bank alone, not on the input length."""
    bank = envelope.gammatone_bank(16000, 50.0, 5000.0, 17)
    kernels._operators.cache_clear()
    for t_len in (1, 1000, 80000):
        kernels.resonator_magnitudes(rng.standard_normal(t_len), bank.poles,
                                     bank.gains, bank.n_stages)
    info = kernels._operators.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_sosfilt_operators_built_once_per_cascade(rng):
    """One cascade filtered at lengths of one group and of many groups of
    blocks builds its operators once."""
    kernels._operators.cache_clear()
    for t_len in (200, 400, 7500, 75000):
        kernels.sosfilt(DESIGNS["chain-250"], rng.standard_normal((t_len, 1)))
    info = kernels._operators.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_public_kernels_are_plain_functions():
    """The benchmark's tracer wraps only plain functions, so a decorated
    kernel would drop out of its trace silently; caches stay on private
    functions."""
    public = {name: obj for name, obj in vars(kernels).items()
              if callable(obj) and not name.startswith("_")}
    assert sorted(public) == ["cholesky_inplace", "fir_resample",
                              "jacobi_sweep", "resonator_magnitudes",
                              "sosfilt", "svd_sweep"]
    assert all(inspect.isfunction(obj) for obj in public.values())


class TestCholesky:
    def test_spd_factor_in_lower_triangle(self, rng):
        a = rng.standard_normal((10, 10))
        a = a @ a.T + 10 * np.eye(10)
        fac = a.copy()
        assert kernels.cholesky_inplace(fac, 1e-14) == -1
        assert np.allclose(np.tril(fac), np.linalg.cholesky(a), atol=1e-12)
        assert np.array_equal(np.triu(fac, 1), np.triu(a, 1))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_every_layout_gets_the_same_factor(self, rng, layout):
        """A C-ordered matrix is factored in place; any other layout is
        factored in a copy that is copied back, to the same bits."""
        a = rng.standard_normal((10, 10))
        a = a @ a.T + 10 * np.eye(10)
        want = a.copy()
        assert kernels.cholesky_inplace(want, 1e-14) == -1
        if layout == "F":
            fac = np.asfortranarray(a)
        elif layout == "strided":
            fac = np.zeros((20, 20))[::2, ::2]
            fac[...] = a
        else:
            fac = a.copy()
        assert kernels.cholesky_inplace(fac, 1e-14) == -1
        assert np.array_equal(fac, want)

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
    """The kernel passes on eigh's pairs as they come and leaves its input
    as it was."""
    s = rng.standard_normal((12, 12))
    s = 0.5 * (s + s.T)
    a, out = s.copy(), []
    assert kernels.jacobi_sweep(a, out) == 0
    assert np.array_equal(a, s)
    values, vectors = out
    want_values, want_vectors = np.linalg.eigh(s)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)
    assert np.all(np.diff(values) >= 0)
    assert np.allclose(vectors.T @ s @ vectors, np.diag(values), atol=1e-12)


def test_kernels_take_stacks(rng):
    s = rng.standard_normal((3, 5, 5))
    s = s + np.swapaxes(s, 1, 2)
    out = []
    status = kernels.jacobi_sweep(s, out)
    assert type(status) is int and status == 0
    for got, want in zip(out, np.linalg.eigh(s)):
        assert np.array_equal(got, want)
    m = rng.standard_normal((3, 7, 4))
    out = []
    status = kernels.svd_sweep(m, out)
    assert type(status) is int and status == 0
    for got, want in zip(out, np.linalg.svd(m, full_matrices=False)):
        assert np.array_equal(got, want)


def test_sym_eig_descending(rng):
    s = rng.standard_normal((12, 12))
    s = 0.5 * (s + s.T)
    values, vectors = numerics.sym_eig(s)
    assert np.all(np.diff(values) <= 0)
    assert np.allclose((vectors * values) @ vectors.T, s, atol=1e-12)


def test_svd_sweep_factors(rng):
    """Tall or wide, the kernel passes on svd's thin factors as they come
    and leaves its input as it was."""
    for shape in [(9, 5), (4, 9)]:
        m = rng.standard_normal(shape)
        b, out = m.copy(), []
        assert kernels.svd_sweep(b, out) == 0
        assert np.array_equal(b, m)
        u, s, vt = out
        want_u, want_s, want_vt = np.linalg.svd(m, full_matrices=False)
        assert np.array_equal(u, want_u)
        assert np.array_equal(s, want_s)
        assert np.array_equal(vt, want_vt)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose((u * s) @ vt, m, atol=1e-12)


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


@pytest.mark.parametrize("shape, rank", [((9, 5), 5), ((4, 9), 4),
                                         ((9, 5), 3)],
                         ids=["tall", "wide", "rank-deficient"])
def test_svd_values_are_lapack_values(rng, shape, rank):
    """numerics.svd's singular values are LAPACK's to the bit, except that
    those at or below 1e-14 * s[0] are exactly zero; u stays orthonormal
    where they are."""
    m = rng.standard_normal((shape[0], rank)) @ rng.standard_normal(
        (rank, shape[1]))
    k = min(shape)
    u, s, v = numerics.svd(m)
    lapack_s = np.linalg.svd(m, full_matrices=False)[1]
    tiny = lapack_s <= 1e-14 * lapack_s[0]
    assert np.array_equal(s, np.where(tiny, 0.0, lapack_s))
    assert np.count_nonzero(s == 0.0) == k - rank
    assert u.shape == (shape[0], k) and v.shape == (shape[1], k)
    assert np.allclose(u.T @ u, np.eye(k), atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(k), atol=1e-12)
    assert np.allclose((u * s) @ v.T, m, atol=1e-12)


def test_svd_of_a_stack_is_each_member_svd(rng):
    """One call on a stack gives each member's decomposition to the bit,
    with each member's own zero floor."""
    m = rng.standard_normal((4, 9, 5))
    m[2, :, 4] = m[2, :, 3]
    m[3] *= 1e6
    u, s, v = numerics.svd(m)
    assert (u.shape, s.shape, v.shape) == ((4, 9, 5), (4, 5), (4, 5, 5))
    for i in range(4):
        for got, want in zip((u[i], s[i], v[i]), numerics.svd(m[i])):
            assert np.array_equal(got, want)
    assert s[2, -1] == 0.0 and np.all(s[[0, 1, 3], -1] > 0.0)


def _stable_descending(values, vectors):
    """LAPACK's pairs by descending value, tied pairs in LAPACK's order,
    sorted by Python's stable sort."""
    order = sorted(range(values.shape[0]), key=lambda j: -values[j])
    return values[order], vectors[:, order]


def test_sym_eig_reorders_ties_stably(rng):
    """Tied eigenvalues keep LAPACK's order, so reversing LAPACK's
    ascending order (which flips each tie) is not the rule."""
    s = rng.standard_normal((4, 4))
    stack = np.stack([np.diag([2.0, 1.0, 2.0, 1.0]),
                      np.diag([1.0, 1.0, 3.0, 1.0]),
                      s + s.T])
    for a in (stack[0], stack):
        values, vectors = numerics.sym_eig(a)
        lapack = np.linalg.eigh(a)
        for i in np.ndindex(a.shape[:-2]):
            want_values, want_vectors = _stable_descending(
                lapack.eigenvalues[i], lapack.eigenvectors[i])
            assert np.array_equal(values[i], want_values)
            assert np.array_equal(vectors[i], want_vectors)
    # the ties make the rule observable
    lapack_vectors = np.linalg.eigh(stack[0]).eigenvectors
    assert not np.array_equal(numerics.sym_eig(stack[0]).vectors,
                              lapack_vectors[:, ::-1])
