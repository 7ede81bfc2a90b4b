import numpy as np
import pytest
from scipy.linalg import cho_solve, lapack

from aadkit import kernels, numerics
from aadkit.errors import (
    DimensionMismatch,
    NonConvergence,
    NotSpd,
    SingularSystem,
)


def random_spd(rng, n, cond=10.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    vals = np.logspace(0, np.log10(cond), n)
    m = q @ np.diag(vals) @ q.T
    return 0.5 * (m + m.T)


def gaussian_elimination(a, b):
    """Naive row-reduction solve, independent of the package solver."""
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    n = a.shape[0]
    for i in range(n):
        p = i + int(np.argmax(np.abs(a[i:, i])))
        a[[i, p]] = a[[p, i]]
        b[[i, p]] = b[[p, i]]
        for j in range(i + 1, n):
            f = a[j, i] / a[i, i]
            a[j, i:] -= f * a[i, i:]
            b[j] -= f * b[i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def cho_solve_formula(m, b):
    """The package's Cholesky factor of ``m`` solved, plus one refinement
    step, with ``scipy.linalg.cho_solve``."""
    fac = m.copy()
    assert kernels.cholesky_inplace(fac, 0.0) == -1
    x = cho_solve((fac, True), b, check_finite=False)
    return x + cho_solve((fac, True), b - m @ x, check_finite=False)


class TestSolveRegularized:
    def test_identity(self):
        x = numerics.solve_regularized(np.eye(2), np.array([1.0, 2.0]), 0.0)
        assert np.allclose(x, [1.0, 2.0])

    def test_identity_with_loading(self):
        x = numerics.solve_regularized(np.eye(2), np.array([1.0, 2.0]), 1.0)
        assert np.allclose(x, [0.5, 1.0])

    def test_matches_elimination_oracle(self, rng):
        a = random_spd(rng, 5)
        b = rng.standard_normal(5)
        x = numerics.solve_regularized(a, b, 0.1)
        ref = gaussian_elimination(a + 0.1 * np.eye(5), b)
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-10

    def test_residual_bound(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            a = random_spd(r, 12, cond=1e6)
            b = r.standard_normal(12)
            x = numerics.solve_regularized(a, b, 0.0)
            resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
            assert resid < 1e-8

    def test_singular_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)  # rank 1
        for rhs in (np.ones(3), np.ones((3, 2))):
            with pytest.raises(SingularSystem):
                numerics.solve_regularized(a, rhs, 0.0)
        # loading repairs it
        x = numerics.solve_regularized(a, np.ones(3), 1.0)
        assert np.all(np.isfinite(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            numerics.solve_regularized(np.eye(3), np.ones(2), 0.0)

    @pytest.mark.parametrize("where", ["a", "b", "lam", "lam_inf"])
    def test_non_finite_input_raises(self, where):
        a, b, lam = np.eye(3), np.ones(3), 0.1
        if where == "a":
            a[1, 1] = np.nan
        elif where == "b":
            b[2] = np.nan
        else:
            lam = np.nan if where == "lam" else np.inf
        with pytest.raises(SingularSystem):
            numerics.solve_regularized(a, b, lam)

    @pytest.mark.parametrize("rhs_shape", [(9,), (9, 4)])
    def test_equals_cho_solve_formula(self, rhs_shape):
        """Bit-identical to the package's Cholesky factor solved, plus one
        refinement step, with ``scipy.linalg.cho_solve``."""
        rng = np.random.default_rng(len(rhs_shape))
        for lam in (0.0, 1e-6, 0.3, 100.0):
            a = random_spd(rng, 9, cond=1e5)
            b = rng.standard_normal(rhs_shape)
            want = cho_solve_formula(a + lam * np.eye(9), b)
            got = numerics.solve_regularized(a, b, lam)
            assert got.shape == b.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rhs_shape", [(9,), (9, 4)])
    def test_lam_sequence_equals_one_call_per_lam(self, rhs_shape):
        """A sequence of loadings gives the stack of the single-loading
        results, each bit for bit, for a tuple, a list or an array."""
        rng = np.random.default_rng(10 + len(rhs_shape))
        a = random_spd(rng, 9, cond=1e5)
        b = rng.standard_normal(rhs_shape)
        lams = [0.0, 1e-6, 0.3, 100.0]
        want = [numerics.solve_regularized(a, b, lam) for lam in lams]
        for seq in (lams, tuple(lams), np.array(lams)):
            got = numerics.solve_regularized(a, b, seq)
            assert got.shape == (4,) + rhs_shape
            for member, single in zip(got, want):
                assert np.array_equal(member, single)
        assert numerics.solve_regularized(a, b, []).shape == (0,) + rhs_shape

    def test_lam_sequence_checks_system_once(self, monkeypatch):
        """One symmetry check for the whole sequence, and one Cholesky
        factorization per loading."""
        calls = {"check": 0, "cholesky": 0}
        for module, name, key in [
                (numerics, "_check_square_symmetric", "check"),
                (kernels, "cholesky_inplace", "cholesky")]:
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, key=key:
                calls.__setitem__(key, calls[key] + 1) or real(*a))
        numerics.solve_regularized(np.eye(4), np.ones(4),
                                   [0.0, 0.1, 1.0, 10.0, 100.0])
        assert calls == {"check": 1, "cholesky": 5}

    def test_singular_member_of_lam_sequence_raises(self):
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)  # rank 1
        for rhs in (np.ones(3), np.ones((3, 2))):
            with pytest.raises(SingularSystem, match="singular at lam=0.0$"):
                numerics.solve_regularized(a, rhs, [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("bad, error", [
        (-1.0, ValueError), (-0.5e-300, ValueError),
        (np.nan, SingularSystem), (np.inf, SingularSystem)],
        ids=["negative", "tiny-negative", "nan", "inf"])
    def test_lam_sequence_refuses_bad_member(self, bad, error, monkeypatch):
        """A negative or non-finite loading anywhere in the sequence is
        refused before any factorization."""
        calls = []
        monkeypatch.setattr(kernels, "cholesky_inplace",
                            lambda *a: calls.append(1))
        with pytest.raises(error):
            numerics.solve_regularized(np.eye(3), np.ones(3),
                                       [0.1, 1.0, bad])
        assert calls == []

    def test_lam_of_two_dimensions_refused(self):
        with pytest.raises(DimensionMismatch, match="^lam must be"):
            numerics.solve_regularized(np.eye(3), np.ones(3), [[0.1, 1.0]])

    def test_loading_maps_negative_zero_like_eye(self):
        """The diagonal is loaded on a copy of ``a + 0.0``, so a -0.0 off
        the diagonal becomes +0.0 exactly as in ``a + lam * eye(n)``."""
        a = np.array([[2.0, -0.0], [-0.0, 3.0]])
        b = np.array([1.0, -0.0])
        for lam in (0.0, 0.5):
            want = cho_solve_formula(a + lam * np.eye(2), b)
            got = numerics.solve_regularized(a, b, lam)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_shrinkage_monotone(self, rng):
        a = random_spd(rng, 6)
        b = rng.standard_normal(6)
        lams = [0.0, 0.1, 1.0, 10.0, 100.0]
        norms = [
            np.linalg.norm(numerics.solve_regularized(a, b, lam))
            for lam in lams
        ]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))


class TestSymEig:
    def test_diagonal(self):
        vals, vecs = numerics.sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [3.0, 1.0])
        assert np.allclose(np.abs(vecs), np.eye(2))

    def test_identity(self):
        vals, vecs = numerics.sym_eig(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, np.eye(3))

    def test_reconstruction_vs_oracle(self, rng):
        s = rng.standard_normal((6, 6))
        s = 0.5 * (s + s.T)
        vals, vecs = numerics.sym_eig(s)
        norm = np.linalg.norm(s)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - s) < 1e-9 * norm
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-10 * max(1.0, norm)

    def test_orthonormal_and_sorted(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 30))
            s = r.standard_normal((n, n))
            s = 0.5 * (s + s.T)
            vals, vecs = numerics.sym_eig(s)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) < 1e-10

    def test_trace_equals_eigensum(self, rng):
        s = rng.standard_normal((9, 9))
        s = 0.5 * (s + s.T)
        vals, _ = numerics.sym_eig(s)
        tr = np.trace(s)
        assert abs(vals.sum() - tr) < 1e-9 * max(1.0, abs(tr))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(DimensionMismatch):
            numerics.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGenSymEig:
    def test_identity_b(self):
        vals, _ = numerics.gen_sym_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(vals, [2.0, 1.0])

    def test_diagonal_ratio(self):
        vals, _ = numerics.gen_sym_eig(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        assert np.allclose(vals, [2.0, 0.5])

    def test_matches_sym_eig_for_identity(self, rng):
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        gen_vals, _ = numerics.gen_sym_eig(a, np.eye(5))
        plain_vals, _ = numerics.sym_eig(a)
        assert np.max(np.abs(gen_vals - plain_vals)) < 1e-9

    def test_residual_and_b_orthonormal(self, rng):
        a = random_spd(rng, 8)
        b = random_spd(rng, 8, cond=30.0)
        vals, vecs = numerics.gen_sym_eig(a, b)
        for i in range(8):
            r = np.linalg.norm(a @ vecs[:, i] - vals[i] * (b @ vecs[:, i]))
            assert r < 1e-8
        gram = vecs.T @ b @ vecs
        assert np.linalg.norm(gram - np.eye(8)) < 1e-8

    def test_matches_scipy_oracle(self, rng):
        from scipy.linalg import eigh

        a = rng.standard_normal((7, 7))
        a = 0.5 * (a + a.T)
        b = random_spd(rng, 7)
        vals, _ = numerics.gen_sym_eig(a, b)
        ref = np.sort(eigh(a, b, eigvals_only=True))[::-1]
        assert np.max(np.abs(vals - ref)) < 1e-9

    def test_not_spd(self):
        with pytest.raises(NotSpd):
            numerics.gen_sym_eig(np.eye(2), np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            numerics.gen_sym_eig(np.eye(2), np.eye(3))


class TestSvd:
    def test_embedded_diagonal(self):
        m = np.zeros((3, 2))
        m[0, 0] = 3.0
        m[1, 1] = 2.0
        _, s, _ = numerics.svd(m)
        assert np.allclose(s, [3.0, 2.0])

    def test_zero_matrix(self):
        u, s, v = numerics.svd(np.zeros((3, 2)))
        assert np.allclose(s, 0.0)
        assert np.linalg.norm(u.T @ u - np.eye(2)) < 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(2)) < 1e-12

    def test_reconstruction(self, rng):
        m = rng.standard_normal((10, 6))
        u, s, v = numerics.svd(m)
        norm = np.linalg.norm(m)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) < 1e-9 * norm
        assert np.linalg.norm(u.T @ u - np.eye(6)) < 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(6)) < 1e-10
        assert np.all(np.diff(s) <= 0)

    def test_values_match_gram_eigenvalues(self, rng):
        # independent oracle: singular values from the Gram matrix spectrum
        m = rng.standard_normal((8, 5))
        _, s, _ = numerics.svd(m)
        ref = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(m.T @ m))[::-1], 0))
        assert np.max(np.abs(s - ref)) < 1e-9

    def test_wide_matrix(self, rng):
        m = rng.standard_normal((4, 9))
        u, s, v = numerics.svd(m)
        assert u.shape == (4, 4) and v.shape == (9, 4)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) < 1e-9 * np.linalg.norm(m)


class TestSpdFunction:
    def test_inv_sqrt_diagonal(self):
        out = numerics.spd_function(np.diag([4.0, 9.0]), "inv_sqrt")
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_log_identity_and_exp_zero(self):
        assert np.allclose(numerics.spd_function(np.eye(3), "log"), 0.0)
        assert np.allclose(
            numerics.spd_function(np.zeros((3, 3)), "exp_of_sym"), np.eye(3)
        )

    def test_exp_log_roundtrip(self, rng):
        s = random_spd(rng, 6)
        lg = numerics.spd_function(s, "log")
        back = numerics.spd_function(lg, "exp_of_sym")
        assert np.linalg.norm(back - s) < 1e-9 * np.linalg.norm(s)

    def test_inv_sqrt_contract(self, rng):
        s = random_spd(rng, 7, cond=100.0)
        w = numerics.spd_function(s, "inv_sqrt")
        assert np.linalg.norm(w @ s @ w - np.eye(7)) < 1e-8

    def test_sqrt_squares_back(self, rng):
        s = random_spd(rng, 5)
        r = numerics.spd_function(s, "sqrt")
        assert np.linalg.norm(r @ r - s) < 1e-8 * np.linalg.norm(s)

    def test_not_spd(self):
        with pytest.raises(NotSpd):
            numerics.spd_function(np.diag([1.0, 0.0]), "log")
        with pytest.raises(NotSpd):
            numerics.spd_function(np.diag([1.0, -2.0]), "inv_sqrt")

    def test_unknown_name_checked_before_decomposing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "jacobi_sweep",
                            lambda *args: calls.append(args) or 0)
        with pytest.raises(ValueError, match="bogus"):
            numerics.spd_function(np.diag([1.0, -1.0]), "bogus")
        assert calls == []


def random_sym(rng, n):
    s = rng.standard_normal((n, n))
    return 0.5 * (s + s.T)


class TestStacks:
    """A stack (..., n, n) gives each member's single-matrix result bit for
    bit, with one eigensolver call for the whole stack."""

    SHAPES = [(7,), (2, 3)]

    @staticmethod
    def spd_stack(rng, lead, n):
        mats = [random_spd(rng, n, cond=100.0) for _ in np.ndindex(*lead)]
        return np.reshape(mats, lead + (n, n))

    @staticmethod
    def sym_stack(rng, lead, n):
        mats = [random_sym(rng, n) for _ in np.ndindex(*lead)]
        return np.reshape(mats, lead + (n, n))

    @pytest.mark.parametrize("lead", SHAPES)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_sym_eig(self, rng, lead, n):
        s = self.sym_stack(rng, lead, n)
        values, vectors = numerics.sym_eig(s)
        assert values.shape == lead + (n,)
        assert vectors.shape == lead + (n, n)
        assert np.all(np.diff(values, axis=-1) <= 0)
        for i in np.ndindex(*lead):
            want = numerics.sym_eig(s[i])
            assert np.array_equal(values[i], want.values)
            assert np.array_equal(vectors[i], want.vectors)

    @pytest.mark.parametrize("fname", ["log", "sqrt", "inv_sqrt",
                                       "exp_of_sym"])
    @pytest.mark.parametrize("lead", SHAPES)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_spd_function(self, rng, fname, lead, n):
        s = self.spd_stack(rng, lead, n)
        if fname == "exp_of_sym":
            s = s - 2.0 * np.eye(n)  # symmetric with negative eigenvalues
        out = numerics.spd_function(s, fname)
        assert out.shape == s.shape
        for i in np.ndindex(*lead):
            assert np.array_equal(out[i], numerics.spd_function(s[i], fname))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_gen_sym_eig(self, rng, n):
        a = self.sym_stack(rng, (2, 3), n)
        b = self.spd_stack(rng, (2,), n)
        # each b whitens the three a of its row
        values, vectors = numerics.gen_sym_eig(a, b[:, None])
        assert values.shape == (2, 3, n)
        assert vectors.shape == (2, 3, n, n)
        assert np.all(np.diff(values, axis=-1) <= 0)
        for i, j in np.ndindex(2, 3):
            want = numerics.gen_sym_eig(a[i, j], b[i])
            assert np.array_equal(values[i, j], want.values)
            assert np.array_equal(vectors[i, j], want.vectors)

    def test_one_eigensolver_call_per_stack(self, rng, monkeypatch):
        calls = []
        sweep = kernels.jacobi_sweep
        monkeypatch.setattr(kernels, "jacobi_sweep",
                            lambda a, v: calls.append(a.shape) or sweep(a, v))
        s = self.spd_stack(rng, (9,), 4)
        numerics.spd_function(s, "log")
        numerics.gen_sym_eig(s, s[0])
        # one for log, one for inv_sqrt of b, one for the whitened stack
        assert calls == [(9, 4, 4), (4, 4), (9, 4, 4)]

    def test_asymmetric_member_named(self, rng):
        s = self.spd_stack(rng, (2, 3), 4)
        s[1, 2, 0, 1] += 1e-9
        for call in (numerics.sym_eig,
                     lambda m: numerics.spd_function(m, "log"),
                     lambda m: numerics.gen_sym_eig(m, np.eye(4))):
            with pytest.raises(DimensionMismatch, match=r"member 1, 2\)"):
                call(s)

    def test_not_spd_member_named(self, rng):
        s = self.spd_stack(rng, (5,), 4)
        s[3] = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(NotSpd, match=r"member 3\)"):
            numerics.spd_function(s, "inv_sqrt")
        with pytest.raises(NotSpd, match=r"member 3\)"):
            numerics.gen_sym_eig(np.eye(4), s)
        # a single matrix names no member
        with pytest.raises(NotSpd) as exc:
            numerics.spd_function(s[3], "log")
        assert "member" not in str(exc.value)

    def test_tolerance_per_member(self):
        s = np.stack([np.diag([4.0, 4.0]), np.diag([1.0, 3.0])])
        assert np.array_equal(numerics.spd_tolerance(s),
                              [numerics.spd_tolerance(m) for m in s])
        assert numerics.spd_tolerance(s[0]) == numerics.SPD_RTOL * 8.0 / 2

    def test_operands_must_broadcast(self, rng):
        with pytest.raises(DimensionMismatch):
            numerics.gen_sym_eig(self.spd_stack(rng, (3,), 4),
                                 self.spd_stack(rng, (2,), 4))


class TestSpdFunctionOnEigPairs:
    """``spd_function`` on the pairs ``sym_eig`` returned, unshifted or
    with every eigenvalue shifted by a diagonal loading."""

    FNAMES = ["log", "sqrt", "inv_sqrt", "exp_of_sym"]

    @pytest.mark.parametrize("fname", FNAMES)
    @pytest.mark.parametrize("lead", [(), (7,), (2, 3)])
    def test_bit_identical_to_matrix(self, rng, fname, lead):
        s = TestStacks.spd_stack(rng, lead, 6)
        if fname == "exp_of_sym":
            s = s - 2.0 * np.eye(6)
        out = numerics.spd_function(numerics.sym_eig(s), fname)
        assert np.array_equal(out, numerics.spd_function(s, fname))

    @pytest.mark.parametrize("reg", [1e-2, 1.0, 100.0])
    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_shifted_spectrum_is_loaded_matrix(self, rng, reg, lead):
        s = TestStacks.spd_stack(rng, lead, 8)
        values, vectors = numerics.sym_eig(s)
        got = numerics.spd_function(
            numerics.EigPairs(values + reg, vectors), "inv_sqrt")
        want = numerics.spd_function(s + reg * np.eye(8), "inv_sqrt")
        err = np.linalg.norm(got - want, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))

    def test_tolerance_is_the_matrix_tolerance(self, rng):
        s = TestStacks.spd_stack(rng, (5,), 6)
        assert np.allclose(numerics.spd_tolerance(numerics.sym_eig(s)),
                           numerics.spd_tolerance(s), rtol=1e-13, atol=0)

    def test_not_spd_member_named(self, rng):
        s = TestStacks.spd_stack(rng, (5,), 4)
        s[3] = np.diag([1.0, 1.0, 1.0, -1.0])
        pairs = numerics.sym_eig(s)
        with pytest.raises(NotSpd, match=r"member 3\)"):
            numerics.spd_function(pairs, "inv_sqrt")
        # a shift that reaches below zero fails like the loaded matrix
        values, vectors = numerics.sym_eig(s[0])
        shift = -values[-1]
        with pytest.raises(NotSpd) as exc:
            numerics.spd_function(
                numerics.EigPairs(values + shift, vectors), "log")
        assert "member" not in str(exc.value)

    def test_no_decomposition(self, rng, monkeypatch):
        pairs = numerics.sym_eig(random_spd(rng, 5))
        calls = []
        monkeypatch.setattr(kernels, "jacobi_sweep",
                            lambda *args: calls.append(args) or 0)
        with pytest.raises(ValueError, match="bogus"):
            numerics.spd_function(pairs, "bogus")
        numerics.spd_function(pairs, "inv_sqrt")
        assert calls == []


class TestLibraryFailures:
    """LAPACK failures surface as the package's numeric errors."""

    @staticmethod
    def _raise(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    def test_eigh_failure_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", self._raise)
        assert kernels.jacobi_sweep(np.eye(3), []) == -1
        with pytest.raises(NonConvergence):
            numerics.sym_eig(np.eye(3))
        with pytest.raises(NonConvergence):
            numerics.spd_function(np.eye(3), "log")

    def test_svd_failure_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self._raise)
        assert kernels.svd_sweep(np.ones((4, 2)), []) == -1
        with pytest.raises(NonConvergence):
            numerics.svd(np.ones((4, 2)))

    def test_non_finite_spectrum_is_nonconvergence(self):
        with pytest.raises(NonConvergence):
            numerics.sym_eig(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_failed_dpotrf_is_singular_system(self, monkeypatch):
        # info = 2: the second leading minor is not positive definite
        monkeypatch.setattr(lapack, "dpotrf", lambda a, **kw: (a, 2))
        assert kernels.cholesky_inplace(np.eye(3), 1e-13) == 1
        with pytest.raises(SingularSystem):
            numerics.solve_regularized(np.eye(3), np.ones(3), 0.1)
