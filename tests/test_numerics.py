import numpy as np
import pytest
from scipy.linalg import lapack

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
        with pytest.raises(SingularSystem):
            numerics.solve_regularized(a, np.ones(3), 0.0)
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


class TestLibraryFailures:
    """LAPACK failures surface as the package's numeric errors."""

    @staticmethod
    def _raise(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    def test_eigh_failure_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", self._raise)
        assert kernels.jacobi_sweep(np.eye(3), np.eye(3)) == -1
        with pytest.raises(NonConvergence):
            numerics.sym_eig(np.eye(3))
        with pytest.raises(NonConvergence):
            numerics.spd_function(np.eye(3), "log")

    def test_svd_failure_is_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", self._raise)
        assert kernels.svd_sweep(np.ones((4, 2)), np.eye(2)) == -1
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
