"""Dense symmetric linear algebra used by every decoder.

Everything here operates on float64 arrays and runs on LAPACK through the
kernels in :mod:`aadkit.kernels`: symmetric eigendecomposition (``eigh``),
thin SVD, and regularized solves through a Cholesky factorization
(``dpotrf``/``dpotrs``) with one step of iterative refinement. This
module adds the package's contracts on top: eigen- and singular values
in descending order, the SPD tolerance rule, and failures raised as
:class:`NotSpd`, :class:`SingularSystem` or :class:`NonConvergence`.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack as _lapack

from . import kernels
from .errors import DimensionMismatch, NonConvergence, NotSpd, SingularSystem

# relative floor under which an eigenvalue no longer counts as positive
SPD_RTOL = 1e-12


class EigPairs(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _check_square_symmetric(a, name="matrix"):
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DimensionMismatch(f"{name} is not symmetric")
    return a


def symmetrize(a):
    """Exact symmetrization 0.5 * (a + a^T)."""
    a = _as_matrix(a)
    return 0.5 * (a + a.T)


def spd_tolerance(a):
    """Positivity floor for eigenvalues of ``a``: SPD_RTOL * trace / n."""
    n = a.shape[0]
    return SPD_RTOL * abs(float(np.trace(a))) / n


def solve_regularized(a, b, lam):
    """Solve (a + lam*I) x = b for symmetric PSD ``a``.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric positive semidefinite matrix.
    b : (n,) or (n, m) array_like
        Right-hand side.
    lam : float
        Nonnegative diagonal loading.

    Returns
    -------
    x : ndarray, same shape as ``b``.

    Raises
    ------
    SingularSystem
        When the loaded matrix is numerically singular (lam = 0 and ``a``
        rank deficient), or when ``a``, ``b`` or ``lam`` is not finite.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (math.isfinite(lam) and np.all(np.isfinite(a))
            and np.all(np.isfinite(b))):
        raise SingularSystem(f"non-finite system or rhs (lam={lam})")
    a = _check_square_symmetric(a)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} does not match system size {n}"
        )
    m = a + lam * np.eye(n)
    mean_diag = float(np.trace(m)) / n
    tol = max(1e-13 * mean_diag, 0.0)
    fac = m.copy()
    bad = kernels.cholesky_inplace(fac, tol)
    if bad >= 0:
        raise SingularSystem(
            f"Cholesky pivot {bad} not positive; system singular at lam={lam}"
        )
    x = _cho_solve(fac, b)
    # one refinement step keeps the residual tiny on ill-conditioned systems
    x = x + _cho_solve(fac, b - m @ x)
    return x


def _cho_solve(fac, rhs):
    """Solve with the lower Cholesky factor ``fac`` by LAPACK ``dpotrs``:
    the routine ``scipy.linalg.cho_solve`` ends in, without its argument
    checks, which cost more than the solve at these sizes."""
    x, info = _lapack.dpotrs(fac, rhs, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs: illegal argument {-info}")
    return x


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix with LAPACK (``eigh``).

    Returns
    -------
    EigPairs
        ``values`` descending, ``vectors`` with orthonormal columns so that
        ``s = vectors @ diag(values) @ vectors.T``.

    Raises
    ------
    NonConvergence
        If LAPACK does not converge or the spectrum is not finite; signals
        pathological input.
    """
    s = _check_square_symmetric(s)
    n = s.shape[0]
    a = s.copy()
    v = np.eye(n)
    if kernels.jacobi_sweep(a, v) < 0:
        raise NonConvergence("symmetric eigensolver did not converge")
    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")
    return EigPairs(values[order], v[:, order])


def gen_sym_eig(a, b):
    """Generalized symmetric eigenproblem a v = lambda b v with SPD ``b``.

    Solved by whitening with ``inv_sqrt(b)`` followed by :func:`sym_eig`.
    Eigenvalues come back descending; eigenvectors are b-orthonormal.
    """
    a = _check_square_symmetric(a, "a")
    b = _check_square_symmetric(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"operand shapes differ: {a.shape} vs {b.shape}"
        )
    w = spd_function(b, "inv_sqrt")
    c = symmetrize(w @ a @ w)
    values, u = sym_eig(c)
    return EigPairs(values, w @ u)


def svd(m):
    """Thin singular value decomposition with LAPACK (``np.linalg.svd``).

    Returns (u, s, v) with compact shapes: ``m = u @ diag(s) @ v.T``,
    ``s`` nonnegative descending, ``u`` and ``v`` column-orthonormal.
    Singular values at or below ``1e-14 * s[0]`` are set to exactly zero.

    Raises
    ------
    NonConvergence
        If LAPACK does not converge.
    """
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input must be finite")
    transposed = m.shape[0] < m.shape[1]
    b = (m.T if transposed else m).copy()
    n = b.shape[1]
    v = np.eye(n)
    if kernels.svd_sweep(b, v) < 0:
        raise NonConvergence("SVD did not converge")
    s = np.sqrt(np.sum(b * b, axis=0))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    b = b[:, order]
    v = v[:, order]
    u = np.zeros_like(b)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank_tol = 1e-14 * scale
    for j in range(n):
        if s[j] > rank_tol:
            u[:, j] = b[:, j] / s[j]
        else:
            u[:, j] = _orthonormal_completion(u[:, :j])
            s[j] = 0.0
    if transposed:
        return v, s, u
    return u, s, v


def _orthonormal_completion(basis):
    """One unit vector orthogonal to the given orthonormal columns."""
    m = basis.shape[0]
    for i in range(m):
        cand = np.zeros(m)
        cand[i] = 1.0
        cand -= basis @ (basis.T @ cand)
        norm = float(np.sqrt(cand @ cand))
        if norm > 0.5:
            return cand / norm
    raise NonConvergence("failed to complete orthonormal basis")


def spd_function(s, fname):
    """Apply a scalar function to a symmetric matrix through its spectrum.

    ``fname`` is one of ``log``, ``sqrt``, ``inv_sqrt`` (require SPD input)
    or ``exp_of_sym`` (any symmetric input). The result is
    ``V diag(f(values)) V^T``.
    """
    s = _check_square_symmetric(s)
    values, vec = sym_eig(s)
    if fname == "exp_of_sym":
        fvals = np.exp(values)
    else:
        floor = spd_tolerance(s)
        if values[-1] <= floor:
            raise NotSpd(
                f"{fname} requires SPD input "
                f"(min eigenvalue {values[-1]:.3e}, floor {floor:.3e})"
            )
        if fname == "log":
            fvals = np.log(values)
        elif fname == "sqrt":
            fvals = np.sqrt(values)
        elif fname == "inv_sqrt":
            fvals = 1.0 / np.sqrt(values)
        else:
            raise ValueError(f"unknown matrix function {fname!r}")
    return symmetrize((vec * fvals) @ vec.T)
