"""Dense symmetric linear algebra used by every decoder.

Everything here operates on float64 arrays and runs on LAPACK through the
kernels in :mod:`aadkit.kernels`: symmetric eigendecomposition (``eigh``),
thin SVD, and regularized solves through a Cholesky factorization
(``dpotrf``/``dpotrs``) with one step of iterative refinement. The eigen
and SVD kernels hand back LAPACK's factors unchanged, and this module
adds only the package's contracts on top: eigenvalues in descending
order (a stable sort, so tied pairs keep LAPACK's order), singular values
at or below ``1e-14 * s[0]`` set to zero, the SPD tolerance rule, and
failures raised as :class:`NotSpd`, :class:`SingularSystem` or
:class:`NonConvergence`.

:func:`symmetrize`, :func:`spd_tolerance`, :func:`sym_eig`,
:func:`spd_function` and :func:`gen_sym_eig` take stacks ``(..., n, n)``:
a single matrix is a stack with no leading axes and goes through the same
code. A stack costs one ``eigh`` call and one pass of the square,
symmetry, finiteness and tolerance checks, and each member's result is
bit-identical to what the member gives alone, because LAPACK and matmul
run member by member on the same routines.

:func:`spd_function` and :func:`spd_tolerance` also take the
:class:`EigPairs` of a matrix instead of the matrix. Since ``s + reg * I``
has the eigenvalues ``values + reg`` on the same eigenvectors, a caller
that loads one matrix with many ``reg`` values decomposes it once and
passes ``EigPairs(values + reg, vectors)`` for each.

:func:`svd` takes stacks too, and :func:`solve_regularized` takes a
sequence of loadings: it checks the system once and solves it at each
loading, each result bit-identical to the call with that loading alone.

Only the Cholesky path needs SciPy (``dpotrf``/``dpotrs`` from
``scipy.linalg.lapack``), and it imports it on first use, so the ``cca``,
``csp`` and ``rgc`` decoders, which never call :func:`solve_regularized`,
never pay its 0.3 s import; eigen- and singular value problems run on
``numpy.linalg``.
"""

from typing import NamedTuple

import numpy as np

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


def _member(index, shape):
    """Text naming flat member ``index`` of a stack whose leading axes are
    ``shape``, such as " (member 1, 3)"; empty for a single matrix."""
    if not shape:
        return ""
    return f" (member {', '.join(map(str, np.unravel_index(index, shape)))})"


def _check_square_symmetric(a, name="matrix"):
    """``a`` as a float64 stack (..., n, n) of exactly symmetric matrices."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    if not np.array_equal(a, at):
        bad = ~np.all(a == at, axis=(-2, -1))
        where = _member(int(np.argmax(bad)), a.shape[:-2])
        raise DimensionMismatch(f"{name} is not symmetric{where}")
    return a


def symmetrize(a):
    """Exact symmetrization 0.5 * (a + a^T) of a matrix or a stack."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionMismatch(f"matrix must be 2-D, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def spd_tolerance(a):
    """Positivity floor for eigenvalues of ``a``: SPD_RTOL * trace / n, one
    per member of a stack. ``a`` may also be the :class:`EigPairs` of a
    matrix or a stack, whose trace is the sum of its eigenvalues."""
    if isinstance(a, EigPairs):
        n = a.values.shape[-1]
        trace = np.sum(a.values, axis=-1)
    else:
        n = a.shape[-1]
        trace = np.trace(a, axis1=-2, axis2=-1)
    return SPD_RTOL * np.abs(trace) / n


def solve_regularized(a, b, lam):
    """Solve (a + lam*I) x = b for symmetric PSD ``a``, at one loading or
    at each of a sequence of loadings.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric positive semidefinite matrix.
    b : (n,) or (n, m) array_like
        Right-hand side.
    lam : float or (k,) sequence of floats
        Nonnegative diagonal loading, or one loading per system.

    Returns
    -------
    x : ndarray, same shape as ``b`` for a single ``lam``; for a sequence,
        shape ``(k,) + b.shape``, member ``i`` bit-identical to the call
        with ``lam[i]`` alone.

    ``a``, ``b`` and the loadings are checked once. Each loading then
    costs one copy of ``a`` with the loading added to its diagonal
    (``a + 0.0`` first, which is bit-identical to ``a + lam * eye(n)``),
    one :func:`kernels.cholesky_inplace` call and two ``dpotrs`` solves.

    Raises
    ------
    SingularSystem
        When a loaded matrix is numerically singular (lam = 0 and ``a``
        rank deficient), or when ``a``, ``b`` or a loading is not finite.
    ValueError
        When a loading is negative.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    lams = np.asarray(lam, dtype=np.float64)
    if lams.ndim > 1:
        raise DimensionMismatch(f"lam must be a number or a 1-D sequence, "
                                f"got shape {lams.shape}")
    if np.any(lams < 0):
        raise ValueError("lam must be nonnegative")
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(a))
            and np.all(np.isfinite(b))):
        raise SingularSystem(f"non-finite system or rhs (lam={lam})")
    a = _check_square_symmetric(a)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"rhs length {b.shape[0]} does not match system size {n}"
        )
    out = np.empty(lams.shape + b.shape)
    for load, x in zip(lams.flat, out.reshape((-1,) + b.shape)):
        m = np.add(a, 0.0, order="C")
        m.reshape(-1)[:: n + 1] += load
        mean_diag = float(np.trace(m)) / n
        tol = max(1e-13 * mean_diag, 0.0)
        fac = m.copy()
        bad = kernels.cholesky_inplace(fac, tol)
        if bad >= 0:
            raise SingularSystem(
                f"Cholesky pivot {bad} not positive; system singular at "
                f"lam={load}"
            )
        x0 = _cho_solve(fac, b)
        # one refinement step keeps the residual tiny on ill-conditioned
        # systems
        x[...] = x0 + _cho_solve(fac, b - m @ x0)
    return out


def _cho_solve(fac, rhs):
    """Solve with the C-ordered lower Cholesky factor ``fac`` by LAPACK
    ``dpotrs``: the routine ``scipy.linalg.cho_solve`` ends in, without
    its argument checks, which cost more than the solve at these sizes.
    ``fac.T`` is the Fortran-ordered upper factor, which ``dpotrs`` reads
    in place where ``fac`` itself would be copied."""
    from scipy.linalg import lapack as _lapack

    x, info = _lapack.dpotrs(fac.T, rhs, lower=0)
    if info != 0:
        raise ValueError(f"dpotrs: illegal argument {-info}")
    return x


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix, or of each member of a
    stack (..., n, n), with one LAPACK call (``eigh``).

    Returns
    -------
    EigPairs
        LAPACK's pairs reordered by a stable sort: ``values`` (..., n)
        descending, tied values in LAPACK's order, and ``vectors``
        (..., n, n) with orthonormal columns so that
        ``s = vectors @ diag(values) @ vectors.T`` for each member.

    Raises
    ------
    DimensionMismatch
        If a member is not square or not exactly symmetric.
    NonConvergence
        If LAPACK does not converge or the spectrum is not finite; signals
        pathological input.
    """
    s = _check_square_symmetric(s)
    factors = []
    if kernels.jacobi_sweep(s, factors) < 0:
        raise NonConvergence("symmetric eigensolver did not converge")
    values, vectors = factors
    order = np.argsort(-values, axis=-1, kind="stable")
    return EigPairs(np.take_along_axis(values, order, axis=-1),
                    np.take_along_axis(vectors, order[..., None, :], axis=-1))


def gen_sym_eig(a, b):
    """Generalized symmetric eigenproblem a v = lambda b v with SPD ``b``.

    Solved by whitening with ``inv_sqrt(b)`` followed by :func:`sym_eig`.
    ``a`` and ``b`` are matrices or stacks whose leading axes broadcast, so
    one ``b`` whitens every ``a`` it is paired with. Eigenvalues come back
    descending; eigenvectors are b-orthonormal.
    """
    a = _check_square_symmetric(a, "a")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[-2:] != a.shape[-2:]:
        raise DimensionMismatch(
            f"operand shapes differ: {a.shape} vs {b.shape}"
        )
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionMismatch(
            f"operand stacks do not broadcast: {a.shape} vs {b.shape}"
        ) from None
    w = spd_function(b, "inv_sqrt")
    c = symmetrize(w @ a @ w)
    values, u = sym_eig(c)
    return EigPairs(values, w @ u)


def svd(m):
    """Thin singular value decomposition with LAPACK (``np.linalg.svd``)
    of a matrix, or of each member of a stack (..., p, q) with one call.

    Returns (u, s, v) with compact shapes: ``m = u @ diag(s) @ v.T`` for
    each member, ``s`` nonnegative descending, ``u`` and ``v``
    column-orthonormal, all as LAPACK computes them, except that a
    member's singular values at or below ``1e-14`` times its largest are
    set to exactly zero.

    Raises
    ------
    NonConvergence
        If LAPACK does not converge.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise DimensionMismatch(f"matrix must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input must be finite")
    factors = []
    if kernels.svd_sweep(m, factors) < 0:
        raise NonConvergence("SVD did not converge")
    u, s, vt = factors
    if s.size:
        s[s <= 1e-14 * s[..., :1]] = 0.0
    return u, s, vt.swapaxes(-1, -2)


_SPD_FUNCTIONS = {
    "log": np.log,
    "sqrt": np.sqrt,
    "inv_sqrt": lambda values: 1.0 / np.sqrt(values),
    "exp_of_sym": np.exp,
}


def spd_function(s, fname):
    """Apply a scalar function to a symmetric matrix, or to each member of
    a stack (..., n, n), through its spectrum.

    ``fname`` is one of ``log``, ``sqrt``, ``inv_sqrt`` (require SPD input)
    or ``exp_of_sym`` (any symmetric input). The result is
    ``V diag(f(values)) V^T``.

    ``s`` may also be the :class:`EigPairs` that :func:`sym_eig` returned
    for a matrix or a stack; then no decomposition runs, and the result is
    bit-identical to passing the matrix. Pairs with shifted values,
    ``EigPairs(values + reg, vectors)``, give the function of
    ``s + reg * I``, so one decomposition serves every diagonal loading.

    Raises
    ------
    ValueError
        For an unknown ``fname``, before any decomposition.
    NotSpd
        When a member's smallest eigenvalue is at or below
        :func:`spd_tolerance`; the message names the first such member.
    """
    func = _SPD_FUNCTIONS.get(fname)
    if func is None:
        raise ValueError(f"unknown matrix function {fname!r}")
    if isinstance(s, EigPairs):
        values, vec = s
    else:
        s = np.asarray(s, dtype=np.float64)
        values, vec = sym_eig(s)
    if fname != "exp_of_sym":
        floor = spd_tolerance(s)
        low = values[..., -1] <= floor
        if np.any(low):
            i = int(np.argmax(low))
            raise NotSpd(
                f"{fname} requires SPD input{_member(i, low.shape)} "
                f"(min eigenvalue {np.ravel(values[..., -1])[i]:.3e}, "
                f"floor {np.ravel(floor)[i]:.3e})"
            )
    fvals = func(values)
    return symmetrize((vec * fvals[..., None, :]) @ vec.swapaxes(-1, -2))
