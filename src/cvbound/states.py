"""Gaussian states as covariance matrices, their symplectic spectra, and the beamsplitter matrix.

Conventions used throughout the package:

* quadrature ordering is interleaved, ``R = (x_1, p_1, x_2, p_2, ...)``;
* ``[x, p] = i`` (hbar = 1), so the vacuum quadrature variance is 1/2;
* ``cov`` holds true second moments.  A Wigner function normalised as
  ``pi**-N * exp(-R^T Gamma^-1 R)`` has ``Gamma = 2 * cov``; all variance
  statements in this package are in direct-variance form and need no
  conversion;
* mode indices are 0-based everywhere in the library (the CLI accepts the
  1-based labels used in optical diagrams and converts at the boundary).

States are immutable after construction and all operations are pure
functions, so states can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

VACUUM_VAR = 0.5
SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9
MAX_SQUEEZING = 20.0

__all__ = [
    "GaussianState",
    "symplectic_form",
    "vacuum_state",
    "epr_pair",
    "tensor",
    "beamsplitter",
    "partial_transpose",
    "symplectic_eigenvalues",
    "require_physical",
    "quad_variance",
    "sample_oracle",
    "state_to_dict",
    "moments_from_dict",
    "state_from_dict",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


_SYMPLECTIC_FORMS: dict[int, np.ndarray] = {}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form Omega for the interleaved ordering, 2x2 blocks [[0,1],[-1,0]].

    The result is read-only and shared between calls: building it costs more
    than the 8x8 spectrum that needs it.
    """
    omega = _SYMPLECTIC_FORMS.get(n_modes)
    if omega is None:
        omega = _readonly(np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]])))
        _SYMPLECTIC_FORMS[n_modes] = omega
    return omega


def _matrix_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each matrix in a (..., d, d) stack, shape (...)."""
    return a.reshape(a.shape[:-2] + (-1,)).max(axis=-1)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson spectrum of a covariance matrix, sorted ascending.

    Two kernels compute it, chosen per matrix.

    *Block kernel*, for a matrix whose x-p and p-x blocks (``cov[..., 0::2,
    1::2]`` and ``cov[..., 1::2, 0::2]``) are exactly zero, as they are for
    every state this package builds, partially transposes or conditions.  In
    the ordering (x_1..x_n, p_1..p_n) such a matrix is ``diag(X, P)`` and
    ``i Omega cov`` has the eigenvalues ``+/- sqrt(eig(X P))``.  With the
    Cholesky factors ``X = Lx Lx^T`` and ``P = Lp Lp^T``,
    ``eig(X P) = eig(Lp^T Lx Lx^T Lp)`` are the squared singular values of
    ``Lx^T Lp``, so ``nu = sigma(Lx^T Lp)``: an n x n real SVD in place of a
    2n x 2n complex Hermitian eigenproblem.  The SVD gives nu directly; the
    equivalent ``eigvalsh(Lx^T P Lx)`` gives nu**2 with an absolute error
    of order ``eps * nu_max**2``, which swamps the smallest (a relative
    error of 4e-6 on the 13-24 ``nu_min`` at r = 3, sigma = 1, against
    5.5e-12 through the SVD).

    *Hermitian kernel*, for every other matrix.  With ``cov = L L^T``, the
    Hermitian matrix ``i L^T Omega L`` has the eigenvalues ``+/- nu_k``; the
    upper half of its spectrum is returned.

    ``L`` (or ``Lx``, ``Lp``) is the Cholesky factor.  When Cholesky fails on
    a matrix that passes the positive-definiteness check (float64 cannot
    resolve the smallest eigenvalue of a strongly squeezed state), the
    eigen-decomposition root ``V sqrt(max(w, 0))`` takes its place.  The
    eigenvalues of ``diag(X, P)`` are those of X together with those of P,
    so checking the two blocks against the full matrix's scale is the same
    rule as checking the full matrix.

    ``cov`` may also be a stack of shape (..., 2n, 2n); the result then has
    shape (..., n), every matrix is checked on its own, and each spectrum is
    bit-identical to the one a separate call on that matrix returns.

    Raises ``ValueError`` for non-finite, non-symmetric, odd-dimensional or
    non-positive-definite input.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    # a NaN or inf entry makes the largest magnitude non-finite
    peak = _matrix_max(np.abs(cov))
    if not np.isfinite(peak).all():
        raise ValueError("covariance matrix has non-finite entries")
    scale = np.maximum(1.0, peak)
    if (_matrix_max(np.abs(cov - np.swapaxes(cov, -1, -2))) > SYMMETRY_TOL * scale).any():
        raise ValueError("covariance matrix must be symmetric")
    n = cov.shape[-1] // 2
    lead = cov.shape[:-2]
    k = len(lead)
    # the quadrature blocks [xx, xp, px, pp] of each matrix, shape (..., 4, n, n)
    quads = cov.reshape(lead + (n, 2, n, 2)).transpose(*range(k), k + 1, k + 3, k, k + 2)
    quads = quads.reshape(lead + (4, n, n))
    cross = quads[..., 1:3, :, :]
    if not cross.any():
        return _block_spectrum(quads[..., ::3, :, :], scale)
    blockwise = ~cross.reshape(lead + (-1,)).any(axis=-1)
    if not blockwise.any():
        return _hermitian_spectrum(cov, scale)
    out = np.empty(lead + (n,))
    out[blockwise] = _block_spectrum(quads[blockwise][:, ::3], scale[blockwise])
    out[~blockwise] = _hermitian_spectrum(cov[~blockwise], scale[~blockwise])
    return out


def _block_spectrum(blocks: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Singular values of ``Lx^T Lp``, ascending, from the (..., 2, n, n) stack of X and P blocks."""
    try:
        roots = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        roots = _roots_with_fallback(blocks, np.broadcast_to(scale[..., None], blocks.shape[:-2]))
    return np.linalg.svd(roots[..., 0, :, :].swapaxes(-1, -2) @ roots[..., 1, :, :], compute_uv=False)[..., ::-1]


def _hermitian_spectrum(cov: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Upper half of the spectrum of ``i L^T Omega L``, for any positive-definite matrices."""
    try:
        # succeeds only on numerically positive-definite input, which the
        # scale-relative check in the fallback would accept
        root = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        root = _roots_with_fallback(cov, scale)
    n = cov.shape[-1] // 2
    return np.linalg.eigvalsh(1j * np.swapaxes(root, -1, -2) @ symplectic_form(n) @ root)[..., n:]


def _roots_with_fallback(cov: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Cholesky factor of each matrix, or the eigen-decomposition root where it fails."""
    d = cov.shape[-1]
    flat = cov.reshape(-1, d, d)
    roots = np.empty_like(flat)
    for k, (m, s) in enumerate(zip(flat, np.ravel(scale))):
        try:
            roots[k] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(m)
            # scale-relative rejection: a strongly squeezed pure state is
            # positive definite in exact arithmetic but numerically singular
            # in float64
            if w.min() <= -1e-12 * s:
                raise ValueError("covariance matrix must be positive definite") from None
            roots[k] = v * np.sqrt(np.clip(w, 0.0, None))
    return roots.reshape(cov.shape)


def require_physical(cov: np.ndarray) -> np.ndarray:
    """Raise ``ValueError`` unless ``cov`` is a physical covariance matrix.

    Physical means symmetric, positive definite and with every symplectic
    eigenvalue >= 1/2 up to a scale-relative tolerance.  ``cov`` may be a
    stack (..., 2n, 2n); the first unphysical matrix in C order names its
    eigenvalue in the message, which is the one a 2-D call on it gives.
    Returns the smallest symplectic eigenvalue of each matrix, shape (...).
    """
    cov = np.asarray(cov, dtype=float)
    nu_min = symplectic_eigenvalues(cov).min(axis=-1)
    scale = np.maximum(1.0, _matrix_max(np.abs(cov)))
    bad = nu_min < VACUUM_VAR - PHYSICALITY_TOL * scale
    if bad.any():
        worst = nu_min[bad].flat[0]
        raise ValueError(f"unphysical covariance matrix: min symplectic eigenvalue {worst:.6g} < 1/2")
    return nu_min


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state given by its mean vector and covariance matrix.

    ``mean`` has length 2n and ``cov`` is a symmetric 2n x 2n matrix in the
    interleaved quadrature ordering.  Construction validates symmetry and
    physicality (every symplectic eigenvalue >= 1/2 up to tolerance).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(self.mean)
        cov = _readonly(self.cov)
        if mean.ndim != 1 or cov.ndim != 2:
            raise ValueError("mean must be a vector and cov a matrix")
        d = mean.shape[0]
        if d == 0 or d % 2 or cov.shape != (d, d):
            raise ValueError(f"inconsistent moment dimensions: mean {mean.shape}, cov {cov.shape}")
        require_physical(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2


def vacuum_state(n: int) -> GaussianState:
    """The n-mode vacuum: zero mean, cov = I/2."""
    if n < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * n), VACUUM_VAR * np.eye(2 * n))


def epr_pair(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r.

    The squeezed joint quadratures are the position sum and momentum
    difference: var(x1 + x2) = var(p1 - p2) = exp(-2 r).  Each single-mode
    quadrature variance is cosh(2 r)/2 and the cross covariances are
    cov(x1, x2) = -sinh(2 r)/2, cov(p1, p2) = +sinh(2 r)/2.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    if r > MAX_SQUEEZING:
        raise ValueError(f"squeezing parameter capped at {MAX_SQUEEZING} to avoid overflow")
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    cov = np.diag([c, c, c, c]).astype(float)
    cov[0, 2] = cov[2, 0] = -s
    cov[1, 3] = cov[3, 1] = +s
    return GaussianState(np.zeros(4), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state with the modes of ``a`` followed by the modes of ``b``."""
    da, db = a.cov.shape[0], b.cov.shape[0]
    cov = np.zeros((da + db, da + db))
    cov[:da, :da] = a.cov
    cov[da:, da:] = b.cov
    return GaussianState(np.concatenate([a.mean, b.mean]), cov)


def beamsplitter(i: int, j: int, theta: float, n: int) -> np.ndarray:
    """Symplectic (2n, 2n) matrix S of a beamsplitter mixing modes i and j of an n-mode register.

    Acts as x_i -> cos(theta) x_i + sin(theta) x_j,
    x_j -> -sin(theta) x_i + cos(theta) x_j, identically on p.
    theta = pi/4 is the balanced (50:50) case.  A state's moments map as
    mean -> S mean, cov -> S cov S^T.
    """
    if i == j:
        raise ValueError("beamsplitter needs two distinct modes")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("mode index out of range")
    S = np.eye(2 * n)
    c, s = np.cos(theta), np.sin(theta)
    for q in (0, 1):
        a, b = 2 * i + q, 2 * j + q
        S[a, a] = c
        S[a, b] = s
        S[b, a] = -s
        S[b, b] = c
    return S


def partial_transpose(state: GaussianState | np.ndarray, flip: Iterable[int]) -> np.ndarray:
    """Covariance matrix after partial transposition of the ``flip`` modes.

    Returns the raw matrix T cov T, where T negates the momentum row and
    column of every flipped mode.  The result is generally not a physical
    covariance matrix; a symplectic eigenvalue below 1/2 witnesses
    entanglement across any cut separating ``flip`` from the rest.
    ``state`` may also be a covariance matrix or a (..., 2n, 2n) stack of them.
    """
    cov = state.cov if isinstance(state, GaussianState) else np.asarray(state, dtype=float)
    flip = sorted(set(flip))
    n = cov.shape[-1] // 2
    if not flip or len(flip) >= n:
        raise ValueError("flip must be a nonempty proper subset of the modes")
    if flip[0] < 0 or flip[-1] >= n:
        raise ValueError("mode index out of range")
    signs = np.ones(2 * n)
    for m in flip:
        signs[2 * m + 1] = -1.0
    return signs[:, None] * cov * signs[None, :]


def quad_variance(state: GaussianState, coeffs: np.ndarray) -> float:
    """Variance of the quadrature combination sum_k coeffs_k R_k."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * state.n_modes,):
        raise ValueError("coefficient vector length does not match the state")
    return float(coeffs @ state.cov @ coeffs)


_SAMPLE_CHUNK = 1 << 16


def sample_oracle(state: GaussianState, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo moment estimator, the cross-validation oracle for tests and ``validate``.

    Draws ``count`` samples from the multivariate normal with the state's
    moments and returns (empirical mean, empirical covariance with ddof=1).
    The state's covariance passed the physicality check at construction, so
    it is positive definite up to round-off.  Sampling is chunked with a
    fixed chunk size, so a fixed seed gives bit-identical output across
    runs; empirical moments converge to the analytic ones at O(1/sqrt(count)).
    """
    if count < 2:
        raise ValueError("need at least two samples")
    mean, cov = state.mean, state.cov
    d = mean.shape[0]
    w, v = np.linalg.eigh(cov)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    total = np.zeros(d)
    outer = np.zeros((d, d))
    done = 0
    while done < count:
        m = min(_SAMPLE_CHUNK, count - done)
        z = rng.standard_normal((m, d))
        x = z @ factor.T + mean
        total += x.sum(axis=0)
        outer += x.T @ x
        done += m
    est_mean = total / count
    est_cov = (outer - count * np.outer(est_mean, est_mean)) / (count - 1)
    return est_mean, est_cov


def state_to_dict(state: GaussianState) -> dict:
    """JSON-ready dict {"n_modes", "mean", "cov"} with a full row-major cov."""
    return {
        "n_modes": state.n_modes,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def moments_from_dict(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) arrays of a :func:`state_to_dict` object, checked for shape and finiteness only."""
    try:
        n = int(data["n_modes"])
        mean = np.asarray(data["mean"], dtype=float)
        cov = np.asarray(data["cov"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state object: {exc}") from exc
    if mean.shape != (2 * n,) or cov.shape != (2 * n, 2 * n):
        raise ValueError("state object dimensions are inconsistent with n_modes")
    for name, arr in (("mean", mean), ("cov", cov)):
        if not np.isfinite(arr).all():
            raise ValueError(f"state object has non-finite entries in {name}")
    return mean, cov


def state_from_dict(data: dict) -> GaussianState:
    """Inverse of :func:`state_to_dict`; validates shapes and physicality."""
    return GaussianState(*moments_from_dict(data))
