"""Numerical validation oracles for the classifier.

Nothing in this module trusts the classification rules: every routine
measures a property of the operator T = w U directly from finite
dimensional models, so the measurements can confirm or contradict the
reported sets.

The matrix model truncates T to the span of the monomials z^0 .. z^{N-1}
in the normalized basis e_k = z^k / ||z^k||.  On that basis

    T e_k = alpha^k w(z) z^k / nu_k  ->  M[n, k] = alpha^k c_{n-k} nu_n / nu_k,

a lower triangular matrix whose diagonal alpha^k w(0) matches the point
spectrum candidates exactly (same arithmetic, term by term).  It is held
as its diagonals, one per coefficient c_j; the dense matrix is formed
only for the dense gap route, the rank and the smoothing identity.  Spaces
with a usable sequence model: the Hardy type space (coefficient proxy
norm), the Bergman and Dirichlet spaces at p = 2, and the summable
series space with its l^1 coefficient norm.  The Bloch space has no
usable sequence norm and is validated through the function space
residual path instead.

Independent checks provided here:

* ``pseudospectrum_scan``       resolvent gap g(lambda) on radial grids
* ``truncation_rank``           numerical rank of the truncation
* ``check_smoothing_identity``  algebraic identity of the smoothing sum
* ``singular_sequence_residual`` builds an explicit approximate
                                 eigenvector and measures ||TG - lambda G||/||G||
* ``norm_asymptotics``          growth ladders of the peaked test
                                 functions q_m(z) = ((1+z)/2)^m
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .ergodic import ap_membership, ordered_parallel_map
from .weights import (
    RotationAngle,
    RotationVector,
    SpaceSpec,
    Polynomial,
    Weight,
    WeightError,
    taylor_coefficients,
)


class OracleError(RuntimeError):
    """Raised when an oracle cannot run or cannot certify its setup."""


MAX_TRUNCATION = 4096
MAX_LADDER_M = 100_000
#: largest coefficient window of the residual construction
MAX_RESIDUAL_WINDOW = 1 << 15


# ----------------------------------------------------------------------
# sequence space models
# ----------------------------------------------------------------------


def monomial_norms(sp: SpaceSpec, order: int) -> Tuple[np.ndarray, str]:
    """Norms nu_k = ||z^k|| and the coefficient norm tag of the model.

    norm_tag "euclidean" means ||x|| = l^2 norm of the normalized
    coordinates; "sum" means the l^1 norm of the plain coefficients.
    """
    ks = np.arange(order)
    if sp.variant == "hardy_banach":
        return np.ones(order), "euclidean"
    if sp.variant == "bergman":
        if sp.p != 2:
            raise OracleError("the sequence model of the Bergman space needs p = 2")
        return np.sqrt(np.pi / (ks + 1.0)), "euclidean"
    if sp.variant == "dirichlet":
        if sp.p != 2:
            raise OracleError("the sequence model of the Dirichlet space needs p = 2")
        nus = np.sqrt(np.pi * np.maximum(ks, 1).astype(float))
        nus[0] = 1.0
        return nus, "euclidean"
    if sp.variant == "ell1a":
        return np.ones(order), "sum"
    if sp.variant == "bloch":
        raise OracleError(
            "the Bloch space has no usable sequence model; use the residual path"
        )
    raise OracleError("no sequence space model for space %r" % sp.variant)


@dataclass(frozen=True)
class TruncationMatrix:
    """Truncation of T to the first ``order`` normalized monomials, held
    as its diagonals in LAPACK lower band storage: bands[j, k] = M[k + j, k],
    zero where k + j >= order."""

    bands: np.ndarray     # (d + 1, order) complex; c_d the last nonzero coefficient
    norm_tag: str         # "euclidean" | "sum"

    @property
    def order(self) -> int:
        return self.bands.shape[1]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense (order, order) matrix, formed on first use."""
        n = self.order
        m = np.zeros((n, n), dtype=complex)
        flat = m.reshape(-1)
        for j, band in enumerate(self.bands):
            flat[j * n :: n + 1] = band[: n - j]   # the entries [k + j, k]
        return m

    def leading(self, n: int) -> "TruncationMatrix":
        """The truncation of order n <= ``order``, bit for bit: entry
        [i, k] depends on i and k only, so it is the leading n x n block,
        the bands cut to n columns without their entries below row n."""
        if not (1 <= n <= self.order):
            raise OracleError("order must lie in 1..%d" % self.order)
        if n == self.order:
            return self
        bands = self.bands[:n, :n].copy()
        for j in range(1, bands.shape[0]):
            bands[j, n - j :] = 0.0
        return TruncationMatrix(bands, self.norm_tag)


def build_truncation(sp: SpaceSpec, w: Weight, rotation, order: int) -> TruncationMatrix:
    """Assemble the order x order truncation matrix of T = w U."""
    if isinstance(rotation, RotationVector):
        raise OracleError("matrix models are one variable only")
    if not isinstance(rotation, RotationAngle):
        raise OracleError("rotation must be a rotation angle")
    if not (1 <= order <= MAX_TRUNCATION):
        raise OracleError("order must lie in 1..%d" % MAX_TRUNCATION)
    nus, tag = monomial_norms(sp, order)
    try:
        coeffs = taylor_coefficients(w, order)
    except WeightError as exc:
        raise OracleError("truncation needs coefficient data: %s" % exc) from exc
    apow = rotation.alpha() ** np.arange(order)
    nonzero = np.flatnonzero(coeffs)
    bands = np.zeros((nonzero[-1] + 1 if nonzero.size else 1, order), dtype=complex)
    # M[k + j, k] = c_j alpha^k nu_{k+j} / nu_k, one diagonal at a time
    for j in range(1, bands.shape[0]):
        bands[j, : order - j] = coeffs[j] * apow[: order - j] * (nus[j:] / nus[: order - j])
    # the diagonal is alpha^k w(0) by definition; write it with the same
    # expression the candidate law uses so the agreement is bitwise, not
    # merely up to rounding of the elementwise products
    bands[0] = apow * coeffs[0]
    return TruncationMatrix(bands=bands, norm_tag=tag)


# ----------------------------------------------------------------------
# resolvent gaps
# ----------------------------------------------------------------------


#: Krylov steps of the inverse Lanczos before a point falls back to the
#: dense SVD; the basis grows on demand up to this many vectors
LANCZOS_MAX_STEPS = 300
#: the top Ritz pair counts as converged once its residual is this small
#: relative to the Ritz value
LANCZOS_TOL = 1e-13
#: steps between two Ritz pair checks
RITZ_EVERY = 4
#: the banded route is taken, at every order, while the bandwidth is at
#: most N divided by this; the l^1 recurrence competes with a blocked
#: dense solve and breaks even at a narrower band than the Lanczos
BANDED_MAX_WIDTH_DIVISOR = {"euclidean": 4, "sum": 16}
#: relative error the shifted route may add to a gap.  It works on the
#: Gram matrix G = A A^H, whose computed form and Cholesky factors carry
#: an absolute error of about eps ||A||_2^2; sigma^2 = lambda_min(G) then
#: has the relative error eps (||A||_2 / sigma)^2.  With bandwidth d,
#: ||A||_2 <= (d + 1) max|A_ij|, so a gap with
#: sigma / max|A_ij| >= tau = (d + 1) sqrt(eps / GRAM_REL_ERR) stays within
#: GRAM_REL_ERR (tau = 4.5e-3 for d = 2); closer to the spectrum the
#: unshifted Lanczos, which never squares, measures the gap
GRAM_REL_ERR = 1e-10
#: the shift is this fraction of the previous point's gap squared; the gap
#: moves by at most |lambda - lambda'| between neighbouring points, and a
#: shift above lambda_min(G) makes the Cholesky factorization fail
GRAM_SHIFT = 0.98
#: complex entries per batch of a circle's points, (d + 1) N per point:
#: the row buffer of the l^1 recurrence, and it bounds lambda - diag
CIRCLE_BATCH_ENTRIES = 1 << 20


@lru_cache(maxsize=None)
def _lapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded
    from its file alone.

    ``from scipy.linalg import lapack`` runs ``scipy/linalg/__init__``,
    about 0.15 s after numpy, for the six routines the gap routes call.
    The extension is registered under its own name, so a later
    ``import scipy.linalg`` reuses it and hands out the same functions.
    When the file is missing or does not load, the package import is the
    fallback: slower, never different.
    """
    import importlib.machinery
    import importlib.util
    import os
    import sys

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_loader(name, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    except (ImportError, AttributeError, TypeError):   # no scipy, or the file does not load
        pass
    from scipy.linalg import lapack

    return lapack


def _gap_dense(T: TruncationMatrix, lam: complex) -> float:
    """g(lambda) from the dense matrix: the reference route.

    O(N^3) per point.  The scan takes it for wide bands, where it is the
    faster route, and when the inverse Lanczos does not converge; the
    tests compare the banded routes against it.
    """
    a = lam * np.eye(T.order, dtype=complex) - T.entries
    if T.norm_tag == "euclidean":
        s = np.linalg.svd(a, compute_uv=False)
        return float(s[-1])
    # sum norm: the operator norm of the inverse on l^1 is the largest
    # column sum; the matrix is lower triangular so back substitution
    # against the identity is exact.  a is C ordered: LAPACK solves with
    # its transpose, the Fortran ordered upper triangle, as
    # solve_triangular(a, I, lower=True) does
    diag = np.abs(np.diag(a))
    if float(diag.min()) < 1e-300:
        return 0.0
    inv, _ = _lapack().ztrtrs(a.T, np.eye(T.order, dtype=complex), lower=0, trans=1)
    return 1.0 / float(np.max(np.sum(np.abs(inv), axis=0)))


class _BandedShift:
    """lambda I - M for the scan, set up once per truncation.

    M is lower triangular with bandwidth d (the degree for polynomial
    weights, N - 1 for Taylor and rational ones).  While the band is
    narrow enough (``banded``), the routes read M's band storage, so every
    solve with lambda I - M is a banded triangular solve costing O(N d)
    and only the diagonal depends on lambda.  Otherwise every point takes
    the dense route, which is faster there.
    """

    def __init__(self, T: TruncationMatrix):
        n = T.order
        # bandwidth: the last diagonal with a nonzero entry (the zero
        # matrix counts as a full band)
        nonzero = np.flatnonzero(T.bands.any(axis=1))
        d = int(nonzero[-1]) if nonzero.size else n - 1
        self.banded = d * BANDED_MAX_WIDTH_DIVISOR[T.norm_tag] <= n
        # the rows of M the banded routes read; the dense route forms M
        self.bands = T.bands[: d + 1 if self.banded else 1]
        self.off_max = float(np.abs(T.bands[1:]).max(initial=0.0))
        self.T = T
        self.tau = (d + 1) * math.sqrt(np.finfo(float).eps / GRAM_REL_ERR)
        # a fixed start vector keeps the scan deterministic
        rng = np.random.default_rng(0)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.start = start / np.linalg.norm(start)

    def circle(self, points: np.ndarray) -> np.ndarray:
        """g(lambda) = 1 / ||(lambda I - M)^{-1}|| in the model norm at the
        points of one circle, walked in angle order: each point of a
        Euclidean scan may shift by its predecessor's gap.  Returns the
        gaps and the floors as the two rows of one array.

        Inside the spectrum the gap is roundoff; there the floor
        N eps max|A_ij| of A = lambda I - M is reported instead: when a
        diagonal entry is that small, when a solve overflows, or when
        the measured gap falls below it.  The banded routes measure
        A scaled by a power of two (exact) so that max|A_ij| lies in
        [1/2, 1): an overflow then certifies a gap far below the floor.
        """
        ell1 = self.banded and self.T.norm_tag == "sum"
        out = np.empty((2, points.size))
        prev = 0.0
        step = max(1, CIRCLE_BATCH_ENTRIES // self.bands.size)
        for lo in range(0, points.size, step):
            part = points[lo : lo + step]
            diag = part[:, None] - self.T.bands[0]
            size = np.abs(diag)
            amax = np.maximum(self.off_max, size.max(axis=1))
            floor = out[1, lo : lo + part.size] = self.T.order * np.finfo(float).eps * amax
            todo = size.min(axis=1) > floor
            scale = 2.0 ** -np.frexp(amax)[1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                if ell1:
                    batch = np.zeros(part.size)
                    batch[todo] = _ell1_gaps(
                        self.bands, diag[todo] * scale[todo, None], scale[todo]
                    ) / scale[todo]
                for i, lam in enumerate(part):
                    if not todo[i]:
                        g = floor[i]
                    elif ell1:
                        g = batch[i]
                    elif not self.banded:
                        g = _gap_dense(self.T, complex(lam))
                    else:
                        g = self._lanczos(diag[i], amax[i], floor[i], scale[i], prev)
                        if g is None:   # no convergence: the dense route
                            g = _gap_dense(self.T, complex(lam))
                    # "not >" also maps an overflow (0 or NaN) to the floor
                    out[0, lo + i] = prev = g if g > floor[i] else floor[i]
        return out

    def _lanczos(self, diag: np.ndarray, amax: float, floor: float, scale: float,
                 prev: float) -> Optional[float]:
        """The banded Euclidean route at one point; None when the inverse
        Lanczos does not converge.  Off the spectrum (the previous gap
        ``prev`` at least tau max|A_ij|) the shifted route is tried first."""
        ab = self.bands * -scale
        ab[0] = diag * scale
        cut = self.tau * amax * scale
        if prev * scale >= cut:
            g = _shifted_lanczos(ab, self.start, GRAM_SHIFT * (prev * scale) ** 2)
            if g is not None and g >= cut:
                return g / scale
        g = _inverse_lanczos(ab, self.start, floor * scale)
        return None if g is None else g / scale


def _ell1_gaps(bands: np.ndarray, diag: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """1 / ||(s A)^{-1}||_1 for a batch of lower banded triangular
    matrices s A = s (lambda I - M) that share the off-diagonal bands
    ``bands[1:]`` of M, with a power of two s per matrix; 0.0 where the
    solve overflows.

    ``diag`` holds the scaled diagonals s A[i, i], one row per matrix.
    Row i of X = (s A)^{-1} is

        X_i = (e_i + s sum_{k=1}^{d} M[i, i - k] X_{i-k}) / (s A[i, i])

    on the columns up to i.  Only the last d + 1 rows are kept, with the
    running column sums of |X|.  Every operation is elementwise, so a
    matrix's gap does not depend on the batch it is in.
    """
    slots, n = bands.shape
    p = diag.shape[0]
    ring = np.zeros((slots, n, p), dtype=complex)
    term = np.empty(n * p, dtype=complex)
    colsum = np.zeros((n, p))
    inv = 1.0 / diag.T
    for i in range(n):
        # the slot of row i - d - 1, overwritten on columns 0 .. i
        row = ring[i % slots, : i + 1]
        last = min(i, slots - 1)
        if last:
            np.multiply(ring[(i - 1) % slots, : i + 1], bands[1, i - 1], out=row)
        else:
            row[...] = 0.0
        t = term[: (i + 1) * p].reshape(i + 1, p)
        for k in range(2, last + 1):
            np.multiply(ring[(i - k) % slots, : i + 1], bands[k, i - k], out=t)
            row += t
        row *= scale
        row[i] += 1.0
        row *= inv[i]
        colsum[: i + 1] += np.abs(row)
    top = colsum.max(axis=0)
    return np.where(np.isfinite(top), 1.0 / top, 0.0)


def _top_ritz(alphas: list, betas: list) -> Tuple[float, float]:
    """Largest eigenvalue of the Lanczos tridiagonal matrix and the last
    component of its unit eigenvector (bisection, then inverse
    iteration); the component is inf when the iteration fails.

    The LAPACK pair is called directly: ``scipy.linalg.eigh_tridiagonal``
    runs the same two routines but adds 25-35 us of argument handling
    per call, about a quarter of a typical point's Lanczos time.
    """
    lapack = _lapack()
    k = len(alphas)
    if k == 1:
        return alphas[0], 1.0
    d = np.asarray(alphas)
    e = np.asarray(betas)
    _, vals, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0, "B")
    if info != 0:
        return 0.0, math.inf
    vec, info = lapack.dstein(d, e, vals[:1], iblock, isplit)
    return float(vals[0]), (abs(float(vec[-1, 0])) if info == 0 else math.inf)


def _lanczos_top(solve: Callable, start: np.ndarray, big: float) -> Optional[float]:
    """Largest eigenvalue theta of a Hermitian positive definite B given
    by ``solve(q) = B q`` (None when the solve fails), by Lanczos.

    Each step is one ``solve`` and a full reorthogonalization against
    the basis, which grows on demand.  The top Ritz pair is examined
    every RITZ_EVERY steps.  Returns inf as soon as a solve fails or
    ||B q|| or a Ritz value reaches ``big`` (both bound theta from
    below), and None when the top Ritz pair has not converged after
    LANCZOS_MAX_STEPS steps.
    """
    n = start.size
    basis = np.empty((min(32, LANCZOS_MAX_STEPS), n), dtype=complex)
    alphas = []
    betas = []
    q = start
    for k in range(LANCZOS_MAX_STEPS):
        if k == basis.shape[0]:
            grown = np.empty((min(2 * k, LANCZOS_MAX_STEPS), n), dtype=complex)
            grown[:k] = basis
            basis = grown
        basis[k] = q
        w = solve(q)
        # ||B q|| <= ||B|| = theta, so a large (or overflowed) w already
        # reaches big
        if w is None or not (math.sqrt(float(np.vdot(w, w).real)) < big):
            return math.inf
        alpha = float(np.vdot(q, w).real)
        alphas.append(alpha)
        # the three-term step first: the Gram-Schmidt pass below would
        # remove these components too, but the norm left after them is
        # the baseline that tells whether that pass cancelled too much
        # (then it runs once more); against the raw w the second pass
        # would run at every step
        w = w - alpha * q
        if k:
            w = w - betas[-1] * basis[k - 1]
        # full reorthogonalization: classical Gram-Schmidt against the
        # whole basis
        active = basis[: k + 1]
        before = math.sqrt(float(np.vdot(w, w).real))
        for _ in range(2):
            w = w - (active @ w.conj()).conj() @ active
            beta = math.sqrt(float(np.vdot(w, w).real))
            if beta >= 0.7 * before:
                break
            before = beta
        if beta == 0.0 or k % RITZ_EVERY == RITZ_EVERY - 1:
            theta, last = _top_ritz(alphas, betas)
            if not (theta < big):
                return math.inf
            if theta > 0.0 and beta * last <= LANCZOS_TOL * theta:
                return theta
            if beta == 0.0:   # exhausted Krylov space without a usable pair
                return None
        betas.append(beta)
        q = w / beta
    return None


def _inverse_lanczos(ab: np.ndarray, start: np.ndarray, floor: float) -> Optional[float]:
    """sigma_min of lower banded triangular A by Lanczos on (A A^H)^{-1},
    two banded triangular solves per step.  Returns 0.0 as soon as
    sigma_min <= floor is certified (a solve overflowed, or ||B q|| or a
    Ritz value of B = (A A^H)^{-1} reached 1/floor^2), and None when the
    Lanczos does not converge.
    """
    lapack = _lapack()

    def solve(q):
        y, info = lapack.ztbtrs(ab, q[:, None], uplo="L")
        z, info2 = lapack.ztbtrs(ab, y, uplo="L", trans="C")
        return None if info or info2 else z[:, 0]

    theta = _lanczos_top(solve, start, 1.0 / (floor * floor))
    if theta is None:
        return None
    return 0.0 if theta == math.inf else 1.0 / math.sqrt(theta)


def _shifted_lanczos(ab: np.ndarray, start: np.ndarray, mu: float) -> Optional[float]:
    """sigma_min of lower banded triangular A by Lanczos on (G - mu I)^{-1},
    G = A A^H, one banded Cholesky solve per step: sigma^2 = mu + 1/theta.

    G is Hermitian with the bandwidth of A and is formed in lower band
    storage.  Returns None when the Cholesky factorization fails
    (mu >= lambda_min(G)), a solve overflows, or the Lanczos does not
    converge.
    """
    lapack = _lapack()
    d1, n = ab.shape
    # G[j + s, j] = sum_u A[j + s, j - u] conj(A[j, j - u]), u = 0 .. d - s
    gram = np.zeros_like(ab)
    for s in range(d1):
        for u in range(d1 - s):
            gram[s, u:] += ab[s + u, : n - u] * ab[u, : n - u].conj()
    gram[0] -= mu
    chol, info = lapack.zpbtrf(gram, lower=1, overwrite_ab=1)
    if info:
        return None

    def solve(q):
        x, info = lapack.zpbtrs(chol, q[:, None], lower=1)
        return None if info else x[:, 0]

    theta = _lanczos_top(solve, start, math.inf)
    if theta is None or theta == math.inf:
        return None
    return math.sqrt(mu + 1.0 / theta)


@dataclass(frozen=True)
class PseudospectrumGrid:
    """Resolvent gaps on circles around the predicted spectral radii."""

    points: np.ndarray    # flat complex grid, radius major
    gaps: np.ndarray      # g(lambda) per point
    floors: np.ndarray    # rounding floor N eps max|A_ij| of lambda I - M per point

    def rows(self):
        """(re, im, gap) triples in deterministic grid order."""
        return [
            (float(z.real), float(z.imag), float(g))
            for z, g in zip(self.points, self.gaps)
        ]


def pseudospectrum_scan(
    T: TruncationMatrix, radii: Sequence[float], n_angles: int = 64
) -> PseudospectrumGrid:
    """Measure the resolvent gap on radial grids.

    The points are laid out radius major, angle minor.  The circles are
    measured one after the other, each walked in angle order from the
    same fixed Lanczos start vector, so the output is deterministic for
    fixed inputs.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(not (r > 0.0) for r in radii):
        raise OracleError("radii must be positive")
    if n_angles < 1:
        raise OracleError("n_angles must be positive")
    angles = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    circles = [r * angles for r in radii]
    gaps, floors = np.concatenate(ordered_parallel_map(_BandedShift(T).circle, circles), axis=1)
    return PseudospectrumGrid(points=np.concatenate(circles), gaps=gaps, floors=floors)


# ----------------------------------------------------------------------
# numerical rank
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RankResult:
    rank: int
    indeterminate: bool   # set when kept/dropped singular values are too close
    kept_min: float
    dropped_max: float
    threshold: float


def truncation_rank(T: TruncationMatrix) -> RankResult:
    """Numerical rank of the truncation with an explicit gap audit.

    Singular values below N * eps * s_max are dropped; if the smallest
    kept value is within a factor 10 of the largest dropped one the
    verdict is flagged indeterminate rather than trusted.
    """
    s = np.linalg.svd(T.entries, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    threshold = T.order * np.finfo(float).eps * smax
    kept = s > threshold
    rank = int(kept.sum())
    kept_min = float(s[rank - 1]) if rank else 0.0
    dropped_max = float(s[rank]) if rank < s.size else 0.0
    indeterminate = bool(rank and rank < s.size and kept_min < 10.0 * dropped_max)
    return RankResult(rank, indeterminate, kept_min, dropped_max, float(threshold))


# ----------------------------------------------------------------------
# smoothing window
# ----------------------------------------------------------------------


def _smoothing_terms(eps: float, n: int) -> list:
    """The telescoped right side of the smoothing identity as
    (coefficient, power of T) pairs, in summation order."""
    terms = [((1.0 - eps) ** n, 0)]
    for j in range(1, n + 1):
        terms.append((eps * (1.0 - eps) ** (n - j), j))
        terms.append((-eps * (1.0 - eps) ** (j - 1), j + n))
    terms.append((-(1.0 - eps) ** n, 2 * n + 1))
    return terms


def _square(T) -> np.ndarray:
    m = np.asarray(getattr(T, "entries", T), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OracleError("a square matrix is required")
    return m


def check_smoothing_identity(T, eps: float, n: int) -> float:
    """Deviation of the telescoping identity of the smoothing sum.

    With S = sum_{j=0}^{2n} (1-eps)^{|j-n|} T^j the product (I - T) S
    telescopes to

        (1-eps)^n I
        + eps sum_{j=1}^{n} (1-eps)^{n-j} T^j
        - eps sum_{j=1}^{n} (1-eps)^{j-1} T^{j+n}
        - (1-eps)^n T^{2n+1},

    and the return value is the operator 2-norm of LHS - RHS, which is
    zero up to rounding (``smoothing_floor``) for every square matrix.
    """
    m = _square(T)
    if not (0.0 < eps < 1.0):
        raise OracleError("eps must lie in (0, 1)")
    if n < 1:
        raise OracleError("n must be positive")
    size = m.shape[0]
    powers = [np.eye(size, dtype=complex)]
    for _ in range(2 * n + 1):
        powers.append(powers[-1] @ m)
    smooth = sum((1.0 - eps) ** abs(j - n) * powers[j] for j in range(2 * n + 1))
    lhs = (np.eye(size, dtype=complex) - m) @ smooth
    rhs = sum(c * powers[j] for c, j in _smoothing_terms(eps, n))
    return float(np.linalg.norm(lhs - rhs, 2))


def smoothing_floor(T, n: int) -> float:
    """Rounding floor N eps (1 + ||T||_2)^{2n+1} of ``check_smoothing_identity``.

    Both sides are sums of at most 2n + 2 terms c_j T^j with |c_j| <= 1
    and j <= 2n + 1, each built by matrix products of order N.  A product
    rounds with a relative error of about N eps in norm, and every such
    sum is bounded by sum_j ||T||^j <= (1 + ||T||)^{2n+1} (the binomial
    coefficients are at least 1), so the computed deviation of an exact
    identity stays near N eps (1 + ||T||)^{2n+1}.  The estimate drops the
    factor 2n + 2 for the number of products, because the N eps bound is
    itself pessimistic by about sqrt(N): on the benchmark's verify and
    large norm truncations the deviation stays below 4e-4 of this floor.
    An absolute tolerance sits below it once ||T|| > 3.
    """
    m = _square(T)
    size = m.shape[0]
    return size * np.finfo(float).eps * (1.0 + float(np.linalg.norm(m, 2))) ** (2 * n + 1)


# ----------------------------------------------------------------------
# singular sequence residual
# ----------------------------------------------------------------------


def _poly_pow(base: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of base(z)^n by binary exponentiation."""
    result = np.array([1.0 + 0j])
    acc = np.asarray(base, dtype=complex)
    e = n
    while e:
        if e & 1:
            result = np.convolve(result, acc)
        e >>= 1
        if e:
            acc = np.convolve(acc, acc)
    return result


def _space_norm(sp: SpaceSpec, coeffs: np.ndarray) -> float:
    """Norm of sum coeffs[k] z^k in the target space."""
    if sp.variant == "bloch":
        return bloch_norm(coeffs)
    nus, tag = monomial_norms(sp, coeffs.size)
    if tag == "sum":
        return float(np.sum(np.abs(coeffs)))
    return float(np.linalg.norm(coeffs * nus))


def residual_window(w: Weight, m: int, n: int) -> Optional[int]:
    """Coefficient window of ``singular_sequence_residual`` (half width m,
    peak power n), None for the non polynomial weights it refuses;
    OracleError above MAX_RESIDUAL_WINDOW."""
    if not isinstance(w.rep, Polynomial):
        return None
    order = n + (2 * m + 2) * max(w.rep.degree, 1) + 8
    if order > MAX_RESIDUAL_WINDOW:
        raise OracleError("truncation window %d is too large" % order)
    return order


def residual_horizon(m: int) -> int:
    """Orbit steps the membership scan of ``singular_sequence_residual``
    covers at half width m."""
    return max(2 * m + 2, 64)


@dataclass(frozen=True)
class ResidualReport:
    residual: float     # ||T G - lambda G|| / ||G|| in the space norm
    witness: complex    # orbit base point found by the membership scan
    margin: float       # scan margin of the witness
    truncation: int     # coefficient window, large enough to be exact
    m: int
    n: int


def singular_sequence_residual(
    sp: SpaceSpec,
    w: Weight,
    rotation,
    lam: complex,
    m: int,
    n: int = 400,
    grid: int = 4096,
) -> ResidualReport:
    """Build the smoothed approximate eigenvector at lambda and measure
    its residual.

    The construction: a peaked polynomial Q(z) = ((z + k)/2)^n at a
    witness point k found by the membership scan, pulled back m rotation
    steps and normalized by the cocycle, then averaged with the
    smoothing window of half width m for T/lambda.  All operator
    applications happen on plain coefficient arrays (exact for
    polynomial weights); the final norms are the space norms, so the
    returned quotient is the honest residual of an explicit vector.
    """
    order = residual_window(w, m, n)
    if order is None:
        raise OracleError("the residual construction needs a polynomial weight")
    if m < 2:
        raise OracleError("m must be at least 2")
    if n < 1:
        raise OracleError("n must be positive")
    lam = complex(lam)
    if abs(lam) == 0.0:
        raise OracleError("lambda must be nonzero")

    verdict = ap_membership(w, rotation, abs(lam), n_max=residual_horizon(m), grid=grid)
    if not verdict.certified_in:
        raise OracleError(
            "membership scan did not certify |lambda| = %g (verdict %s, margin %.3g)"
            % (abs(lam), verdict.verdict, verdict.margin)
        )
    k = verdict.witness

    alpha = rotation.alpha()
    wc = np.asarray(w.rep.coeffs, dtype=complex)
    jpow = alpha ** np.arange(order)

    def apply_t(x: np.ndarray) -> np.ndarray:
        full = np.convolve(wc, x * jpow[: x.size])
        if full.size > order and np.max(np.abs(full[order:])) != 0.0:
            raise OracleError("internal: truncation window overflowed")
        out = np.zeros(order, dtype=complex)
        out[: min(order, full.size)] = full[:order]
        return out

    # peaked polynomial, pulled back m steps
    q = _poly_pow(np.array([k / 2.0, 0.5]), n)
    f = np.zeros(order, dtype=complex)
    f[: q.size] = q
    f *= alpha ** (-m * np.arange(order))
    orbit_vals = [
        complex(np.polynomial.polynomial.polyval(k * alpha ** j, wc)) for j in range(m)
    ]
    cocycle = complex(np.prod(orbit_vals))
    if abs(cocycle) == 0.0:
        raise OracleError("the weight vanishes on the witness orbit")
    f = f / (cocycle / lam ** m)

    eps = 1.0 / math.sqrt(m)
    g_vec = np.zeros(order, dtype=complex)
    cur = f.copy()
    for j in range(2 * m + 1):
        g_vec = g_vec + (1.0 - eps) ** abs(j - m) * cur
        if j < 2 * m:
            cur = apply_t(cur) / lam

    resid = apply_t(g_vec) - lam * g_vec
    g_norm = _space_norm(sp, g_vec)
    if g_norm == 0.0:
        raise OracleError("smoothed vector degenerated to zero")
    return ResidualReport(
        residual=float(_space_norm(sp, resid) / g_norm),
        witness=complex(k),
        margin=float(verdict.margin),
        truncation=order,
        m=int(m),
        n=int(n),
    )


# ----------------------------------------------------------------------
# norm ladders for the peaked test functions
# ----------------------------------------------------------------------


def _bergman_qm_norm_pow(s: int) -> float:
    """||q_{2s}||_{A^2}^2, the integral of |(1+z)/2|^{2s} over the disc.

    In the monomial basis it is 4^{-s} pi sum_k C(s,k)^2 / (k+1), and
    the Vandermonde identity sums that to 4^{-s} pi C(2s+1,s) / (s+1)
    = pi (2s+1) / (s+1)^2 prod_{j=1}^{s} (1 - 1/(2j)).
    """
    log_prod = float(np.sum(np.log1p(-0.5 / np.arange(1, s + 1))))
    return math.pi * (2 * s + 1) / (s + 1) ** 2 * math.exp(log_prod)


def _bloch_qm_norm(m: int) -> float:
    """Bloch norm of q_m: |q_m(0)| + sup (1-r^2) (m/2) ((1+r)/2)^{m-1}.

    The supremum over the disc is attained on the positive real axis
    (|1+z| <= 1+|z| pointwise) at r* = (m-1)/(m+1), where the profile
    equals 2 (m/(m+1))^{m+1}; q_0 = 1 has norm 1.
    """
    if m == 0:
        return 1.0
    return 2.0 ** (-m) + 2.0 * math.exp(-(m + 1) * math.log1p(1.0 / m))


def norm_asymptotics(sp: SpaceSpec, m_max: int) -> tuple:
    """Scaled norm ladder of q_m(z) = ((1+z)/2)^m.

    Bergman (integer p): returns (m, m^{3/2} ||q_m||_p^p) on a ladder of
    even m up to m_max; the scaled values stabilizing to a constant is
    the predicted decay rate.  Bloch: returns (m, m ||q_m||_Bloch) with
    the Bloch norm in closed form, 2^{-m} + 2 (m/(m+1))^{m+1}.
    """
    if not (2 <= m_max <= MAX_LADDER_M):
        raise OracleError("m_max must lie in 2..%d" % MAX_LADDER_M)
    ladder = sorted(
        {max(2, 2 * int(round(f * m_max / 2.0))) for f in (0.01, 0.03, 0.1, 0.3, 1.0)}
    )
    if sp.variant == "bergman":
        p = float(sp.p)
        if p != int(p):
            raise OracleError("the norm ladder needs an integer p")
        # the ladder holds even m only, so s = p m / 2 is an integer
        return tuple((m, float(m ** 1.5 * _bergman_qm_norm_pow(int(p) * m // 2))) for m in ladder)
    if sp.variant == "bloch":
        return tuple((m, float(m * _bloch_qm_norm(m))) for m in ladder)
    raise OracleError("norm ladders cover the Bergman and Bloch spaces")


# ----------------------------------------------------------------------
# Bloch norm of a coefficient vector
# ----------------------------------------------------------------------


def _bloch_base_grid(d: np.ndarray, rs: np.ndarray, n: int) -> np.ndarray:
    """(1 - r^2) |P'(r e^{2 pi i j / n})| for P' = sum d_k z^k, one row per
    radius r in rs and one column per angle index j = 0 .. n-1.

    The angles are those of an n point DFT, so folding the coefficients
    modulo n, f_m = sum over k = m (mod n) of d_k r^k, turns each row into
    one unscaled inverse FFT of f.  The fold adds n coefficients at a time,
    so the work memory stays a few len(rs) x n arrays at any degree.
    """
    folded = np.zeros((rs.size, n), dtype=complex)
    for s in range(0, d.size, n):
        blk = d[s : s + n]
        folded[:, : blk.size] += (rs[:, None] ** np.arange(s, s + blk.size)) * blk
    return (1.0 - rs[:, None] ** 2) * np.abs(np.fft.ifft(folded, axis=1, norm="forward"))


def bloch_norm(coeffs: np.ndarray, base_grid: int = 256, refine: int = 2) -> float:
    """|x(0)| + sup over the disc of (1 - |z|^2) |x'(z)| for a polynomial.

    Polar grid maximization: a base_grid x base_grid grid of radii and
    DFT angles, each radius one folded FFT of the derivative, then
    ``refine`` rounds of 33 x 33 Horner evaluations around the best cell.
    The factor (1 - |z|^2) kills the boundary, so the supremum is
    attained strictly inside and a grid of modest size pins it down.
    """
    if base_grid < 1:
        raise OracleError("base_grid must be positive")
    if refine < 0:
        raise OracleError("refine must be nonnegative")
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0:
        return 0.0
    head = abs(complex(c[0]))
    if c.size == 1:
        return head
    d = np.polynomial.polynomial.polyder(c)

    def best_cell(vals, rs, thetas) -> Tuple[float, float, float]:
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return float(vals[i, j]), float(rs[i]), float(thetas[j])

    rs = np.linspace(0.0, 1.0, base_grid, endpoint=False)
    thetas = np.linspace(0.0, 2.0 * np.pi, base_grid, endpoint=False)
    best, r0, t0 = best_cell(_bloch_base_grid(d, rs, base_grid), rs, thetas)
    dr = 1.0 / base_grid
    dt = 2.0 * np.pi / base_grid
    for _ in range(refine):
        rs = np.linspace(max(0.0, r0 - dr), min(1.0, r0 + dr), 33)
        thetas = np.linspace(t0 - dt, t0 + dt, 33)
        z = rs[:, None] * np.exp(1j * thetas)[None, :]
        vals = (1.0 - rs[:, None] ** 2) * np.abs(np.polynomial.polynomial.polyval(z, d))
        cand, r0, t0 = best_cell(vals, rs, thetas)
        best = max(best, cand)
        dr /= 16.0
        dt /= 16.0
    return head + best
