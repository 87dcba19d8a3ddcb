"""Exact-arithmetic determinant oracles used to pin down floating answers.

Bareiss fraction-free elimination over Python ints/Fractions gives the
determinant of an integer (or rational) matrix with zero rounding error, so
integer-coordinate instances have unambiguous ground truth.

``reference_peel`` is the peeling as it was written before working sets
became masked blocks: a copy of the rows left for every layer, and greedy
residuals clamped at 0.  On inputs whose arithmetic is exact, or free of
near-ties, the masked peel must reproduce it layer for layer.

``reference_logdet_psd_batch`` is the log-det sweep as it was written with
einsum sums over a (B, d, d) stack, and ``reference_grower`` the base walk's
matrix growth as it was, with each Gram grown by one border per element.
The batch-innermost sweep and the pairwise-table Grams must reproduce them
bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from detmax.errors import MatrixInvariantError
from detmax.geometry import PSD_PIVOT_TOL, SINGULAR_PIVOT_REL, logdet_psd_batch


def bareiss_det(rows):
    """Exact determinant of a square matrix given as nested lists.

    Entries may be ints or Fractions; the result is a Fraction.  Uses
    fraction-free Gaussian elimination (each division is exact), with row
    pivoting to step over zero pivots.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = (m[i][c] * m[j][j] - m[i][j] * m[j][c]) / prev
            m[i][j] = Fraction(0)
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def exact_gram_det(vectors):
    """Exact determinant of sum(v v^T) over integer/rational row vectors."""
    d = len(vectors[0])
    g = [[Fraction(0)] * d for _ in range(d)]
    for v in vectors:
        for a in range(d):
            for b in range(d):
                g[a][b] += Fraction(v[a]) * Fraction(v[b])
    return bareiss_det(g)


def exact_log(value):
    """log of a positive Fraction without building huge floats."""
    frac = Fraction(value)
    if frac <= 0:
        raise ValueError("need a positive value, got %s" % frac)
    return math.log(frac.numerator) - math.log(frac.denominator)


def _clamped_greedy(X, take):
    """Greedy max-residual positions of X, residuals clamped at 0 and picked rows reset to -inf."""
    res = np.einsum("ij,ij->i", X, X)
    cut = SINGULAR_PIVOT_REL * res
    basis = np.zeros((take, X.shape[1]))
    nbasis = 0
    picked = []
    for _ in range(take):
        pos = int(np.argmax(res))
        picked.append(pos)
        if res[pos] > cut[pos] and nbasis < X.shape[1]:
            v = X[pos] - basis[:nbasis].T @ (basis[:nbasis] @ X[pos])
            norm = float(np.linalg.norm(v))
            if norm * norm > cut[pos]:
                basis[nbasis] = v / norm
                res = np.maximum(res - (X @ basis[nbasis]) ** 2, 0.0)
                nbasis += 1
                res[picked] = -np.inf
        res[pos] = -np.inf
    return picked


def _copy_search(X, ids, ell, zeta):
    """(ids, value, degenerate, swap_count) of greedy plus best swaps over the rows of X, each swap scored."""
    take = min(ell, len(X))
    cur = sorted(_clamped_greedy(X, take))
    value = lambda pos: float(logdet_psd_batch((X[pos] @ X[pos].T)[None])[0])  # noqa: E731
    val, swaps = value(cur), 0
    norms = np.einsum("ij,ij->i", X, X)
    while val > -math.inf and len(X) > take:
        A = X[cur]
        g_inv = np.linalg.inv(A @ A.T)
        C = (g_inv @ A) @ X.T
        ratio = C * C
        if take < X.shape[1]:
            ratio += np.diag(g_inv)[:, None] * np.maximum(norms - np.einsum("ij,ij->j", A @ X.T, C), 0.0)
        ratio[:, cur] = -np.inf
        into = ratio.argmax(axis=1)
        best = ratio[np.arange(take), into]
        j = int(np.argmax(best))
        if not best[j] > zeta:
            break
        cur = sorted(cur[:j] + cur[j + 1:] + [int(into[j])])
        val, swaps = value(cur), swaps + 1
    return tuple(ids[cur].tolist()), val, val == -math.inf, swaps


def reference_peel(ids, X, threshold, ell, zeta, child=None):
    """Up to ``threshold`` layers peeled out of the rows X (ids ``ids``, ascending), copying the rows left per layer.

    ``child`` labels each row's child set (-1 for none), and a layer also
    takes out every row sharing a label with one of its members.  Each layer
    comes back as (ids, value, degenerate, swap_count).
    """
    alive = np.ones(len(ids), dtype=bool)
    layers = []
    for _ in range(threshold):
        left = np.flatnonzero(alive)
        if not len(left):
            break
        layers.append(_copy_search(X[left], ids[left], ell, zeta))
        pos = np.searchsorted(ids, layers[-1][0])
        alive[pos] = False
        if child is not None:
            alive[np.isin(child, child[pos][child[pos] >= 0])] = False
    return layers


def reference_logdet_psd_batch(mats, *, first=0):
    """Log-determinants of a stack of symmetric PSD matrices, shape (B, d, d).

    This is the single source of truth for the pivot rule; the scalar
    :func:`log_det_psd` delegates here so batched oracles and scalar
    evaluations can never disagree on what counts as singular.  A matrix
    that is not PSD is named by its index plus ``first``, the position of
    ``mats[0]`` in the caller's list.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise MatrixInvariantError("expected shape (B, d, d), got %r" % (a.shape,))
    nbatch, d, _ = a.shape
    if nbatch == 0 or d == 0:
        return np.zeros(nbatch)
    tr = np.trace(a, axis1=1, axis2=2)
    psd_tol = PSD_PIVOT_TOL * np.maximum(1.0, np.abs(tr) / d)
    out = np.zeros(nbatch)
    alive = np.ones(nbatch, dtype=bool)
    low = np.zeros_like(a)
    for j in range(d):
        pivot = a[:, j, j] - np.einsum("bi,bi->b", low[:, j, :j], low[:, j, :j])
        # a singular PSD matrix whose leading block is ill-conditioned can
        # round a pivot below -psd_tol; only an eigenvalue that far below 0
        # shows the input was not PSD, and the rounded pivot is then dead
        for b in np.flatnonzero(alive & (pivot < -psd_tol)):
            if np.linalg.eigvalsh(a[b])[0] < -psd_tol[b]:
                raise MatrixInvariantError(
                    "matrix %d is not PSD: Cholesky pivot %.3e at step %d" % (first + b, pivot[b], j)
                )
        dead = alive & (pivot <= SINGULAR_PIVOT_REL * np.maximum(a[:, j, j], 0.0))
        out[dead] = -np.inf
        alive &= ~dead
        safe = np.where(alive, pivot, 1.0)
        out[alive] += np.log(safe[alive])
        root = np.sqrt(safe)
        if j + 1 < d:
            low[:, j + 1 :, j] = (
                a[:, j + 1 :, j] - np.einsum("bik,bk->bi", low[:, j + 1 :, :j], low[:, j, :j])
            ) / root[:, None]
        low[:, j, j] = root
    return out


def reference_grower(coords, scatter):
    """The empty selection's (1, ...) matrix and the step that extends a stack of selections by one row each.

    ``step(mats, prefix, child)`` takes the matrices of the selections whose
    rows of ``coords`` are the (b, j) array ``prefix`` and returns those of
    each prefix plus its row in ``child``: the d x d scatter plus the child's
    outer product, or the j x j Gram bordered by the child's inner products
    with the prefix and its squared norm.
    """
    def outer(mats, prefix, child):
        x = coords[child]
        out = np.einsum("bi,bj->bij", x, x)
        out += mats
        return out

    def border(mats, prefix, child):
        b, j = prefix.shape
        x = coords[child]
        out = np.empty((b, j + 1, j + 1))
        out[:, :j, :j] = mats
        for i in range(j):  # a column at a time, so no (b, j, d) gather of the prefixes' rows
            out[:, j, i] = out[:, i, j] = np.einsum("bd,bd->b", coords[prefix[:, i]], x)
        out[:, j, j] = np.einsum("bd,bd->b", x, x)
        return out

    d = coords.shape[1]
    return (np.zeros((1, d, d)), outer) if scatter else (np.zeros((1, 0, 0)), border)
