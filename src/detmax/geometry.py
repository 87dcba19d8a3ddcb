"""Vector storage and numerically robust log-determinant primitives.

Every objective in this package reduces to the log-determinant of a positive
semi-definite Gram matrix.  Values are carried in log domain throughout, with
``-inf`` standing for a singular (zero-determinant) matrix, because the
instances of interest span ranges like M**(2k) that overflow linear scale
long before they stress float64 exponents in log scale.

Singularity is classified per pivot: during the Cholesky sweep a pivot at
or below ``1e-12 * a[j, j]`` is treated as zero and the determinant as
exactly singular.  For a Gram matrix that ratio is the squared sine of the
angle between vector j and the span of the earlier vectors, so rescaling
any one vector never changes the verdict; local search applies the same
rule to residuals against each vector's own squared norm.  A pivot below
the negative tolerance raises ``MatrixInvariantError`` when the matrix also
has an eigenvalue below it, that is when the input was not PSD to begin
with; otherwise it is rounding on a singular matrix and counts as zero.

The batched Cholesky sweep runs on a batch-innermost (d, d, B) copy of the
stack, so each step is a few whole-batch ufunc calls.  Its sums of products
are added in one fixed order, the one numpy's two-operand ``np.einsum`` uses
with two-lane vectors, and its trace in ``np.trace``'s pairwise order.  So
its values are bitwise those of the einsum sweep it replaced, and no BLAS
kernel or CPU dispatch can change them.  It reads only the diagonal and the
lower triangle of each matrix.
"""

import functools
import numbers
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import InstanceFormatError, MatrixInvariantError, UnknownIdError

MAX_DIM = 64
# |coordinate| above this is an input error: every Gram entry of d <= MAX_DIM
# such coordinates, and every sum of n of them, stays far below 1e308
MAX_COORD = 1e100
# the group label of a point that has none
UNLABELED = -1

# pivot <= SINGULAR_PIVOT_REL * a[j, j]  ->  log det is -inf
SINGULAR_PIVOT_REL = 1e-12
# pivot < -PSD_PIVOT_TOL * max(1, trace/dim)  ->  input was not PSD
PSD_PIVOT_TOL = 1e-10
SYMMETRY_TOL = 1e-12


def first_true(mask):
    """Index of the first True in a 1-d mask, or its length when there is none."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


def is_count(value, low=0):
    """True for an int (not a bool) of at least ``low``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def int_column(values, none_ok=False):
    """Ids or group labels as int64, and the row of the first entry that is not a non-negative int.

    That row is len(values) when there is none.  Bools are not ints here.
    With ``none_ok``, None (UNLABELED in an int array) is allowed and kept as UNLABELED.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        col = values.astype(np.int64)
        return col, first_true(col < (UNLABELED if none_ok else 0))
    n = len(values)
    if set(map(type, values)) <= {int}:  # plain ints, the common case, skip the object arrays
        try:
            col = np.fromiter(values, np.int64, n)
        except OverflowError:  # beyond int64: the masked pass names it
            pass
        else:
            bad = col < 0
            col[bad] = 0
            return col, first_true(bad)
    obj = np.fromiter(values, dtype=object, count=n)
    kinds = np.fromiter(map(type, values), dtype=object, count=n)
    isint = np.isin(kinds, [t for t in set(kinds) if issubclass(t, (int, np.integer)) and t is not bool])
    isnone = (kinds == type(None)) & none_ok
    obj[~isint] = 0
    bad = ~(isint | isnone) | (obj < 0) | (obj > np.iinfo(np.int64).max)
    obj[bad] = 0
    col = obj.astype(np.int64)
    col[isnone] = UNLABELED
    return col, first_true(bad)


def check_ids(ids, what):
    """Ids as an int64 array; InstanceFormatError names the first that is not a non-negative int."""
    ids = ids if isinstance(ids, (list, tuple, np.ndarray)) else list(ids)
    col, stop = int_column(ids)
    if stop < len(ids):
        raise InstanceFormatError("%s id must be a non-negative int, got %r" % (what, ids[stop]))
    return col


def distinct_ids(ids):
    """The distinct ``ids`` (any iterable) ascending; UnknownIdError names the first that is not an int id."""
    ids = ids if isinstance(ids, np.ndarray) else list(ids)
    col, stop = int_column(ids)
    if stop < len(ids):
        raise UnknownIdError("no point with id %s" % (ids[stop],))
    col = np.sort(col, kind="stable")  # np.unique hashes first and is 100x slower on sorted input
    return np.concatenate((col[:1], col[1:][col[1:] != col[:-1]]))


def sorted_positions(keys, q):
    """Where the ints ``q`` would sit in the ascending int array ``keys``, and which of them are keys."""
    pos = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    return pos, (keys[pos] == q) if len(keys) else np.zeros(np.shape(q), dtype=bool)


def _numbers(coords):
    """True for a flat list, tuple or array of real numbers."""
    return isinstance(coords, (list, tuple, np.ndarray)) and all(isinstance(c, numbers.Real) for c in coords)


class PointSet:
    """Immutable collection of d-dimensional vectors keyed by integer id.

    Points keep the order they were given in, which downstream code relies
    on for deterministic iteration.  Ids, coordinates and group labels are
    read-only arrays with one row per point (UNLABELED where a point has no
    group), and one sorted index maps ids to rows.
    """

    def __init__(self, dim, items):
        """Build from ``dim`` and an iterable of ``(id, coords, group)``; see :meth:`from_arrays`."""
        columns = tuple(zip(*items)) or ((), (), ())
        vars(self).update(vars(PointSet.from_arrays(dim, *columns)))

    @classmethod
    def from_arrays(cls, dim, ids, coords, groups):
        """Build from parallel columns: ids, coordinate rows, and group labels or None.

        This is the one validation body for points.  InstanceFormatError
        names the first faulty point and, of its faults, the first in this
        order: id, duplicate id, not dim numbers, non-finite, beyond
        MAX_COORD, group label.  Each check runs over a whole column.
        """
        if not is_count(dim, 1):
            raise InstanceFormatError("dim must be a positive integer, got %r" % (dim,))
        if dim > MAX_DIM:
            raise InstanceFormatError(
                "dim=%d unsupported: dense routines here cap at dim=%d" % (dim, MAX_DIM)
            )
        n = len(ids)
        if len(coords) != n or len(groups) != n:
            raise InstanceFormatError("ids, coords and groups differ in length")
        col, stop = int_column(ids)
        # each check yields its first bad row; bad ids read as 0, which is
        # harmless since the bad id at row ``stop`` is named before any later fault
        faults = []
        order = np.argsort(col, kind="stable")
        again = order[1:][col[order[1:]] == col[order[:-1]]]
        faults.append((again.min() if again.size else n, "duplicate point id %d"))
        try:
            x = np.array(coords)
        except (ValueError, TypeError):
            x = None
        if x is None or x.dtype.kind not in "biuf" or x.shape != (n, dim):
            bad = next((r for r, c in enumerate(coords) if not (_numbers(c) and len(c) == dim)), n)
            if bad < n and _numbers(coords[bad]):
                faults.append((bad, "point %%d has %d coordinates, expected %d" % (len(coords[bad]), dim)))
            faults.append((bad, "point %d coordinates are not a list of numbers"))
            x = np.array(coords[:bad]).reshape(bad, dim)
        x = np.asarray(x, dtype=float)
        finite = np.isfinite(x).all(axis=1)
        faults.append((first_true(~finite), "point %d has non-finite coordinates"))
        huge = finite & (np.abs(x) > MAX_COORD).any(axis=1)
        faults.append((first_true(huge), "point %%d has a coordinate beyond %g in magnitude" % MAX_COORD))
        labels, bad = int_column(groups, none_ok=True)
        faults.append((bad, "group of point %d must be a non-negative int or None"))
        row, message = min(faults, key=lambda f: f[0])  # on a tie, the first check
        if row < stop:
            raise InstanceFormatError(message % col[row])
        if stop < n:
            raise InstanceFormatError("point id must be a non-negative int, got %r" % (ids[stop],))
        self = object.__new__(cls)
        self._dim = dim
        self._ids, self._coords, self._labels = col, x, labels
        self._order, self._sorted = order, col[order]
        for a in (col, x, labels, order):
            a.setflags(write=False)
        return self

    @property
    def dim(self):
        return self._dim

    @functools.cached_property
    def ids(self):
        """The ids as a tuple of ints, in order, built on first read."""
        return tuple(self._ids.tolist())

    @property
    def id_array(self):
        """The ids as a read-only int64 array, in order."""
        return self._ids

    @property
    def labels(self):
        """The group labels as a read-only int64 array, UNLABELED where a point has none."""
        return self._labels

    @property
    def coords(self):
        """The (n, dim) coordinate matrix, read-only, rows in order."""
        return self._coords

    def __len__(self):
        return len(self._ids)

    def index(self, ids):
        """Row positions of ``ids`` (any shape, repeats allowed); UnknownIdError names the first unknown."""
        q = np.asarray(ids)
        if q.dtype.kind in "iu":
            pos, found = sorted_positions(self._sorted, q)
            if found.all():
                return self._order[pos]
            missing = q[~found].item(0)
        elif q.size == 0:
            return np.zeros(q.shape, dtype=np.intp)
        else:  # not all ints: name the first entry that is not a known id
            known = set(self.ids)
            entries = np.asarray(ids, dtype=object).ravel().tolist()
            missing = next(v for v in entries if not is_count(v) or v not in known)
        raise UnknownIdError("no point with id %r" % (missing,))

    def __contains__(self, pid):
        try:
            self.index(pid)
        except UnknownIdError:
            return False
        return True

    def rows(self, ids):
        """Stack coordinate rows for a sequence of ids (repeats allowed)."""
        return self._coords[self.index(ids)]

    def restrict(self, ids):
        """Sub-PointSet containing only ``ids``, keeping this set's order."""
        keep = np.zeros(len(self), dtype=bool)
        keep[self.index(list(ids))] = True
        return PointSet.from_arrays(self._dim, self._ids[keep], self._coords[keep], self._labels[keep])

    def __repr__(self):
        return "PointSet(dim=%d, n=%d)" % (self._dim, len(self._ids))


def merge_pointsets(*parts):
    """Concatenate point sets with pairwise disjoint ids into one."""
    dims = sorted({p.dim for p in parts})
    if len(dims) != 1:
        raise InstanceFormatError("cannot merge point sets of dims %s" % dims)
    columns = (np.concatenate([getattr(p, c) for p in parts]) for c in ("id_array", "coords", "labels"))
    return PointSet.from_arrays(dims[0], *columns)


def point_columns(entries):
    """The id, coordinate-row and group columns of a list of point entries: the one column builder.

    InstanceFormatError names the first entry that is not a dict with 'id'
    and 'coords'.
    """
    try:
        return (list(map(itemgetter("id"), entries)), list(map(itemgetter("coords"), entries)),
                list(map(dict.get, entries, repeat("group"))))
    except (TypeError, KeyError, AttributeError):
        entry = next(p for p in entries if not isinstance(p, dict) or "id" not in p or "coords" not in p)
        raise InstanceFormatError("each point needs 'id' and 'coords', got %r" % (entry,)) from None


def load_pointset(doc, columns=None):
    """Parse the JSON instance schema into a PointSet.

    ``doc`` is the already-parsed document: a dict with keys ``dim`` and
    ``points``, each point being ``{"id": int, "group": int or null,
    "coords": [float, ...]}``.  A ``constraint`` key, if present, is ignored
    here; the instances module pairs it with the matroid parser.
    ``columns``, when given, are the points' ids, coordinates (rows, or one
    array) and groups, built already by a reader that streamed them; doc's
    ``points`` is then a stand-in list.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    if "dim" not in doc or "points" not in doc:
        raise InstanceFormatError("instance document needs 'dim' and 'points'")
    points = doc["points"]
    if not isinstance(points, list):
        raise InstanceFormatError("'points' must be a list")
    return PointSet.from_arrays(doc["dim"], *(point_columns(points) if columns is None else columns))


def log_det_psd(m):
    """Log-determinant of a symmetric PSD matrix, ``-inf`` when singular.

    Singular pivots are judged against their own diagonal entry as
    described in the module docstring; genuinely indefinite input raises
    MatrixInvariantError.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixInvariantError("expected a square matrix, got shape %r" % (a.shape,))
    skew = np.abs(a - a.T).max() if a.size else 0.0
    if skew > SYMMETRY_TOL * max(1.0, float(np.abs(a).max()) if a.size else 0.0):
        raise MatrixInvariantError("matrix is not symmetric (max skew %.3e)" % skew)
    return float(logdet_psd_batch(a[None, :, :])[0])


def _pairwise_sum(terms):
    """The sum over axis 0 of ``terms``, in the order np.add.reduce adds a contiguous axis (numpy's pairwise sum).

    A run of at most 128 rows is added from 0 in order when it is shorter
    than 8, else into 8 running sums that are folded as a tree before the
    leftover rows are added.  A longer run is cut in two, the first part a
    multiple of 8 rows long, and the two sums are added; a stack stands in
    for numpy's recursion.
    """
    sums, todo = [], [(0, len(terms), False)]
    while todo:
        lo, hi, halves_summed = todo.pop()
        if halves_summed:
            right = sums.pop()
            sums.append(sums.pop() + right)
        elif hi - lo > 128:
            mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
            todo += [(lo, hi, True), (mid, hi, False), (lo, mid, False)]
        else:
            run = terms[lo:hi]
            full = len(run) // 8 * 8
            if full:
                r = run[:8].copy()
                for i in range(8, full, 8):
                    r += run[i : i + 8]
                total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            else:
                total = np.zeros(terms.shape[1:])
            for row in run[full:]:
                total += row
            sums.append(total)
    return sums[0]


def _lane_sum(products):
    """The sum over axis 0 of ``products``, in the order np.einsum adds a two-operand product over a contiguous axis.

    Even and odd terms go to two lanes.  Each full block of 8 terms is added
    to the lanes last pair first, the pairs after the last full block in
    order, and a final odd term to the even lane; then the lanes are added,
    and 0.0 (so a zero sum is +0.0).  The lanes accumulate in place in
    ``products``, which the caller hands over as a temporary.
    """
    n = len(products)
    full = n // 8 * 8
    pairs = [b + i for b in range(0, full, 8) for i in (6, 4, 2, 0)] + list(range(full, n - 1, 2))
    if not pairs:
        return products[0] + 0.0 if n else np.zeros(products.shape[1:])
    lanes = products[pairs[0] : pairs[0] + 2]
    for i in pairs[1:]:
        lanes += products[i : i + 2]
    if n % 2:
        lanes[0] += products[-1]
    total = lanes[0] + lanes[1]
    total += 0.0
    return total


def logdet_psd_batch(mats, *, first=0):
    """Log-determinants of a stack of symmetric PSD matrices, shape (B, d, d).

    This is the single source of truth for the pivot rule; the scalar
    :func:`log_det_psd` delegates here so batched oracles and scalar
    evaluations can never disagree on what counts as singular.  A matrix
    that is not PSD is named by its index plus ``first``, the position of
    ``mats[0]`` in the caller's list.  Only the diagonal and the lower
    triangle are read.

    The sweep factors a batch-innermost (d, d, B) copy, which is free when
    ``mats`` is the (2, 0, 1) transpose of a C-ordered (d, d, B) array and
    is made about 2**15 entries at a time otherwise.  Its sums of products
    are added in np.einsum's order (:func:`_lane_sum`) and the trace in
    np.trace's, so the values are bitwise those of the einsum sweep this
    replaced.  Once a matrix is singular its later factor entries are held
    at 0, so its leftover arithmetic can neither overflow nor turn into NaN.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise MatrixInvariantError("expected shape (B, d, d), got %r" % (a.shape,))
    nbatch, d, _ = a.shape
    if nbatch == 0 or d == 0:
        return np.zeros(nbatch)
    laid = a.transpose(1, 2, 0)
    if not laid.flags.c_contiguous:  # copied a block of matrices at a time, so its strided reads stay in cache
        laid, step = np.empty((d, d, nbatch)), max(1, (1 << 15) // (d * d))
        for b in range(0, nbatch, step):
            laid[..., b : b + step] = a[b : b + step].transpose(1, 2, 0)
    a = laid
    tr = _pairwise_sum(a.reshape(d * d, nbatch)[:: d + 1])
    psd_tol = PSD_PIVOT_TOL * np.maximum(1.0, np.abs(tr) / d)
    out = np.zeros(nbatch)
    alive = np.ones(nbatch, dtype=bool)
    low = np.zeros((d, d, nbatch))  # low[k, i] is the factor's entry (i, k): column k is one contiguous block
    for j in range(d):
        # row j of the factor against rows j.. of it: the pivot's sum, then the column's
        dots = _lane_sum(low[:j, j:] * low[:j, j, None])
        pivot = a[j, j] - dots[0]
        # a singular PSD matrix whose leading block is ill-conditioned can
        # round a pivot below -psd_tol; only an eigenvalue that far below 0
        # shows the input was not PSD, and the rounded pivot is then dead
        negative = pivot < -psd_tol
        for b in np.flatnonzero(alive & negative) if negative.any() else ():
            if np.linalg.eigvalsh(a[:, :, b])[0] < -psd_tol[b]:
                raise MatrixInvariantError(
                    "matrix %d is not PSD: Cholesky pivot %.3e at step %d" % (first + b, pivot[b], j)
                )
        alive &= ~(pivot <= SINGULAR_PIVOT_REL * np.maximum(a[j, j], 0.0))
        out += np.log(np.where(alive, pivot, 1.0))
        if j + 1 < d:  # a dead matrix divides by inf, so its column is 0
            col = np.subtract(a[j + 1 :, j], dots[1:], out=low[j, j + 1 :])
            col /= np.sqrt(np.where(alive, pivot, np.inf))
    out[~alive] = -np.inf
    return out
