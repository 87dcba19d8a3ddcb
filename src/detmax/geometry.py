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
"""

import numbers

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
        bad = col < (UNLABELED if none_ok else 0)
    else:
        n = len(values)
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
        self._id_tuple = tuple(col.tolist())
        return self

    @property
    def dim(self):
        return self._dim

    @property
    def ids(self):
        """The ids as a tuple of ints, in order."""
        return self._id_tuple

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
            known = set(self._id_tuple)
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


def load_pointset(doc):
    """Parse the JSON instance schema into a PointSet.

    ``doc`` is the already-parsed document: a dict with keys ``dim`` and
    ``points``, each point being ``{"id": int, "group": int or null,
    "coords": [float, ...]}``.  A ``constraint`` key, if present, is ignored
    here; the instances module pairs it with the matroid parser.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    if "dim" not in doc or "points" not in doc:
        raise InstanceFormatError("instance document needs 'dim' and 'points'")
    points = doc["points"]
    if not isinstance(points, list):
        raise InstanceFormatError("'points' must be a list")
    try:
        columns = [p["id"] for p in points], [p["coords"] for p in points], [p.get("group") for p in points]
    except (TypeError, KeyError, AttributeError):
        entry = next(p for p in points if not isinstance(p, dict) or "id" not in p or "coords" not in p)
        raise InstanceFormatError("each point needs 'id' and 'coords', got %r" % (entry,)) from None
    return PointSet.from_arrays(doc["dim"], *columns)


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


def logdet_psd_batch(mats, *, first=0):
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
