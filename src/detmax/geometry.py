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
rule to residuals against each vector's own squared norm.  Pivots below
the negative tolerance mean the input was not PSD to begin with and raise
``MatrixInvariantError``.
"""

import csv
import io

import numpy as np

from .errors import InstanceFormatError, MatrixInvariantError, UnknownIdError

MAX_DIM = 64

# pivot <= SINGULAR_PIVOT_REL * a[j, j]  ->  log det is -inf
SINGULAR_PIVOT_REL = 1e-12
# pivot < -PSD_PIVOT_TOL * max(1, trace/dim)  ->  input was not PSD
PSD_PIVOT_TOL = 1e-10
SYMMETRY_TOL = 1e-12


class PointSet:
    """Immutable collection of d-dimensional vectors keyed by integer id.

    Construction preserves insertion order, which downstream code relies on
    for deterministic iteration.  Coordinates are stored as a read-only
    float64 matrix with one row per point.
    """

    def __init__(self, dim, items):
        """Build from ``dim`` and an iterable of ``(id, coords, group)``.

        ``group`` may be None for points that carry no partition label.
        Raises InstanceFormatError on duplicate ids, wrong coordinate
        lengths, or dimensions outside 1..64.
        """
        if not isinstance(dim, int) or dim < 1:
            raise InstanceFormatError("dim must be a positive integer, got %r" % (dim,))
        if dim > MAX_DIM:
            raise InstanceFormatError(
                "dim=%d unsupported: dense routines here cap at dim=%d" % (dim, MAX_DIM)
            )
        ids = []
        rows = []
        groups = []
        row_of = {}
        for pid, coords, group in items:
            if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
                raise InstanceFormatError("point id must be a non-negative int, got %r" % (pid,))
            if pid in row_of:
                raise InstanceFormatError("duplicate point id %d" % pid)
            vec = np.asarray(coords, dtype=float)
            if vec.shape != (dim,):
                raise InstanceFormatError(
                    "point %d has %d coordinates, expected %d" % (pid, vec.size, dim)
                )
            if not np.all(np.isfinite(vec)):
                raise InstanceFormatError("point %d has non-finite coordinates" % pid)
            if group is not None and (not isinstance(group, int) or isinstance(group, bool) or group < 0):
                raise InstanceFormatError("group of point %d must be a non-negative int or None" % pid)
            row_of[pid] = len(ids)
            ids.append(pid)
            rows.append(vec)
            groups.append(group)
        self._dim = dim
        self._ids = tuple(ids)
        self._groups = tuple(groups)
        self._row_of = row_of
        self._coords = np.array(rows, dtype=float).reshape(len(ids), dim)
        self._coords.setflags(write=False)

    @property
    def dim(self):
        return self._dim

    @property
    def ids(self):
        return self._ids

    @property
    def coords(self):
        """The (n, dim) coordinate matrix, read-only, rows in insertion order."""
        return self._coords

    def __len__(self):
        return len(self._ids)

    def __contains__(self, pid):
        return pid in self._row_of

    def vector(self, pid):
        """Coordinate row of one point (read-only view)."""
        try:
            return self._coords[self._row_of[pid]]
        except KeyError:
            raise UnknownIdError("no point with id %r" % (pid,)) from None

    def rows(self, ids):
        """Stack coordinate rows for a sequence of ids (repeats allowed)."""
        try:
            idx = [self._row_of[i] for i in ids]
        except KeyError as exc:
            raise UnknownIdError("no point with id %r" % (exc.args[0],)) from None
        return self._coords[idx] if idx else np.zeros((0, self._dim))

    def group_of(self, pid):
        try:
            return self._groups[self._row_of[pid]]
        except KeyError:
            raise UnknownIdError("no point with id %r" % (pid,)) from None

    def groups(self):
        """Mapping id -> group label (None where unlabeled)."""
        return dict(zip(self._ids, self._groups))

    def restrict(self, ids):
        """Sub-PointSet containing only ``ids``, keeping this set's order."""
        keep = set(ids)
        missing = keep - set(self._ids)
        if missing:
            raise UnknownIdError("no point with id %r" % (min(missing),))
        items = [
            (pid, self._coords[self._row_of[pid]], self._groups[self._row_of[pid]])
            for pid in self._ids
            if pid in keep
        ]
        return PointSet(self._dim, items)

    def __repr__(self):
        return "PointSet(dim=%d, n=%d)" % (self._dim, len(self._ids))


def merge_pointsets(a, b):
    """Concatenate two point sets with disjoint ids into one."""
    if a.dim != b.dim:
        raise InstanceFormatError("cannot merge point sets of dim %d and %d" % (a.dim, b.dim))
    overlap = set(a.ids) & set(b.ids)
    if overlap:
        raise InstanceFormatError("cannot merge: ids overlap, e.g. %d" % min(overlap))
    items = [(pid, a.vector(pid), a.group_of(pid)) for pid in a.ids]
    items += [(pid, b.vector(pid), b.group_of(pid)) for pid in b.ids]
    return PointSet(a.dim, items)


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
    dim = doc["dim"]
    points = doc["points"]
    if not isinstance(points, list):
        raise InstanceFormatError("'points' must be a list")
    items = []
    for entry in points:
        if not isinstance(entry, dict) or "id" not in entry or "coords" not in entry:
            raise InstanceFormatError("each point needs 'id' and 'coords', got %r" % (entry,))
        items.append((entry["id"], entry["coords"], entry.get("group")))
    return PointSet(dim, items)


def load_pointset_csv(text):
    """Parse the CSV alternative: header ``id,group,c0,...,c{d-1}``.

    An empty group field means unlabeled.  Accepts a string or a file-like
    object opened in text mode.
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise InstanceFormatError("empty CSV document") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "id" or header[1] != "group":
        raise InstanceFormatError("CSV header must start with id,group,c0,...")
    expected = ["c%d" % j for j in range(len(header) - 2)]
    if header[2:] != expected:
        raise InstanceFormatError("CSV coordinate columns must be c0..c%d" % (len(header) - 3))
    dim = len(header) - 2
    items = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != dim + 2:
            raise InstanceFormatError("CSV line %d has %d fields, expected %d" % (lineno, len(row), dim + 2))
        try:
            pid = int(row[0])
            group = int(row[1]) if row[1].strip() != "" else None
            coords = [float(v) for v in row[2:]]
        except ValueError:
            raise InstanceFormatError("CSV line %d has a malformed field" % lineno) from None
        items.append((pid, coords, group))
    return PointSet(dim, items)


class GramMatrix:
    """A validated symmetric matrix wrapper produced by :func:`gram`."""

    def __init__(self, dim, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (dim, dim):
            raise MatrixInvariantError("expected a %d x %d matrix, got %r" % (dim, dim, entries.shape))
        _check_symmetry(entries)
        self.dim = dim
        self.entries = entries.copy()
        self.entries.setflags(write=False)

    def __repr__(self):
        return "GramMatrix(dim=%d)" % self.dim


def _check_symmetry(a):
    skew = np.abs(a - a.T).max() if a.size else 0.0
    tol = SYMMETRY_TOL * max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if skew > tol:
        raise MatrixInvariantError("matrix is not symmetric (max skew %.3e)" % skew)


def gram(points, ids):
    """Sum of outer products v_i v_i^T over ``ids`` (repeats contribute again).

    Returns a GramMatrix of shape (dim, dim).  The empty selection gives the
    zero matrix.
    """
    rows = points.rows(list(ids))
    return GramMatrix(points.dim, rows.T @ rows)


def log_det_psd(m):
    """Log-determinant of a symmetric PSD matrix, ``-inf`` when singular.

    Accepts a GramMatrix or a plain square ndarray.  Singular pivots are
    judged against their own diagonal entry as described in the module
    docstring; genuinely indefinite input raises MatrixInvariantError.
    """
    if isinstance(m, GramMatrix):
        a = m.entries
    else:
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixInvariantError("expected a square matrix, got shape %r" % (a.shape,))
        _check_symmetry(a)
    return float(logdet_psd_batch(a[None, :, :])[0])


def logdet_psd_batch(mats):
    """Log-determinants of a stack of symmetric PSD matrices, shape (B, d, d).

    This is the single source of truth for the pivot rule; the scalar
    :func:`log_det_psd` delegates here so batched oracles and scalar
    evaluations can never disagree on what counts as singular.
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
        bad = alive & (pivot < -psd_tol)
        if np.any(bad):
            b = int(np.flatnonzero(bad)[0])
            raise MatrixInvariantError(
                "matrix %d is not PSD: Cholesky pivot %.3e at step %d" % (b, pivot[b], j)
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
