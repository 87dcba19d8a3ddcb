"""Instance files read a slice of points at a time.

``json.load`` builds a dict, a list and ``dim`` float objects for every point
before any column exists, so reading a file that way holds several times its
size.  :func:`read_instance` walks the top-level object with the stdlib
scanner and parses the ``points`` array in slices of about ``SLICE_CHARS``
characters.  Each slice is turned into columns at once and then dropped, so
only one slice's objects are alive at a time, beside the text and the columns.
The result and the error messages are those of
``load_instance(json.loads(text))``.
"""

import json
from json.decoder import WHITESPACE, scanstring

import numpy as np

from .errors import InstanceFormatError
from .geometry import point_columns
from .instances import load_instance

# a slice runs from the start of a point to the first '}' at least this many characters on
SLICE_CHARS = 1 << 16

_scan_once = json.JSONDecoder().scan_once  # the C scanner json.loads uses
_space = WHITESPACE.match


def parse_json(text):
    """``json.loads(text)``; a value nested beyond the interpreter's recursion limit is an InstanceFormatError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InstanceFormatError("JSON nested too deeply") from None


def read_instance(path):
    """The instance file at ``path`` as (points, constraint, meta), its ``points`` read a slice at a time.

    Returns and raises what ``load_instance(json.load(f))`` does, except that
    a value nested too deeply raises InstanceFormatError, as in
    :func:`parse_json`.  The text is freed before the points are validated.
    """
    doc, columns = _walk(_read(path))
    return load_instance(doc, None if columns is None else _joined(*columns))


def _read(path):
    with open(path) as fh:
        return fh.read()


def _walk(text):
    """The top-level object of ``text``, and the columns of its ``points`` array when that was streamed.

    A top level that is not an object is parsed whole, and so is a text the
    walk cannot scan or that nests too deeply: then ``json.loads`` raises its
    own error, word for word.
    """
    start = _space(text, 0).end()
    if text.startswith("{", start):
        try:
            return _object(text, start)
        except (ValueError, StopIteration, RecursionError):
            pass  # json.loads names the error below
    return parse_json(text), None


class _Unscanned(ValueError):
    """The text is not JSON where the walk expected a token."""


def _object(text, idx):
    """The object at ``text[idx] == '{'`` as in ``json.loads``, with the last ``points`` array streamed."""
    doc, columns = {}, None
    idx = _space(text, idx + 1).end()
    more = not text.startswith("}", idx)
    while more:
        if not text.startswith('"', idx):
            raise _Unscanned
        key, idx = scanstring(text, idx + 1)
        idx = _space(text, idx).end()
        if not text.startswith(":", idx):
            raise _Unscanned
        idx = _space(text, idx + 1).end()
        if key == "points" and text.startswith("[", idx):
            doc[key], columns, idx = _points(text, idx)
        else:
            doc[key], idx = _scan_once(text, idx)
            columns = None if key == "points" else columns
        idx = _space(text, idx).end()
        more = text.startswith(",", idx)
        if more:
            idx = _space(text, idx + 1).end()
    if not text.startswith("}", idx) or _space(text, idx + 1).end() != len(text):
        raise _Unscanned
    return doc, columns


def _points(text, idx):
    """The array at ``text[idx] == '['``, read a slice at a time: (stand-in list, columns, index past it).

    The stand-in is empty and the columns are (ids, coordinate blocks,
    groups), one block per slice.  When a slice holds an entry that is not a
    point, that slice stands in for the whole array and the columns are None,
    so ``load_pointset`` names the entry in its turn; the rest is only scanned.

    Why a cut is safe: a slice starts where an element starts, so the
    scanner enters ``"[" + slice + "]"`` in the state the whole-text parse
    has there, expecting a value.  (No slice starts at a ']' after a comma,
    which the '[' put in front would read as the end of an empty array.)  A
    slice ends at a '}', and the scanner consumes the ']' put after it
    exactly when that '}' closes an element of the array: a '}' inside a
    string leaves the ']' inside the string, unterminated, one that closes a
    nested value leaves the scanner expecting ',' or '}', and a ']' inside
    the slice that closes the array stops the scan short.  The token after
    the cut must be ',' or ']', as the whole parse requires there.  So a
    slice that counts yields the elements the whole parse yields.  A cut
    that fails, and the last slice, are parsed as ``"[" + rest``.
    """
    ids, blocks, groups = [], [], []
    bad = None
    start = _space(text, idx + 1).end()
    end = start + 1 if text.startswith("]", start) else None
    while end is None:
        cut = text.find("}", start + SLICE_CHARS) + 1
        items, nxt, end = _cut(text, start, cut) if cut else (None, None, None)
        if items is None:  # the last slice, or a failed cut
            items, end = _scan_once("[" + text[start:], 0)
            end += start - 1
        if bad is None:
            try:
                slice_ids, rows, slice_groups = point_columns(items)
            except InstanceFormatError:
                bad = items
            else:
                ids += slice_ids
                blocks.append(_block(rows))
                groups += slice_groups
        start = nxt
    return ([], (ids, blocks, groups), end) if bad is None else (bad, None, end)


def _cut(text, start, cut):
    """(elements, next slice's start, None) or (elements, None, index past ']') for the slice ``text[start:cut]``.

    (None, None, None) when the cut does not fall between two elements.
    """
    chunk = "[" + text[start:cut] + "]"
    try:
        items, end = _scan_once(chunk, 0)
    except (ValueError, StopIteration):
        return None, None, None
    if end == len(chunk):
        after = _space(text, cut).end()
        if text.startswith("]", after):
            return items, None, after + 1
        nxt = _space(text, after + 1).end()
        if text.startswith(",", after) and not text.startswith("]", nxt):
            return items, nxt, None
    return None, None, None


def _block(rows):
    """A slice's coordinate rows as one float array when they make a two-dimensional numeric one, else as given.

    Rows kept as given are the ones :meth:`PointSet.from_arrays` inspects one by one.
    """
    try:
        x = np.array(rows)
    except (ValueError, TypeError):
        return rows
    return x.astype(float, copy=False) if x.ndim == 2 and x.dtype.kind in "biuf" else rows


def _joined(ids, blocks, groups):
    """The columns of all slices: one coordinate array when every block is one of a common width, else the rows."""
    if all(isinstance(b, np.ndarray) for b in blocks) and len({b.shape[1] for b in blocks}) == 1:
        return ids, np.concatenate(blocks), groups
    rows = [row for b in blocks for row in (b.tolist() if isinstance(b, np.ndarray) else b)]
    return ids, rows, groups
