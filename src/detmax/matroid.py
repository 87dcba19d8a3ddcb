"""Cardinality, partition, and laminar matroid constraints in one array form.

Every kind is its label column: ``ground_ids`` holds the distinct ground ids
ascending, and ``ground_labels`` the smallest family set holding each, or
UNLABELED for an id in no set.  ``caps`` holds one cap per set and
``parents`` each set's parent, -1 for a root.  A partition is the depth-one
case, a cardinality constraint its one-group case.  Each kind keeps its own
constructor and checks, then walks the forest once, without recursion, into
``order``: the sets top-down in pre-order, roots and children ascending.
Read bottom-up, the order gives the rank and ``depth`` (set i and the
longest chain of sets inside it), whose maximum is :func:`cover_number`.
The frozenset views ``sets``, ``set_ids`` and ``free_ids`` and
:func:`membership` (the one (ids, sets) matrix every cap query reads) are
read from the labels, the parents and the order.  :func:`ground_positions`
is the one ground lookup.

Rank is the achievable one: the size of a maximum independent subset of the
ground set, the sum of the caps when every group has at least its cap.
Bases are independent sets of exactly rank elements.
:func:`enumerate_bases` lists them as the leaves of a walk down the lex
tree of independent prefixes, on an explicit stack, pruning each prefix
that breaks a cap by its membership counts.
"""

import math
import os

import numpy as np

from .errors import (
    GuardExceededError,
    InstanceFormatError,
    PreconditionError,
    UnknownIdError,
)
from .geometry import UNLABELED, check_ids, distinct_ids, first_true, int_column, is_count, sorted_positions

DEFAULT_ORACLE_CAP = 10**6
ORACLE_CAP_ENV = "DETMAX_ORACLE_CAP"
_BATCH = 1 << 14  # most rows per block of the base walk, and so per chunk of enumerate_bases


def oracle_cap():
    """Current enumeration guard, overridable via DETMAX_ORACLE_CAP."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise PreconditionError("%s must be an integer, got %r" % (ORACLE_CAP_ENV, raw)) from None
    if cap < 1:
        raise PreconditionError("%s must be positive, got %d" % (ORACLE_CAP_ENV, cap))
    return cap


class _LabelForest:
    """The array form every constraint kind is stored in (see the module docstring)."""

    def _settle(self, ground_ids, ground_labels, caps, parents, warnings):
        """Store the form, order the sets top-down in pre-order, and fill the rank and ``depth`` bottom-up."""
        self.ground_ids, self.ground_labels = ground_ids, ground_labels
        self.caps, self.parents, self.warnings = tuple(caps), parents, tuple(warnings)
        up = parents.tolist()
        kids = [[] for _ in range(len(caps) + 1)]  # the last entry, UNLABELED's, lists the roots
        for i, p in enumerate(up):
            kids[p].append(i)
        order, stack = [], kids[-1][::-1]
        while stack:
            order.append(stack.pop())
            stack += kids[order[-1]][::-1]
        # avail[i]: the most ids selectable inside set i; UNLABELED's entry sums the free ids and the roots
        avail = np.bincount(ground_labels[ground_labels >= 0], minlength=len(caps)).tolist()
        avail.append(len(ground_labels) - sum(avail))
        depth = [1] * (len(caps) + 1)
        for i in reversed(order):
            avail[i] = min(self.caps[i], avail[i])
            avail[up[i]] += avail[i]
            depth[up[i]] = max(depth[up[i]], depth[i] + 1)
        self.roots, self.order, self.depth, self.rank = tuple(kids[-1]), tuple(order), tuple(depth[:-1]), avail[-1]

    def children_of(self, i):
        return tuple(np.flatnonzero(self.parents == i).tolist())

    def set_ids(self, i):
        """The ids of set i, a frozenset built on each call: those labelled i or a set below it."""
        mark = np.zeros(len(self.caps) + 1, dtype=bool)  # the last entry answers for a root's parent
        mark[i] = True
        for j in self.order[self.order.index(i) + 1:]:  # the sets below i follow it, up to one whose parent is unmarked
            if not mark[self.parents[j]]:
                break
            mark[j] = True
        return frozenset(self.ground_ids[mark[self.ground_labels]].tolist())

    @property
    def sets(self):
        """The family as a tuple of (frozenset ids, cap), built on each read."""
        return tuple((self.set_ids(i), cap) for i, cap in enumerate(self.caps))

    @property
    def free_ids(self):
        """The ids in no family set, as a frozenset built on each read."""
        return frozenset(self.ground_ids[self.ground_labels == UNLABELED].tolist())


def _shared_row(family):
    """Smallest row shared by the first pair of ``family`` ((sorted rows, cap) pairs) that overlap without nesting."""
    for i, (a, _) in enumerate(family):
        for b, _ in family[i + 1:]:
            shared = np.intersect1d(a, b, assume_unique=True)
            if 0 < len(shared) < min(len(a), len(b)):
                return shared[0]


class LaminarConstraint(_LabelForest):
    """Caps on a laminar family of id-sets (pairwise nested or disjoint).

    Nested redundant caps (inner cap >= outer cap) are repaired at
    construction by dropping the inner set; duplicates keep the smaller cap.
    Every repair is recorded in ``warnings``.  A cap of 0 keeps the set but
    makes its members unselectable, which matches stripping them from the
    ground set, and is also recorded as a warning.  Set indices follow the
    first occurrence of each surviving set, and repeated ids collapse.
    """

    kind = "laminar"

    def __init__(self, sets, ground):
        ground_ids = distinct_ids(check_ids(ground, "ground"))
        warnings, family = [], {}
        for entry in sets:
            ids, cap = entry
            ids = distinct_ids(check_ids(ids, "laminar set"))
            if not len(ids):
                raise InstanceFormatError("laminar set must be nonempty")
            rows, found = sorted_positions(ground_ids, ids)
            if not found.all():
                raise UnknownIdError("laminar set mentions unknown id %d" % ids[~found][0])
            if not is_count(cap):
                raise InstanceFormatError("laminar cap must be a non-negative int, got %r" % (cap,))
            # a set is kept as its ground rows; duplicates keep the first occurrence with the smallest cap
            old = family.get(rows.tobytes(), (rows, cap))[1]
            if cap != old:
                warnings.append("duplicate laminar set collapsed to cap %d" % min(cap, old))
            family[rows.tobytes()] = rows, min(cap, old)
        family = list(family.values())
        # largest first, each set must lie inside one current label, its parent; a set whose cap is not
        # strictly below its nearest kept ancestor's adds nothing, and keep[s] hands its ids to that ancestor
        labels = np.full(len(ground_ids), UNLABELED)
        parents, keep = [UNLABELED] * len(family), list(range(len(family)))
        for s in sorted(range(len(family)), key=lambda s: -len(family[s][0])):
            rows, cap = family[s]
            up = labels[rows]
            if (up != up[0]).any():
                shared = ground_ids[_shared_row(family)]
                raise InstanceFormatError("family is not laminar: sets overlap without nesting (shared id %d)" % shared)
            parents[s] = keep[up[0]] if up[0] >= 0 else UNLABELED
            if parents[s] >= 0 and cap >= family[parents[s]][1]:
                keep[s] = parents[s]
            labels[rows] = s
        index = {s: i for i, s in enumerate(s for s, k in enumerate(keep) if k == s)}  # a kept set's new index
        warnings += [
            "dropped redundant nested set (cap %d not below an enclosing cap)" % cap
            for s, (_, cap) in enumerate(family) if s not in index
        ]
        family = [family[s] for s in index]
        warnings += ["cap 0 strips %d element(s) from selection" % len(rows) for rows, cap in family if cap == 0]
        labels = np.array([index[k] for k in keep] + [UNLABELED])[labels]  # UNLABELED's own entry keeps it
        parents = np.array([index.get(parents[s], UNLABELED) for s in index], dtype=np.int64)
        self._settle(ground_ids, labels, [cap for _, cap in family], parents, warnings)

    def __repr__(self):
        return "LaminarConstraint(sets=%d, n=%d, rank=%d)" % (len(self.caps), len(self.ground_ids), self.rank)


class PartitionConstraint(_LabelForest):
    """Per-group caps: at most caps[g] elements from group g.

    ``groups`` maps every ground id to its group label in 0..len(caps)-1;
    :meth:`from_labels` takes the same as two parallel columns.  Each group
    is a root set of the label-column form, so ``ground_labels`` holds the
    groups of ``ground_ids``.
    """

    kind = "partition"

    def __init__(self, caps, groups):
        vars(self).update(vars(PartitionConstraint.from_labels(caps, list(groups), list(groups.values()))))

    @classmethod
    def from_labels(cls, caps, ids, labels):
        """Build from distinct ground ids and their group labels, checked a column at a time."""
        caps = tuple(caps)
        if not caps:
            raise InstanceFormatError("partition needs at least one cap")
        for cap in caps:
            if not is_count(cap):
                raise InstanceFormatError("partition caps must be non-negative ints, got %r" % (cap,))
        ids = check_ids(ids, "ground")
        order = np.argsort(ids, kind="stable")
        again = order[1:][ids[order[1:]] == ids[order[:-1]]]
        if len(again):
            raise InstanceFormatError("ground id %d appears twice" % ids[again.min()])
        lab, bad = int_column(labels, none_ok=True)
        if bad < len(ids):
            raise InstanceFormatError(
                "point %d needs an integer group label, got %r" % (ids[bad], labels[bad])
            )
        bad = first_true(lab == UNLABELED)
        if bad < len(ids):
            raise InstanceFormatError("point %d has no group label; partition needs one" % ids[bad])
        bad = first_true(lab >= len(caps))
        if bad < len(ids):
            raise InstanceFormatError(
                "point %d has group %d but only %d caps were given" % (ids[bad], lab[bad], len(caps))
            )
        self = object.__new__(cls)
        sizes = np.bincount(lab, minlength=len(caps))
        self._settle(ids[order], lab[order], caps, np.full(len(caps), UNLABELED), (
            "group %d has cap 0; its %d point(s) are unselectable" % (g, size)
            for g, (size, cap) in enumerate(zip(sizes.tolist(), caps)) if cap == 0 and size
        ))
        return self

    def __repr__(self):
        return "PartitionConstraint(caps=%r, n=%d)" % (list(self.caps), len(self.ground_ids))


class CardinalityConstraint(PartitionConstraint):
    """Pick at most k elements: the partition of one group with cap k, whose bases are the size-k subsets."""

    kind = "cardinality"

    def __init__(self, k, ground):
        ground = distinct_ids(check_ids(ground, "ground"))
        if not is_count(k, 1):
            raise InstanceFormatError("cardinality k must be a positive int, got %r" % (k,))
        if k > len(ground):
            raise InstanceFormatError("cardinality k=%d exceeds ground size %d" % (k, len(ground)))
        self._settle(ground, np.zeros(len(ground), np.int64), (k,), np.full(1, UNLABELED), ())

    @property
    def k(self):
        return self.caps[0]

    def __repr__(self):
        return "CardinalityConstraint(k=%d, n=%d)" % (self.k, len(self.ground_ids))


def is_independent(constraint, S):
    """True iff the id-set S keeps every cap; UnknownIdError names a non-int id or the smallest stray one."""
    sel = distinct_ids(S)
    member, caps = membership(constraint, sel)
    return len(sel) <= constraint.rank and bool((member.sum(0) <= caps).all())


def is_base(constraint, S):
    """True iff S is independent and has full rank size."""
    sel = frozenset(S)
    return len(sel) == constraint.rank and is_independent(constraint, sel)


def ground_positions(constraint, ids):
    """Rows of the int array ``ids`` in ``constraint.ground_ids``; UnknownIdError names the smallest id outside it."""
    pos, found = sorted_positions(constraint.ground_ids, ids)
    if not found.all():
        raise UnknownIdError("id %d is not in the constraint's ground set" % ids[~found].min())
    return pos


def membership(constraint, ids):
    """``(member, caps)``: member[i, j] says whether ids[i] lies in set j of the constraint, capped at caps[j].

    UnknownIdError names the smallest id of the int array ``ids`` outside the ground set.
    Each row is set at its id's label and then at each set above it; a partition takes one step.
    """
    pos = ground_positions(constraint, ids)
    member = np.zeros((len(pos), len(constraint.caps)), dtype=bool)
    above = np.append(constraint.parents, UNLABELED)  # UNLABELED's own entry keeps it UNLABELED
    up = constraint.ground_labels[pos]
    while (up >= 0).any():
        rows = np.flatnonzero(up >= 0)
        member[rows, up[rows]] = True
        up = above[up]
    # a cap above the ground size binds nothing, and clipping it keeps any cap inside int64
    return member, np.array([min(cap, len(constraint.ground_ids)) for cap in constraint.caps], dtype=np.int64)


def enumerate_bases(constraint, points, grow=None):
    """Yield the bases within ``points`` in lex order, as (b, k) int64 id arrays of 1.._BATCH rows.

    The bases are the leaves of a walk down the lex tree over positions into
    the sorted ids.  A prefix of j positions is extended by each position
    after its last that leaves room for the other k - j - 1, and a prefix
    that breaks a cap is dropped with its subtree: cap counts only grow, so
    no base lies below it.  The walk keeps an explicit stack of blocks of
    prefixes, one block per level, and hands out a block's children _BATCH
    rows at a time, so no level ever holds more than _BATCH rows.  Rank 0
    gives one empty base.

    With ``grow``, a pair ``(root, step)``, each chunk comes as an (ids,
    mats) pair that carries one matrix per base.  ``root`` is the empty
    prefix's (1, ...) matrix, and ``step(mats, prefix, child)`` returns the
    matrices of the (b, j) prefixes ``prefix``, each extended by its entry
    in ``child``; both hold rows of ``points.coords``.  A prefix's matrix is
    grown once and shared by all its extensions.  A pair whose ``step`` is
    None carries nothing: each chunk comes with its bases' (b, k) rows of
    ``points.coords`` instead.

    The call itself, not the first ``next()``, checks C(n, k) against the
    oracle cap (10**6 by default, DETMAX_ORACLE_CAP overrides) and names the
    smallest id outside the ground set in an UnknownIdError.
    """
    ids = np.sort(points.id_array)
    k = constraint.rank
    total, cap = math.comb(len(ids), k), oracle_cap()  # C(n, k) is 0 when k > n
    if total > cap:
        raise GuardExceededError(
            "enumerating C(%d, %d) = %d bases exceeds the cap of %d (set %s to raise it)"
            % (len(ids), k, total, cap, ORACLE_CAP_ENV)
        )
    member, caps = membership(constraint, ids)
    walk = _walk(ids, k, member, caps, grow or (None, None), points.index(ids)) if total else iter(())
    return walk if grow else (chunk for chunk, _ in walk)


def _walk(ids, k, member, caps, grow, at):
    """The (ids, mats) chunks of the bases below the empty prefix, in lex order.

    ``at`` maps a position into ``ids`` to its row of the points, which is
    what ``grow``'s step takes; without a step, mats holds the bases' rows.
    """
    n = len(ids)
    root, step = grow
    if k == 0:
        rows = np.empty((1, 0), dtype=np.int64)
        yield ids[rows], root if step else at[rows]
        return
    # a frame: one block of prefixes (positions, cap counts, matrices), the running total of their
    # children, and how many of those were handed out; a prefix ending at p extends by p + 1 .. n - k + j
    stack = [[np.empty((1, 0), dtype=np.int64), np.zeros((1, len(caps)), np.int64), root, np.array([n - k + 1]), 0]]
    while stack:
        rows, counts, mats, ends, done = frame = stack[-1]
        if done == ends[-1]:
            stack.pop()
            continue
        j = rows.shape[1]
        t = np.arange(done, min(done + _BATCH, ends[-1]))
        frame[4] = done + len(t)
        parent = np.searchsorted(ends, t, side="right")
        child = t - ends[parent] + (n - k + j + 1)
        counts = counts[parent] + member[child]
        keep = np.flatnonzero((counts <= caps).all(1))
        if not len(keep):
            continue
        parent, child, prefix = parent[keep], child[keep], rows[parent[keep]]
        grown = step(mats[parent], at[prefix], at[child]) if step else None
        rows = np.column_stack((prefix, child))
        if j + 1 == k:
            yield ids[rows], grown if step else at[rows]
        else:
            stack.append([rows, counts[keep], grown, np.cumsum(n - k + j + 1 - child), 0])


def cover_number(constraint):
    """Max number of family sets any single element belongs to (>= 1): the longest chain of sets."""
    return max(constraint.depth, default=1)


def constraint_from_json(doc, points):
    """Build a constraint from its JSON form, resolving groups via ``points``."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError("constraint document needs a 'type' field")
    kind = doc["type"]
    if kind == "cardinality":
        if "k" not in doc:
            raise InstanceFormatError("cardinality constraint needs 'k'")
        return CardinalityConstraint(doc["k"], points.id_array)
    if kind == "partition":
        if "caps" not in doc or not isinstance(doc["caps"], list):
            raise InstanceFormatError("partition constraint needs a 'caps' list")
        return PartitionConstraint.from_labels(doc["caps"], points.id_array, points.labels)
    if kind == "laminar":
        return LaminarConstraint(laminar_family(doc), points.id_array)
    raise InstanceFormatError("unknown constraint type %r" % (kind,))


def laminar_family(doc):
    """The (ids, cap) pairs of a laminar constraint document."""
    if "sets" not in doc or not isinstance(doc["sets"], list):
        raise InstanceFormatError("laminar constraint needs a 'sets' list")
    for entry in doc["sets"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("ids"), list) or "cap" not in entry:
            raise InstanceFormatError("each laminar set needs an 'ids' list and a 'cap'")
    return [(entry["ids"], entry["cap"]) for entry in doc["sets"]]


def constraint_to_json(constraint):
    """Inverse of :func:`constraint_from_json` (post-repair for laminar)."""
    if constraint.kind == "cardinality":
        return {"type": "cardinality", "k": constraint.k}
    if constraint.kind == "partition":
        return {"type": "partition", "caps": list(constraint.caps)}
    return {
        "type": "laminar",
        "sets": [{"ids": sorted(m), "cap": c} for m, c in constraint.sets],
    }
