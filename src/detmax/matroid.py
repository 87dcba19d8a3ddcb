"""Cardinality, partition, and laminar matroid constraints.

A constraint object knows its ground set of ids and answers independence
queries.  A partition keeps one id-set and cap per group, and a cardinality
constraint is the partition of one group with cap k; a laminar family is
kept as a forest of nested sets.  The JSON schema keeps the kinds distinct.
Every kind lists its caps as ``sets``, (id-set, cap) pairs, and its ground
ids ascending as ``ground_ids``.  :func:`ground_positions` is the one ground
lookup, and :func:`membership` the one (ids, sets) matrix every cap query reads.

Rank here is the achievable one: the size of a maximum independent subset of
the ground set.  On sane instances (every group at least as large as its
cap) the partition rank equals the sum of caps.  Bases are independent sets
of exactly rank elements.
"""

import functools
import math
import os
from itertools import chain, combinations, islice

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
_BATCH = 1 << 14  # most bases per chunk of enumerate_bases


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


class LaminarConstraint:
    """Caps on a laminar family of id-sets (pairwise nested or disjoint).

    Nested redundant caps (inner cap >= outer cap) are repaired at
    construction by dropping the inner set; duplicates keep the smaller cap.
    Every repair is recorded in ``warnings``.  A cap of 0 keeps the set but
    makes its members unselectable, which matches stripping them from the
    ground set, and is also recorded as a warning.
    """

    kind = "laminar"

    def __init__(self, sets, ground):
        ids = check_ids(ground, "ground")
        self.ground_ids, self.ground = np.sort(ids), frozenset(ids.tolist())
        warnings = []
        raw = []
        for entry in sets:
            ids, cap = entry
            members = frozenset(check_ids(ids, "laminar set").tolist())
            if not members:
                raise InstanceFormatError("laminar set must be nonempty")
            stray = members - self.ground
            if stray:
                raise UnknownIdError("laminar set mentions unknown id %d" % min(stray))
            if not is_count(cap):
                raise InstanceFormatError("laminar cap must be a non-negative int, got %r" % (cap,))
            raw.append((members, cap))
        for (f1, _), (f2, _) in combinations(raw, 2):
            inter = f1 & f2
            if inter and not (f1 <= f2 or f2 <= f1):
                raise InstanceFormatError(
                    "family is not laminar: sets overlap without nesting (shared id %d)" % min(inter)
                )
        # duplicates: keep the first occurrence with the smallest cap
        dedup = {}
        for members, cap in raw:
            if members in dedup and cap != dedup[members]:
                warnings.append("duplicate laminar set collapsed to cap %d" % min(cap, dedup[members]))
            dedup[members] = min(cap, dedup.get(members, cap))
        # a nested set whose cap is not strictly below its ancestor's adds nothing
        survivors = []
        for members, cap in dedup.items():
            redundant = any(
                members < other and cap >= ocap for other, ocap in dedup.items() if other != members
            )
            if redundant:
                warnings.append(
                    "dropped redundant nested set (cap %d not below an enclosing cap)" % cap
                )
            else:
                survivors.append((members, cap))
        self._sets = tuple(survivors)
        for members, cap in self._sets:
            if cap == 0:
                warnings.append("cap 0 strips %d element(s) from selection" % len(members))
        self.warnings = tuple(warnings)
        # forest structure: the parent is the smallest strict superset, since
        # in a laminar family the strict supersets of a set form a chain
        parent = [
            min((j for j, (other, _) in enumerate(self._sets) if members < other),
                key=lambda j: len(self._sets[j][0]), default=None)
            for members, _ in self._sets
        ]
        self._children = tuple(
            tuple(i for i, par in enumerate(parent) if par == j) for j in range(len(parent))
        )
        self._roots = tuple(i for i, par in enumerate(parent) if par is None)
        self.free_ids = self.ground.difference(*(m for m, _ in self._sets))
        self._rank = len(self.free_ids) + sum(self._contribution(i) for i in self._roots)

    def _contribution(self, i):
        """Max independent elements available inside set i (achievable)."""
        members, cap = self._sets[i]
        kids = self._children[i]
        child_ids = frozenset().union(*(self._sets[j][0] for j in kids)) if kids else frozenset()
        direct = len(members - child_ids)
        return min(cap, direct + sum(self._contribution(j) for j in kids))

    # ---- structural accessors used by the coreset recursion ----

    @property
    def sets(self):
        """Surviving family as a tuple of (frozenset ids, cap)."""
        return self._sets

    @property
    def roots(self):
        return self._roots

    def children_of(self, i):
        return self._children[i]

    def set_ids(self, i):
        return self._sets[i][0]

    def cap_of(self, i):
        return self._sets[i][1]

    @functools.cached_property
    def member(self):
        """(len(ground_ids), len(sets)) bool: member[i, j] says whether ground_ids[i] lies in set j."""
        member = np.zeros((len(self.ground_ids), len(self._sets)), dtype=bool)
        for j, (members, _) in enumerate(self._sets):
            member[np.searchsorted(self.ground_ids, np.fromiter(members, np.int64, len(members))), j] = True
        return member

    @property
    def rank(self):
        return self._rank

    def __repr__(self):
        return "LaminarConstraint(sets=%d, n=%d, rank=%d)" % (
            len(self._sets),
            len(self.ground),
            self._rank,
        )


class PartitionConstraint:
    """Per-group caps: at most caps[g] elements from group g.

    ``groups`` maps every ground id to its group label in 0..len(caps)-1;
    :meth:`from_labels` takes the same as two parallel columns.  ``sets``
    holds one (frozenset ids, cap) per group, as for a laminar family.
    ``ground_ids`` holds the ground ids ascending and ``ground_labels`` their groups.
    """

    kind = "partition"

    def __init__(self, caps, groups):
        vars(self).update(vars(PartitionConstraint.from_labels(caps, list(groups), list(groups.values()))))

    @classmethod
    def from_labels(cls, caps, ids, labels):
        """Build from ground ids and their group labels, checked a column at a time."""
        caps = tuple(caps)
        if not caps:
            raise InstanceFormatError("partition needs at least one cap")
        for cap in caps:
            if not is_count(cap):
                raise InstanceFormatError("partition caps must be non-negative ints, got %r" % (cap,))
        ids = check_ids(ids, "ground")
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
        self.caps = caps
        order = np.argsort(lab, kind="stable")
        ends = np.searchsorted(lab[order], np.arange(len(caps) + 1))
        self.sets = tuple(
            (frozenset(ids[order[lo:hi]].tolist()), cap) for lo, hi, cap in zip(ends, ends[1:], caps)
        )
        self.ground = frozenset().union(*(part for part, _ in self.sets))  # shares the sets' int objects
        order = np.argsort(ids, kind="stable")
        self.ground_ids, self.ground_labels = ids[order], lab[order]
        self.warnings = tuple(
            "group %d has cap 0; its %d point(s) are unselectable" % (g, len(part))
            for g, (part, cap) in enumerate(self.sets) if cap == 0 and part
        )
        self._rank = sum(min(cap, len(part)) for part, cap in self.sets)
        return self

    @property
    def rank(self):
        return self._rank

    def __repr__(self):
        return "PartitionConstraint(caps=%r, n=%d)" % (list(self.caps), len(self.ground))


class CardinalityConstraint(PartitionConstraint):
    """Pick at most k elements: the partition of one group with cap k, whose bases are the size-k subsets."""

    kind = "cardinality"

    def __init__(self, k, ground):
        ground = check_ids(ground, "ground")
        if not is_count(k, 1):
            raise InstanceFormatError("cardinality k must be a positive int, got %r" % (k,))
        vars(self).update(vars(PartitionConstraint.from_labels((k,), ground, np.zeros(len(ground), np.int64))))
        if k > len(self.ground):
            raise InstanceFormatError("cardinality k=%d exceeds ground size %d" % (k, len(self.ground)))

    @property
    def k(self):
        return self.caps[0]

    def __repr__(self):
        return "CardinalityConstraint(k=%d, n=%d)" % (self.k, len(self.ground))


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
    """``(member, caps)``: member[i, j] says whether ids[i] lies in set j of ``constraint.sets``, capped at caps[j].

    UnknownIdError names the smallest id of the int array ``ids`` outside the ground set.
    A partition's rows are the one-hot of their labels; a laminar family's are read from ``member``.
    """
    pos = ground_positions(constraint, ids)
    caps = np.array([cap for _, cap in constraint.sets], dtype=np.int64)
    if constraint.kind == "laminar":
        return constraint.member[pos], caps
    return constraint.ground_labels[pos, None] == np.arange(len(caps)), caps


def enumerate_bases(constraint, points):
    """Yield the bases within ``points`` in lex order, as (b, k) int64 id arrays of 1.._BATCH rows.

    Each chunk is cut from the rank-k combinations of the sorted ids and
    keeps the rows within every cap; rank 0 gives one empty base.  The call
    itself, not the first ``next()``, checks C(n, k) against the oracle cap
    (10**6 by default, DETMAX_ORACLE_CAP overrides) and names the smallest
    id outside the ground set in an UnknownIdError.
    """
    ids = np.sort(points.id_array)
    k = constraint.rank
    total, cap = math.comb(len(ids), k), oracle_cap()  # C(n, k) is 0 when k > n
    if total > cap:
        raise GuardExceededError(
            "enumerating C(%d, %d) = %d bases exceeds the cap of %d (set %s to raise it)"
            % (len(ids), k, total, cap, ORACLE_CAP_ENV)
        )
    return _base_chunks(ids, k, *membership(constraint, ids))


def _base_chunks(ids, k, member, caps):
    """The size-k rows over ``ids`` that keep within ``caps``, chunk by chunk."""
    if k == 0:
        yield np.empty((1, 0), dtype=np.int64)
        return
    combos = combinations(range(len(ids)), k)
    while True:
        rows = np.fromiter(chain.from_iterable(islice(combos, _BATCH)), np.int64).reshape(-1, k)
        if not len(rows):
            return
        rows = rows[(member[rows].sum(1) <= caps).all(1)]
        if len(rows):
            yield ids[rows]


def cover_number(constraint):
    """Max number of family sets any single element belongs to (>= 1)."""
    return max(int(membership(constraint, constraint.ground_ids)[0].sum(1).max(initial=0)), 1)


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
