"""Cardinality, partition, and laminar matroid constraints.

A constraint object knows its ground set of ids and answers independence
queries.  A partition keeps one id-set and cap per group, and a cardinality
constraint is the partition of one group with cap k; a laminar family is
kept as a forest of nested sets.  The JSON schema keeps the kinds distinct.

Rank here is the achievable one: the size of a maximum independent subset of
the ground set.  On sane instances (every group at least as large as its
cap) the partition rank equals the sum of caps.  Bases are independent sets
of exactly rank elements.
"""

import math
import os
from collections import Counter
from itertools import chain, combinations, product

import numpy as np

from .errors import (
    GuardExceededError,
    InstanceFormatError,
    PreconditionError,
    UnknownIdError,
)
from .geometry import UNLABELED, check_ids, first_true, int_column, is_count, sorted_positions

DEFAULT_ORACLE_CAP = 10**6
ORACLE_CAP_ENV = "DETMAX_ORACLE_CAP"


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


def ground_labels(constraint, ids):
    """The group of each id of the int array ``ids``; UnknownIdError names the smallest outside the ground set."""
    pos, found = sorted_positions(constraint.ground_ids, ids)
    if not found.all():
        raise UnknownIdError("id %d is not in the constraint's ground set" % ids[~found].min())
    return constraint.ground_labels[pos]


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
        self.ground = frozenset(check_ids(ground, "ground").tolist())
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
        covered = frozenset().union(*(m for m, _ in self._sets))
        self.free_ids = self.ground - covered
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

    def child_containing(self, i, pid):
        """The child of node i whose set contains pid, or None."""
        return next((j for j in self._children[i] if pid in self._sets[j][0]), None)

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


def in_ground(constraint, ids):
    """``ids`` as a frozenset; UnknownIdError names the smallest one outside the ground set."""
    sel = frozenset(ids)
    stray = sel - constraint.ground
    if stray:
        raise UnknownIdError("id %d is not in the constraint's ground set" % min(stray))
    return sel


def is_independent(constraint, S):
    """True iff the id-set S satisfies every cap of the constraint."""
    sel = in_ground(constraint, S)
    if len(sel) > constraint.rank:
        return False
    for members, cap in constraint.sets:
        if len(sel & members) > cap:
            return False
    return True


def is_base(constraint, S):
    """True iff S is independent and has full rank size."""
    sel = frozenset(S)
    return len(sel) == constraint.rank and is_independent(constraint, sel)


def enumerate_bases(constraint, points):
    """Yield every base within ``points`` as a sorted tuple, in lex order.

    Equivalent to filtering all C(n, k) subsets through :func:`is_base`;
    partition (and so cardinality) bases are built directly as products of
    per-group choices.
    Refuses to start when C(n, k) exceeds the oracle cap (10**6 by default,
    DETMAX_ORACLE_CAP overrides).
    """
    ids = sorted(points.ids)
    k = constraint.rank
    total = math.comb(len(ids), k) if k <= len(ids) else 0
    cap = oracle_cap()
    if total > cap:
        raise GuardExceededError(
            "enumerating C(%d, %d) = %d bases exceeds the cap of %d (set %s to raise it)"
            % (len(ids), k, total, cap, ORACLE_CAP_ENV)
        )

    if constraint.kind == "laminar":
        return (combo for combo in combinations(ids, k) if is_base(constraint, combo))
    return _partition_bases(constraint, ids)


def _partition_bases(constraint, ids):
    """Bases within sorted ``ids``: min(cap, group size) members of every group."""
    in_ground(constraint, ids)
    choices = [
        combinations(sorted(part.intersection(ids)), min(cap, len(part)))
        for part, cap in constraint.sets
    ]
    if len(choices) == 1:  # one group: its combinations are the bases, already in lex order
        yield from choices[0]
    else:
        yield from sorted(tuple(sorted(chain.from_iterable(p))) for p in product(*choices))


def cover_number(constraint):
    """Max number of family sets any single element belongs to (>= 1)."""
    if constraint.kind != "laminar":
        return 1
    counts = Counter(chain.from_iterable(members for members, _ in constraint.sets))
    return max(counts.values(), default=1)


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
