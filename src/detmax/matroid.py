"""Cardinality, partition, and laminar matroid constraints.

A constraint object knows its ground set of ids and answers independence
queries.  A partition keeps one id-set and cap per group; a laminar family
is kept as a forest of nested sets.  Each kind computes its own rank and
independence, and the JSON schema keeps the kinds distinct.

Rank here is the achievable one: the size of a maximum independent subset of
the ground set.  On sane instances (every group at least as large as its
cap) the partition rank equals the sum of caps.  Bases are independent sets
of exactly rank elements.
"""

import math
import os
from itertools import chain, combinations, product

import numpy as np

from .errors import (
    GuardExceededError,
    InstanceFormatError,
    PreconditionError,
    UnknownIdError,
)

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


def _check_ids(ids, what):
    out = []
    for pid in ids:
        if not isinstance(pid, (int, np.integer)) or isinstance(pid, bool) or pid < 0:
            raise InstanceFormatError("%s id must be a non-negative int, got %r" % (what, pid))
        out.append(int(pid))
    return out


class CardinalityConstraint:
    """Pick at most k elements; bases are the size-k subsets."""

    kind = "cardinality"

    def __init__(self, k, ground):
        ground = frozenset(_check_ids(ground, "ground"))
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InstanceFormatError("cardinality k must be a positive int, got %r" % (k,))
        if k > len(ground):
            raise InstanceFormatError("cardinality k=%d exceeds ground size %d" % (k, len(ground)))
        self.k = k
        self.ground = ground
        self.warnings = ()

    @property
    def rank(self):
        return self.k

    def __repr__(self):
        return "CardinalityConstraint(k=%d, n=%d)" % (self.k, len(self.ground))


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
        self.ground = frozenset(_check_ids(ground, "ground"))
        warnings = []
        raw = []
        for entry in sets:
            ids, cap = entry
            members = frozenset(_check_ids(ids, "laminar set"))
            if not members:
                raise InstanceFormatError("laminar set must be nonempty")
            stray = members - self.ground
            if stray:
                raise UnknownIdError("laminar set mentions unknown id %d" % min(stray))
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise InstanceFormatError("laminar cap must be a non-negative int, got %r" % (cap,))
            raw.append((members, cap))
        for (f1, _), (f2, _) in combinations(raw, 2):
            inter = f1 & f2
            if inter and not (f1 <= f2 or f2 <= f1):
                raise InstanceFormatError(
                    "family is not laminar: sets overlap without nesting (shared id %d)" % min(inter)
                )
        # duplicates: keep the first occurrence with the smallest cap
        dedup = []
        seen = {}
        for members, cap in raw:
            if members in seen:
                pos = seen[members]
                kept = min(dedup[pos][1], cap)
                if kept != dedup[pos][1] or cap != dedup[pos][1]:
                    warnings.append("duplicate laminar set collapsed to cap %d" % kept)
                dedup[pos] = (members, kept)
            else:
                seen[members] = len(dedup)
                dedup.append((members, cap))
        # a nested set whose cap is not strictly below its ancestor's adds nothing
        survivors = []
        for members, cap in dedup:
            redundant = any(
                members < other and cap >= ocap for other, ocap in dedup if other != members
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
        # forest structure: parent = smallest strict superset among survivors
        n = len(self._sets)
        parent = [None] * n
        for i, (members, _) in enumerate(self._sets):
            best = None
            for j, (other, _) in enumerate(self._sets):
                if i != j and members < other:
                    if best is None or other < self._sets[best][0]:
                        best = j
            parent[i] = best
        self._parent = tuple(parent)
        kids = [[] for _ in range(n)]
        for i, par in enumerate(parent):
            if par is not None:
                kids[par].append(i)
        self._children = tuple(tuple(k) for k in kids)
        self._roots = tuple(i for i, par in enumerate(parent) if par is None)
        covered = frozenset().union(*(m for m, _ in self._sets)) if self._sets else frozenset()
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
        for j in self._children[i]:
            if pid in self._sets[j][0]:
                return j
        return None

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

    ``groups`` maps every ground id to its group label in 0..len(caps)-1.
    """

    kind = "partition"

    def __init__(self, caps, groups):
        caps = tuple(caps)
        if not caps:
            raise InstanceFormatError("partition needs at least one cap")
        for cap in caps:
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise InstanceFormatError("partition caps must be non-negative ints, got %r" % (cap,))
        self.caps = caps
        ids = _check_ids(groups.keys(), "ground")
        self.groups = {}
        for pid in ids:
            g = groups[pid]
            if not isinstance(g, int) or isinstance(g, bool) or g < 0:
                raise InstanceFormatError("point %d needs an integer group label, got %r" % (pid, g))
            if g >= len(caps):
                raise InstanceFormatError(
                    "point %d has group %d but only %d caps were given" % (pid, g, len(caps))
                )
            self.groups[pid] = g
        self.ground = frozenset(self.groups)
        warnings = []
        members = {}
        for pid, g in self.groups.items():
            members.setdefault(g, set()).add(pid)
        for g, cap in enumerate(caps):
            if cap == 0 and members.get(g):
                warnings.append("group %d has cap 0; its %d point(s) are unselectable" % (g, len(members[g])))
        self.warnings = tuple(warnings)
        self._parts = {g: frozenset(p) for g, p in members.items()}
        self._rank = sum(min(caps[g], len(p)) for g, p in self._parts.items())

    @property
    def rank(self):
        return self._rank

    def part_ids(self, g):
        """Ids labeled with group g (possibly empty)."""
        return self._parts.get(g, frozenset())

    @property
    def num_groups(self):
        return len(self.caps)

    def __repr__(self):
        return "PartitionConstraint(caps=%r, n=%d)" % (list(self.caps), len(self.ground))


def rank(constraint):
    """Size of a maximum independent subset of the constraint's ground set."""
    return constraint.rank


def is_independent(constraint, S):
    """True iff the id-set S satisfies every cap of the constraint."""
    sel = frozenset(S)
    stray = sel - constraint.ground
    if stray:
        raise UnknownIdError("id %d is not in the constraint's ground set" % min(stray))
    if len(sel) > constraint.rank:
        return False
    if constraint.kind == "cardinality":
        return len(sel) <= constraint.k
    if constraint.kind == "partition":
        counts = {}
        for pid in sel:
            g = constraint.groups[pid]
            counts[g] = counts.get(g, 0) + 1
            if counts[g] > constraint.caps[g]:
                return False
        return True
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
    partition bases are built directly as products of per-group choices.
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

    if constraint.kind == "partition":
        return _partition_bases(constraint, ids)

    def _gen():
        for combo in combinations(ids, k):
            if is_base(constraint, combo):
                yield combo

    return _gen()


def _partition_bases(constraint, ids):
    """Bases within sorted ``ids``: min(cap, group size) members of every group."""
    stray = set(ids) - constraint.ground
    if stray:
        raise UnknownIdError("id %d is not in the constraint's ground set" % min(stray))
    members = [[] for _ in constraint.caps]
    for pid in ids:
        members[constraint.groups[pid]].append(pid)
    choices = [
        combinations(m, min(cap, len(constraint.part_ids(g))))
        for g, (m, cap) in enumerate(zip(members, constraint.caps))
    ]
    yield from sorted(tuple(sorted(chain.from_iterable(p))) for p in product(*choices))


def cover_number(constraint):
    """Max number of family sets any single element belongs to (>= 1)."""
    if constraint.kind != "laminar":
        return 1
    best = 0
    counts = {}
    for members, _ in constraint.sets:
        for pid in members:
            counts[pid] = counts.get(pid, 0) + 1
            if counts[pid] > best:
                best = counts[pid]
    return max(best, 1)


def constraint_from_json(doc, points):
    """Build a constraint from its JSON form, resolving groups via ``points``."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError("constraint document needs a 'type' field")
    kind = doc["type"]
    if kind == "cardinality":
        if "k" not in doc:
            raise InstanceFormatError("cardinality constraint needs 'k'")
        return CardinalityConstraint(doc["k"], points.ids)
    if kind == "partition":
        if "caps" not in doc or not isinstance(doc["caps"], list):
            raise InstanceFormatError("partition constraint needs a 'caps' list")
        groups = points.groups()
        for pid, g in groups.items():
            if g is None:
                raise InstanceFormatError("point %d has no group label; partition needs one" % pid)
        return PartitionConstraint(doc["caps"], groups)
    if kind == "laminar":
        if "sets" not in doc or not isinstance(doc["sets"], list):
            raise InstanceFormatError("laminar constraint needs a 'sets' list")
        fam = []
        for entry in doc["sets"]:
            if not isinstance(entry, dict) or "ids" not in entry or "cap" not in entry:
                raise InstanceFormatError("each laminar set needs 'ids' and 'cap'")
            fam.append((entry["ids"], entry["cap"]))
        return LaminarConstraint(fam, points.ids)
    raise InstanceFormatError("unknown constraint type %r" % (kind,))


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
