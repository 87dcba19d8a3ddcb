"""Checks of detmax's outputs against the benchmark's own numpy computations.

None of these call back into ``detmax``: optima come from enumerating
bases here (for partitions, the product of per-group combinations) and
scoring them with ``numpy.linalg.slogdet``; local optimality is checked by
projecting every outsider on the span of the other layer members.  Each
check returns a list of problems, empty when the output is right.
"""

import math
from itertools import combinations, product

import numpy as np

REL = 1e-9
_CHUNK = 1 << 16


def _close(a, b, rel=REL):
    if a == b:
        return True
    if isinstance(a, str) or isinstance(b, str) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _as_float(v):
    return -math.inf if v == "-inf" else v


def objective_batch(sel):
    """log det of each selection's Gram matrix, (B, k, d) -> (B,).

    k x k inner products while k < d, d x d outer products from k = d on,
    as in the paper; a non-positive determinant scores -inf.
    """
    k, d = sel.shape[1], sel.shape[2]
    if k < d:
        gram = np.einsum("bki,bli->bkl", sel, sel)
    else:
        gram = np.einsum("bki,bkj->bij", sel, sel)
    sign, logdet = np.linalg.slogdet(gram)
    return np.where(sign > 0, logdet, -np.inf)


def objective(X, ids):
    return float(objective_batch(X[np.asarray(sorted(ids))][None])[0])


def candidate_bases(inst, ids):
    """Every base of ``inst`` inside the position list ``ids``, as a (B, k) array."""
    ids = sorted(ids)
    if inst.kind == "partition":
        per_group = []
        for members, cap in zip(inst.sets, inst.caps):
            inside = [i for i in ids if i in members]
            per_group.append(list(combinations(inside, cap)))
        rows = [sum(parts, ()) for parts in product(*per_group)]
        return np.array(rows, dtype=np.intp).reshape(len(rows), inst.k)
    flat = np.fromiter(
        (i for combo in combinations(ids, inst.k) for i in combo), dtype=np.intp
    )
    combos = flat.reshape(-1, inst.k)
    return combos[inst.feasible_mask(combos)]


def enumerated_optimum(inst, X, ids=None):
    """Best log objective over the bases inside ``ids`` (all points by default)."""
    bases = candidate_bases(inst, range(len(X)) if ids is None else ids)
    best = -math.inf
    for lo in range(0, len(bases), _CHUNK):
        vals = objective_batch(X[bases[lo : lo + _CHUNK]])
        best = max(best, float(vals.max()))
    return best, len(bases)


def check_report(inst, rep, full=None):
    """A RunReport (as JSON) against what the benchmark knows about ``inst``.

    ``full`` is the benchmark's own full optimum when the oracle ran.
    """
    bad = []
    want = {"n": inst.n, "d": inst.d, "k": inst.k, "kind": inst.kind}
    if rep["instance"] != want:
        bad.append("instance %r, expected %r" % (rep["instance"], want))
    cfg = rep["config"]
    if (cfg["ell"], cfg["regime"]) != (inst.ell, inst.regime):
        bad.append("ell/regime %r/%r, expected %r/%r" % (cfg["ell"], cfg["regime"], inst.ell, inst.regime))
    if not _close(rep["bound_log"], inst.bound_log):
        bad.append("bound_log %r, expected %r" % (rep["bound_log"], inst.bound_log))
    parts = rep["parts"]
    if sum(p["size"] for p in parts) != inst.n:
        bad.append("part sizes do not add up to n")
    for p in parts:
        if p["size"] and p["declared_bound"] != inst.part_bound:
            bad.append("part %d declares bound %r, expected %d" % (p["part"], p["declared_bound"], inst.part_bound))
        if p["coreset_size"] > min(p["size"], inst.part_bound):
            bad.append("part %d coreset of %d exceeds its bound" % (p["part"], p["coreset_size"]))
    if rep["composed_size"] != sum(p["coreset_size"] for p in parts):
        bad.append("composed size %d is not the sum of disjoint part coresets" % rep["composed_size"])
    value = _as_float(rep["coreset_value"])
    if not rep["coreset_feasible"] or not math.isfinite(value):
        bad.append("coreset solve infeasible or singular (%r)" % (rep["coreset_value"],))
    if full is not None:
        got = _as_float(rep["full_value"])
        if rep["oracle"] != "brute_force" or not _close(got, full):
            bad.append("full optimum %r, enumeration gives %r" % (rep["full_value"], full))
        ratio = full - value
        if not -REL <= ratio <= inst.bound_log + REL:
            bad.append("log ratio %r outside [0, %r]" % (ratio, inst.bound_log))
        elif rep["ratio_log"] is None or not _close(_as_float(rep["ratio_log"]), ratio, 1e-6):
            bad.append("reported ratio %r, recomputed %r" % (rep["ratio_log"], ratio))
    return bad


def check_selection(inst, X, solve, composed, rep, hidden=frozenset()):
    """The solver's selection: a base inside the coreset, scoring the reported value.

    The brute-force optimum it is held to leaves out the ``hidden`` ids.
    """
    bad = []
    ids = list(solve.ids)
    if len(set(ids)) != inst.k:
        return ["selection has %d distinct ids, rank is %d" % (len(set(ids)), inst.k)]
    if not set(ids) <= set(composed):
        bad.append("selection leaves the composed coreset")
    if not inst.feasible_mask(np.array([sorted(ids)]))[0]:
        bad.append("selection violates a cap")
    value = objective(X, ids)
    if not _close(value, _as_float(rep["coreset_value"])):
        bad.append("selection scores %r, report says %r" % (value, rep["coreset_value"]))
    if solve.method == "brute_force":
        best, _ = enumerated_optimum(inst, X, set(composed) - hidden)
        if not _close(best, value):
            bad.append("brute force on the coreset found %r, enumeration gives %r" % (value, best))
    return bad


def check_layers(inst, X, builds, zeta):
    """Every part coreset of a partition or cardinality instance, layer by layer.

    ``builds`` holds (working ids, CoresetResult) per part.  Checks that the
    layers are pairwise disjoint, that each lies inside one group, that each
    is a zeta-local optimum of what its group had left when it was peeled
    (or, flagged degenerate, that what was left had too low a rank), and
    that each part stays within the paper's size bound.
    """
    bad = []
    group_of = np.array([p["group"] or 0 for p in inst.doc["points"]])
    norms = np.einsum("ij,ij->i", X, X)
    seen = set()
    for part, (V, cs) in enumerate(builds):
        layers = [list(layer) for layer in cs.layer_lists()]
        if set().union(*layers) != set(cs.ids):
            bad.append("part %d: layers do not make up the coreset" % part)
        if len(cs.ids) > inst.part_bound:
            bad.append("part %d: %d points exceed the bound %d" % (part, len(cs.ids), inst.part_bound))
        V = np.asarray(sorted(V))
        left = {g: set(V[group_of[V] == g].tolist()) for g in set(group_of[V].tolist())}
        for no, layer in enumerate(layers):
            if seen & set(layer):
                bad.append("part %d layer %d overlaps an earlier layer" % (part, no))
            seen |= set(layer)
            groups = set(group_of[layer].tolist())
            if len(groups) != 1:
                bad.append("part %d layer %d spans groups %r" % (part, no, sorted(groups)))
                continue
            g = groups.pop()
            if not set(layer) <= left[g]:
                bad.append("part %d layer %d is not inside its working set" % (part, no))
                continue
            problem = _local_opt_violation(X, norms, layer, sorted(left[g] - set(layer)), zeta)
            if problem == _DEGENERATE and np.linalg.matrix_rank(X[sorted(left[g])]) < len(layer):
                problem = None
            if problem:
                bad.append("part %d layer %d: %s" % (part, no, problem))
            left[g] -= set(layer)
    return bad


_DEGENERATE = "a member is spanned by the others (degenerate layer)"


def _local_opt_violation(X, norms, layer, outsiders, zeta):
    """None when no single swap beats the layer's squared volume by more than zeta.

    Swapping member e for outsider f scales the squared volume by
    dist(f, span(rest))^2 / dist(e, span(rest))^2, rest = layer - e.
    """
    if not outsiders:
        return None
    out = X[outsiders]
    for e in layer:
        rest = [p for p in layer if p != e]
        if rest:
            q, _ = np.linalg.qr(X[rest].T)
            resid_e = norms[e] - float(np.sum((X[e] @ q) ** 2))
            proj = out @ q
            resid_f = norms[outsiders] - np.einsum("ij,ij->i", proj, proj)
        else:
            resid_e, resid_f = norms[e], norms[outsiders]
        if resid_e <= 1e-12 * norms[e]:
            return _DEGENERATE
        worst = float(resid_f.max())
        if worst > zeta * resid_e * (1.0 + REL):
            f = outsiders[int(np.argmax(resid_f))]
            return "swapping %d for %d gains %.6g > zeta" % (e, f, worst / resid_e)
    return None
