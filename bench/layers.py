"""Which detmax names the traced pass wraps, and the per-layer metrics read from them.

Each target is the attribute through which one module calls another, so a
wrapper sees exactly the calls that cross that boundary: ``local_opt`` as
the coreset module calls it, ``logdet_psd_batch`` once per calling module,
``PointSet`` methods on the class.  Metric names start with the module that
owns the work.  The README maps each one to the end-to-end metric it should
move.
"""

import statistics

from tracer import Target

LOGDET_CALLERS = ("localsearch", "solver", "objective")


def _rows(counts, args, result):
    ids = args[1]
    counts["geometry.rows.ids"] += len(ids) if hasattr(ids, "__len__") else 0


def _logdet(caller):
    def observe(counts, args, result):
        counts["geometry.logdet.%s.matrices" % caller] += len(result)
    return observe


def _local_opt(counts, args, result):
    """Sweeps are counted from the result: the swap loop runs once more than it swaps."""
    size = len(set(args[1]))
    ell = args[2]
    searched = not result.degenerate and size > ell
    sweeps = result.swap_count + 1 if searched else 0
    counts["localsearch.working_set_ids"] += size
    counts["localsearch.swaps"] += result.swap_count
    counts["localsearch.sweeps"] += sweeps
    counts["localsearch.candidate_evals"] += sweeps * ell * size
    counts["localsearch.degenerate"] += int(result.degenerate)


def targets():
    import detmax.coreset as coreset
    import detmax.geometry as geometry
    import detmax.harness as harness
    import detmax.instances as instances
    import detmax.localsearch as localsearch
    import detmax.matroid as matroid
    import detmax.objective as objective
    import detmax.solver as solver

    modules = {"localsearch": localsearch, "solver": solver, "objective": objective}
    return [
        # set-up
        Target(instances, "load_instance", "instances.load"),
        Target(geometry.PointSet, "__init__", "geometry.pointset_build"),
        Target(instances, "constraint_from_json", "matroid.constraint_build"),
        # pipeline
        Target(harness, "build_coreset", "coreset.build", keep=True),
        Target(harness, "compose", "coreset.compose"),
        Target(coreset, "local_opt", "localsearch.local_opt", observe=_local_opt),
        Target(geometry.PointSet, "rows", "geometry.rows", observe=_rows),
        Target(geometry.PointSet, "__contains__", "geometry.contains", kind="count"),
        Target(harness, "solve_on_coreset", "solver.solve", keep=True),
        Target(harness, "brute_force_opt", "solver.brute_force"),
        Target(solver, "brute_force_opt", "solver.brute_force"),
        Target(solver, "greedy_constrained", "solver.greedy"),
        Target(solver, "enumerate_bases", "matroid.enumerate", kind="generator"),
        Target(matroid, "is_base", "matroid.is_base", kind="count"),
        Target(matroid, "is_independent", "matroid.is_independent", kind="count"),
        Target(solver, "is_independent", "matroid.is_independent", kind="count"),
    ] + [
        Target(modules[c], "logdet_psd_batch", "geometry.logdet." + c, observe=_logdet(c))
        for c in LOGDET_CALLERS
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def _round_metrics(untraced, setup_recs, pipe_recs, reports):
    """Metric name -> (value, unit, span names it needs) for one traced round."""
    S = lambda f: sum(f(r) for r in setup_recs)  # noqa: E731
    P = lambda f: sum(f(r) for r in pipe_recs)  # noqa: E731
    cnt = lambda key: P(lambda r: r.counts[key])  # noqa: E731
    good = [r for r in reports if isinstance(r, dict)]
    timing = lambda key: sum(r["timings"].get(key, 0.0) for r in good)  # noqa: E731
    traced = P(lambda r: r.total("bench.pipeline"))
    m = {}

    def put(name, value, unit, *needs):
        m[name] = (float(value), unit, needs)

    put("geometry.pointset_build_s", S(lambda r: r.total("geometry.pointset_build")), "s", "geometry.pointset_build")
    put("matroid.constraint_build_s", S(lambda r: r.total("matroid.constraint_build")), "s", "matroid.constraint_build")
    put("instances.load_s", S(lambda r: r.total("instances.load")), "s", "instances.load")

    put("geometry.rows_calls", cnt("geometry.rows"), "count", "geometry.rows")
    put("geometry.rows_ids", cnt("geometry.rows.ids"), "count", "geometry.rows")
    put("geometry.rows_s", P(lambda r: r.total("geometry.rows")), "s", "geometry.rows")
    put("geometry.contains_calls", cnt("geometry.contains"), "count", "geometry.contains")
    for c in LOGDET_CALLERS:
        span = "geometry.logdet." + c
        put("geometry.logdet_calls." + c, cnt(span), "count", span)
        put("geometry.logdet_matrices." + c, cnt(span + ".matrices"), "count", span)
        put("geometry.logdet_s." + c, P(lambda r: r.total(span)), "s", span)

    scanned = cnt("matroid.is_base")  # enumerate_bases is its only caller in the pipeline
    yielded = cnt("matroid.enumerate.yielded")
    put("matroid.enumerate_s", P(lambda r: r.total("matroid.enumerate")), "s", "matroid.enumerate")
    put("matroid.subsets_scanned", scanned, "count", "matroid.is_base")
    put("matroid.bases_yielded", yielded, "count", "matroid.enumerate")
    put("matroid.base_yield", _ratio(yielded, scanned), "ratio", "matroid.enumerate", "matroid.is_base")
    put("matroid.independence_checks", cnt("matroid.is_independent"), "count", "matroid.is_independent")

    lo = "localsearch.local_opt"
    put("localsearch.local_opt_calls", cnt(lo), "count", lo)
    put("localsearch.local_opt_s", P(lambda r: r.total(lo)), "s", lo)
    put("localsearch.local_opt_self_s", P(lambda r: r.self_time(lo)), "s",
        lo, "geometry.rows", "geometry.logdet.localsearch")
    put("localsearch.working_set_ids", cnt("localsearch.working_set_ids"), "count", lo)
    put("localsearch.swaps", cnt("localsearch.swaps"), "count", lo)
    put("localsearch.sweeps", cnt("localsearch.sweeps"), "count", lo)
    put("localsearch.swaps_per_sweep", _ratio(cnt("localsearch.swaps"), cnt("localsearch.sweeps")), "ratio", lo)
    put("localsearch.candidate_evals", cnt("localsearch.candidate_evals"), "count", lo)

    builds = [cs for r in pipe_recs for _, cs in r.kept.get("coreset.build", [])]
    bounds = sum(p["declared_bound"] or 0 for r in good for p in r["parts"])
    put("coreset.build_calls", cnt("coreset.build"), "count", "coreset.build")
    put("coreset.build_s_sum", P(lambda r: r.total("coreset.build")), "s", "coreset.build")
    put("coreset.build_s_max", P(lambda r: max(r.durations("coreset.build"), default=0.0)), "s", "coreset.build")
    put("coreset.layers", sum(len(cs.layer_lists()) for cs in builds), "count", "coreset.build")
    put("coreset.degenerate_layers", cnt("localsearch.degenerate"), "count", lo)
    put("coreset.compose_s", P(lambda r: r.total("coreset.compose")), "s", "coreset.compose")
    put("coreset.size_to_bound", _ratio(sum(r["composed_size"] for r in good), bounds), "ratio")

    put("solver.solve_s", P(lambda r: r.total("solver.solve")), "s", "solver.solve")
    put("solver.brute_force_s", P(lambda r: r.total("solver.brute_force")), "s", "solver.brute_force")
    put("solver.brute_solves", cnt("solver.brute_force"), "count", "solver.brute_force")
    put("solver.greedy_s", P(lambda r: r.total("solver.greedy")), "s", "solver.greedy")
    put("solver.greedy_solves", cnt("solver.greedy"), "count", "solver.greedy")

    put("harness.split_s", timing("split"), "s")
    put("harness.coreset_stage_s", timing("coreset"), "s")
    put("harness.solve_stage_s", timing("solve"), "s")
    put("harness.oracle_stage_s", timing("oracle"), "s")

    put("bench.pipeline_s", untraced, "s")
    put("bench.traced_pipeline_s", traced, "s")
    put("bench.trace_overhead_s", traced - untraced, "s")
    return m


def _cross_check(pipe_recs, reports):
    """Stage timings in RunReport must cover the wrapper spans measured inside them."""
    problems = []
    for rec, rep in zip(pipe_recs, reports):
        if not isinstance(rep, dict):
            continue
        names = {sid: n for sid, n, _, _, _ in rec.spans}
        inner = {
            "coreset": max(rec.durations("coreset.build"), default=0.0),
            "solve": rec.total("solver.solve"),
            # the oracle's brute force, not the one solve_on_coreset calls
            "oracle": sum(
                end - start for _, n, start, end, parent in rec.spans
                if n == "solver.brute_force" and names.get(parent) != "solver.solve"
            ),
        }
        for stage, span_s in inner.items():
            if span_s > rep["timings"][stage] + 1e-6:
                problems.append("%s stage %.6f s is shorter than its spans (%.6f s)"
                                % (stage, rep["timings"][stage], span_s))
    return problems


def metrics(rounds, absent):
    """Per-layer metrics over all traced rounds, plus trace consistency problems.

    Times are medians over rounds.  Counts must repeat exactly from round to
    round, since every round runs the same inputs with the same split.  A
    metric that needs a target that was absent is left out.
    """
    per_round = [_round_metrics(*r) for r in rounds]
    missing = {target.name for target in absent}
    problems = []
    for r in rounds:
        problems += _cross_check(r[2], r[3])
    out = {}
    for name, (_, unit, needs) in per_round[0].items():
        if missing.intersection(needs):
            continue
        values = [m[name][0] for m in per_round]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                problems.append("%s differs between rounds: %r" % (name, values))
            out[name] = (values[0], unit)
    return out, problems


def spans_doc(rounds, batch):
    """All spans of every traced round, for offline reading."""
    out = []
    for no, (_, setup_recs, pipe_recs, _) in enumerate(rounds):
        for inst, srec, prec in zip(batch, setup_recs, pipe_recs):
            for phase, rec in (("setup", srec), ("pipeline", prec)):
                out.append({
                    "round": no, "instance": inst.name, "phase": phase,
                    "spans": [
                        {"id": sid, "name": n, "start": s, "end": e, "parent": p}
                        for sid, n, s, e, p in rec.spans
                    ],
                    "counts": dict(rec.counts),
                })
    return out
