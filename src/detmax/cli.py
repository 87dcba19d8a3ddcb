"""The ``detmax`` command line: gen, coreset, solve, compose, run, bench, verify.

Every command writes deterministic output: JSON documents, or CSV whose
only wall-clock column is ``seconds``.  Input errors exit 2 with an
``error:`` line on stderr.
"""

import argparse
import csv
import gc
import io
import json
import sys

from .coreset import build_coreset, compose, coreset_from_json, coreset_ids_from_json, coreset_to_json
from .errors import GuardExceededError, InstanceFormatError, PreconditionError, RejectionSamplingError, UnknownIdError
from .geometry import merge_pointsets
from .harness import bench_scaling, run_distributed
from .ingest import parse_json, read_instance
from .instances import (
    InstanceSpec,
    hard_instance,
    instance_to_json,
    lb_high_dim_instance,
    lb_low_dim_instance,
    random_instance,
)
from .localsearch import DEFAULT_ZETA
from .matroid import LaminarConstraint, laminar_family
from .properties import SUITES, run_suites
from .solver import solve_on_coreset


def _write(text, path):
    """Write ``text`` to ``path``, or to stdout for None or "-"."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _dump_json(doc, path):
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


def _dump_csv(rows, fieldnames, path):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), path)


def _load_json(path):
    with open(path) as fh:
        return parse_json(fh.read())


def _load_instance(path):
    """The instance file at ``path`` as (points, constraint, meta), read with the cyclic collector off.

    ``ingest.read_instance`` reads the file a slice of points at a time and
    gives what ``load_instance(json.load(f))`` gives.  The objects of a slice
    have no cycles and live only until the slice's columns are built, so
    collections during the read would walk them for nothing.  The collector
    is turned back on (only if it was on) on every exit, once refcounting has
    freed the text and the slices; a JSONDecodeError keeps the text as its
    ``doc``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return read_instance(path)
    finally:
        if enabled:
            gc.enable()


def _number_list(text, kind):
    """Parse comma-separated numbers; a token ``kind`` rejects is an input error."""
    out = []
    for token in text.split(","):
        if token.strip() != "":
            try:
                out.append(kind(token))
            except ValueError:
                raise PreconditionError("bad %s %r in %r" % (kind.__name__, token, text)) from None
    return out


def _caps(args, kind):
    if not args.caps:
        raise PreconditionError("%s generation needs --caps" % kind)
    return _number_list(args.caps, int)


def _adversarial(args, params, pair):
    """One instance from an adversarial pair (V, V'); the metadata says which ids are which."""
    v, vp, constraint = pair
    meta = {"generator": args.generator, "params": params,
            "v_ids": sorted(v.ids), "adversary_ids": sorted(vp.ids)}
    return merge_pointsets(v, vp), constraint, meta


def _cmd_gen(args):
    if args.generator == "random":
        if args.constraint == "cardinality":
            cdoc, k = {"type": "cardinality", "k": args.k}, args.k
        elif args.constraint == "partition":
            cdoc = {"type": "partition", "caps": _caps(args, "partition")}
            k = sum(cdoc["caps"]) or args.k
        elif args.constraint == "laminar":
            if not args.laminar_sets:
                raise PreconditionError("laminar generation needs --laminar-sets JSON")
            cdoc = {"type": "laminar", "sets": parse_json(args.laminar_sets)}
            # the family's rank over ids 0..n-1, the ids random_instance gives
            k = LaminarConstraint(laminar_family(cdoc), range(args.n)).rank
        else:
            raise PreconditionError("unknown constraint kind %r" % (args.constraint,))
        spec = InstanceSpec("random", args.n, args.d, k, cdoc, args.seed, {"coord_mode": args.coord_mode})
        points, constraint = random_instance(spec)
        meta = {"generator": "random", "spec": spec.to_json()}
    elif args.generator == "lb-low-dim":
        caps = tuple(_caps(args, "lb-low-dim"))
        perm = tuple(_number_list(args.perm, int)) if args.perm else None
        points, constraint, meta = _adversarial(
            args,
            {"caps": list(caps), "d": args.d, "M": args.M, "probe": args.probe,
             "perm": list(perm) if perm else None},
            lb_low_dim_instance(len(caps), caps, args.d, args.M, args.probe, perm),
        )
    elif args.generator == "lb-high-dim":
        ms = tuple(_number_list(args.Ms, float))
        points, constraint, meta = _adversarial(
            args,
            {"k": args.k, "d": args.d, "Ms": list(ms), "M": args.M, "probe": args.probe},
            lb_high_dim_instance(args.k, args.d, ms, args.M, args.probe),
        )
    elif args.generator == "hard":
        inst = hard_instance(args.d, args.beta, args.k, args.seed, args.M, args.g_cap)
        points, constraint = inst.combined, inst.constraint
        meta = {
            "generator": "hard",
            "params": dict(inst.params),
            "planted_ids": sorted(inst.planted_ids),
            "axis_ids": sorted(inst.axis_ids),
            "tau": inst.tau,
            "m": inst.m,
            "t": inst.t,
            "planted_log_value": inst.planted_log_value,
        }
    else:
        raise PreconditionError("unknown generator %r" % (args.generator,))
    _dump_json(instance_to_json(points, constraint, meta), args.out)
    return 0


def _cmd_coreset(args):
    points, constraint, _ = _load_instance(args.instance)
    cs = build_coreset(points, points.id_array, constraint, args.zeta)
    _dump_json(coreset_to_json(cs), args.out)
    for w in cs.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return 0


def _cmd_solve(args):
    points, constraint, _ = _load_instance(args.instance)
    if args.coreset:
        ids = coreset_ids_from_json(_load_json(args.coreset))
    else:
        ids = sorted(points.ids)
    result = solve_on_coreset(points, constraint, ids, args.method)
    _dump_json(result.to_json(), args.out)
    return 0 if result.feasible else 3


def _cmd_compose(args):
    parts = [coreset_from_json(_load_json(p)) for p in args.coresets]
    _dump_json(coreset_to_json(compose(parts)), args.out)
    return 0


def _cmd_run(args):
    points, constraint, _ = _load_instance(args.instance)
    report = run_distributed(
        points,
        constraint,
        args.parts,
        args.seed,
        zeta=args.zeta,
        split=args.split,
        oracle=args.oracle,
    )
    _dump_json(report.to_json(), args.out)
    if args.csv:
        row = report.csv_row()
        _dump_csv([row], list(row), args.csv)
    return 0


def _cmd_bench(args):
    rows = bench_scaling(
        args.d, args.k, _number_list(args.n_list, int), args.seed, args.s,
        args.zeta, args.repeats,
    )
    _dump_csv(rows, ["n", "seconds", "coreset_size"], args.out)
    return 0


def _cmd_verify(args):
    results = run_suites(args.suite, args.seed)
    for suite, ok, detail in results:
        print("%s %s: %s" % ("PASS" if ok else "FAIL", suite, detail))
    return 0 if all(ok for _, ok, _ in results) else 1


# options that several commands take, declared once
_SHARED = {
    "--instance": {"required": True},
    "--seed": {"type": int, "default": 0},
    "--zeta": {"type": float, "default": DEFAULT_ZETA},
    "--out": {"default": "-"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detmax",
        description="composable coresets for constrained determinant maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = command("gen", _cmd_gen, "generate an instance file", "--seed", "--out")
    p.add_argument("--generator", default="random",
                   choices=["random", "lb-low-dim", "lb-high-dim", "hard"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--constraint", default="cardinality",
                   choices=["cardinality", "partition", "laminar"])
    p.add_argument("--caps", default=None, help="comma-separated partition caps")
    p.add_argument("--laminar-sets", default=None,
                   help='JSON like [{"ids": [...], "cap": 2}, ...]')
    p.add_argument("--coord-mode", default="normal", choices=["normal", "grid"])
    p.add_argument("--M", type=float, default=1000.0)
    p.add_argument("--Ms", default="100,10,1", help="comma-separated group scales")
    p.add_argument("--probe", type=int, default=0)
    p.add_argument("--perm", default=None, help="comma-separated slot permutation")
    p.add_argument("--beta", type=float, default=0.0117)
    p.add_argument("--g-cap", type=int, default=10000)

    command("coreset", _cmd_coreset, "build a coreset for one machine",
            "--instance", "--zeta", "--out")

    p = command("solve", _cmd_solve, "solve on an instance or a coreset file", "--instance", "--out")
    p.add_argument("--coreset", default=None)
    p.add_argument("--method", default="auto", choices=["auto", "brute", "greedy"])

    p = command("compose", _cmd_compose, "union coreset files from disjoint machines", "--out")
    p.add_argument("coresets", nargs="+")

    p = command("run", _cmd_run, "full distributed pipeline with oracle cross-check",
                "--instance", "--seed", "--zeta", "--out")
    p.add_argument("--parts", type=int, default=2)
    p.add_argument("--split", default="random", choices=["random", "by-group"])
    p.add_argument("--oracle", default="auto", choices=["auto", "skip", "force"])
    p.add_argument("--csv", default=None)

    p = command("bench", _cmd_bench, "time coreset construction across sizes", "--seed", "--zeta", "--out")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--n-list", default="1000,10000,100000")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--repeats", type=int, default=1)

    p = command("verify", _cmd_verify, "run the seeded property suites", "--seed")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        PreconditionError,
        GuardExceededError,
        RejectionSamplingError,
        InstanceFormatError,
        UnknownIdError,
        OSError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
