"""The ``cproj`` batch verification front end.

Subcommands::

    cproj table   --n-min 2 --n-max 6 [--out report.json]
    cproj verify  --model type2 --n 3 [--model all] [--jobs N] [--fast] [--out ...]
    cproj prolong --type II --n 3 [--out ...]
    cproj algebra --name s [--lam VALUE|symbolic] | --manifest path
                  [--deform TYPE [--n N]] [--out ...]
    cproj metric  --model submax-metric --n 2 [--signs +-] [--out ...]

Every run prints one line per check and writes an optional JSON report; the
exit status is 0 when every check passes, 1 when a named check fails and 2 on
a usage, manifest or internal error.  The environment variable
CPROJ_CATALOG overrides the built-in manifest directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from itertools import repeat

from . import verify
from .catalog import MODEL_NAMES, builtin, parse_model_manifest
from .parse import ParseError
from .report import make_report, print_report, write_report


def _emit(args, command, checks, started):
    rep = make_report(command, checks, started)
    print_report(rep)
    if getattr(args, "out", None):
        write_report(rep, args.out)
    return 0 if rep["pass"] else 1


def cmd_table(args):
    started = time.time()
    rows, checks = verify.table_battery(args.n_min, args.n_max)
    for row in rows:
        cells = " ".join(f"{t}={row.bounds[t]}" for t in ("I", "II", "III", "IV"))
        line = f"n={row.n}: {cells}  submax={row.overall}"
        if row.advisories:
            line += f"  ({'; '.join(row.advisories)})"
        print(line)
    return _emit(args, f"table --n-min {args.n_min} --n-max {args.n_max}", checks, started)


MODEL_NS = {
    "flat": (2,),
    "type1": (3,),
    "type1-n2": (2,),
    "type2": (2, 3),
    "type3": (3,),
    "type3-n2": (2,),
    "nonminimal": (2,),
    "submax-metric": (2,),
    "cp1xc": (2,),
}


def _battery(spec, fast):
    """The tensor battery, then the symmetry battery when the manifest expects
    a symmetry dimension, then the metric battery when it declares a metric."""
    checks = verify.model_battery(spec)
    if spec.expect("symmetry_dim") is not None:
        checks += verify.symmetry_battery(spec, stabilize=not fast)
    if spec.metric is not None:
        checks += verify.metric_checks(spec, stabilize=not fast)
    return checks


def _verify_one(name, n, fast):
    return _battery(builtin(name, n), fast)


def cmd_verify(args):
    started = time.time()
    if args.jobs < 1:
        print(f"error: --jobs takes a positive worker count, got {args.jobs}", file=sys.stderr)
        return 2
    if args.model == "all":
        if args.n is not None:
            print("error: --n does not apply to --model all, which runs each model "
                  "at its catalog n values", file=sys.stderr)
            return 2
        jobs = [(m, n) for m, ns in MODEL_NS.items() for n in ns]
        command = "verify --model all"
    elif os.path.exists(args.model):
        # a manifest path: the same battery, with check names unprefixed
        try:
            with open(args.model, "r", encoding="ascii") as fh:
                spec = parse_model_manifest(fh.read(), n=args.n)
        except (OSError, ParseError) as exc:
            print(f"manifest error: {exc}", file=sys.stderr)
            return 2
        checks = _battery(spec, args.fast)
        return _emit(args, f"verify --model {args.model}", checks, started)
    elif args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; available: {MODEL_NAMES}", file=sys.stderr)
        return 2
    else:
        if args.n is None:
            # the smallest catalog n, which is the manifest's smallest n
            args.n = MODEL_NS[args.model][0]
        jobs = [(args.model, args.n)]
        command = f"verify --model {args.model} --n {args.n}"
    columns = (*zip(*jobs), repeat(args.fast))
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as ex:
            results = list(ex.map(_verify_one, *columns))
    else:
        results = map(_verify_one, *columns)
    checks = []
    for (m, n), got in zip(jobs, results):
        for c in got:
            c.check = f"{m}[n={n}] {c.check}"
        checks.extend(got)
    return _emit(args, command, checks, started)


def cmd_prolong(args):
    started = time.time()
    checks = verify.prolong_battery(args.type, args.n)
    return _emit(args, f"prolong --type {args.type} --n {args.n}", checks, started)


def cmd_algebra(args):
    started = time.time()
    if args.name and args.manifest:
        print("error: --name and --manifest each name the algebra; pass one", file=sys.stderr)
        return 2
    if args.lam is not None and not args.name:
        print("error: --lam applies only to --name with a parameterized algebra",
              file=sys.stderr)
        return 2
    if args.n is not None and not args.deform:
        print("error: --n applies only to --deform", file=sys.stderr)
        return 2
    checks = []
    if args.manifest:
        from .algebras import parse_algebra_manifest

        try:
            with open(args.manifest, "r", encoding="ascii") as fh:
                alg = parse_algebra_manifest(fh.read())
        except (OSError, ParseError) as exc:
            print(f"manifest error: {exc}", file=sys.stderr)
            return 2
        checks.append(verify.jacobi_check(alg.name, alg, "recomputed"))
    elif args.name:
        from .algebras import ALGEBRA_FILES

        if args.name not in ALGEBRA_FILES:
            print(f"unknown algebra {args.name!r}; available: {sorted(ALGEBRA_FILES)}",
                  file=sys.stderr)
            return 2
        lam = args.lam
        if lam not in (None, "symbolic"):
            try:
                lam = Fraction(lam)
            except (ValueError, ZeroDivisionError):
                print(f"error: --lam takes a rational number or 'symbolic', got {lam!r}",
                      file=sys.stderr)
                return 2
        checks.extend(verify.algebra_battery(args.name, lam=lam))
    if args.deform:
        n = 2 if args.n is None else args.n
        checks.extend(verify.deformation_battery(args.deform, n))
    if not checks:
        print("nothing to do: pass --name, --manifest, or --deform", file=sys.stderr)
        return 2
    return _emit(args, "algebra", checks, started)


def cmd_metric(args):
    started = time.time()
    if args.model not in MODEL_NAMES:
        print(f"unknown model {args.model!r}; available: {MODEL_NAMES}", file=sys.stderr)
        return 2
    signs = None
    if args.signs:
        if set(args.signs) - {"+", "-"}:
            print(f"error: --signs takes only '+' and '-', got {args.signs!r}",
                  file=sys.stderr)
            return 2
        signs = tuple(1 if ch == "+" else -1 for ch in args.signs)
    checks = verify.metric_battery(args.model, args.n, signs=signs, stabilize=not args.fast)
    return _emit(args, f"metric --model {args.model} --n {args.n}", checks, started)


FAST_HELP = ("skip the enlarged-ansatz re-solves of the symmetry and mobility kernels and their "
             "stabilized checks; the submax-metric n=2 isometry and homothety solves keep theirs")


def build_parser():
    p = argparse.ArgumentParser(
        prog="cproj",
        description="exact verification of c-projective symmetry claims",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="dimension-bound table, both routes")
    t.add_argument("--n-min", type=int, default=2)
    t.add_argument("--n-max", type=int, default=6)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_table)

    v = sub.add_parser("verify", help="full battery for one model (or all)")
    v.add_argument("--model", required=True)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--fast", action="store_true", help=FAST_HELP)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("prolong", help="annihilator and prolongation for a type")
    pr.add_argument("--type", required=True, choices=["I", "II", "III", "IV"])
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_prolong)

    a = sub.add_parser("algebra", help="structure-constant algebra checks")
    a.add_argument("--name")
    a.add_argument("--manifest")
    a.add_argument("--lam", default=None)
    a.add_argument("--deform", choices=["I", "II", "III", "IV"])
    a.add_argument("--n", type=int, default=None, help="rank for --deform (default 2)")
    a.add_argument("--out")
    a.set_defaults(fn=cmd_algebra)

    m = sub.add_parser("metric", help="pseudo-Kahler battery for a metric model")
    m.add_argument("--model", default="submax-metric")
    m.add_argument("--n", type=int, default=2)
    m.add_argument("--signs", default=None, help="sign pattern like '+-' for k>=3")
    m.add_argument("--fast", action="store_true", help=FAST_HELP)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_metric)
    return p


def _out_error(path):
    """Why the report cannot be written to `path`, or None; checked before
    the run, so that a bad --out costs no checks."""
    if os.path.isdir(path):
        return f"--out names a directory: {path}"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"--out directory does not exist: {parent}"
    return None


def main(argv=None):
    args = build_parser().parse_args(argv)
    problem = args.out and _out_error(args.out)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ParseError as exc:
        # a malformed manifest under CPROJ_CATALOG names its line; a lineless
        # ManifestError is about --n or --signs
        kind = "error" if exc.line is None else "manifest error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file the run could not read or write, such as a manifest missing
        # from the CPROJ_CATALOG directory
        where = f" {exc.filename}" if exc.filename else ""
        print(f"error: cannot access{where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        msg = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
