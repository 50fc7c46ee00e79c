"""Command-line front end: thin bindings over the library calls.

Reports are JSON with sorted keys (stable for golden-file comparisons);
enumerate, tails and bc-table also print their table as CSV via --format
csv.  Exit codes: 0 success, 1 domain error with machine-readable JSON on
stderr, 2 usage error.

Work is bounded by the environment variable ``SADDLEKIT_BUDGET`` (default
500,000: enumeration states, lattice rows and points); no command takes a
flag for it.  A command that needs more exits 1 with ``RESOURCE_LIMIT`` and
the progress it made, e.g. ``states``, ``connections`` and
``radius_sq_reached`` for an enumeration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import chew, delaunay, geodesic, mc, oracle, sv
from .errors import InputError, SaddlekitError
from .exactplane import ExactMatrix, ExactVector, sorted_by_length, to_float, to_fraction
from .surface import TranslationSurface, area


def _load_surface(path: str) -> TranslationSurface:
    with open(path, "r") as fh:
        s = TranslationSurface.from_json(fh.read())
    s.validate()
    return s


def _emit(args, payload):
    if getattr(args, "format", "json") == "csv" and isinstance(payload, dict):
        rows = payload.get("rows")
        header = payload.get("header")
        if rows is not None:
            out = io.StringIO()
            writer = csv.writer(out)
            if header:
                writer.writerow(header)
            writer.writerows(rows)
            sys.stdout.write(out.getvalue())
            return
    sys.stdout.write(json.dumps(payload, sort_keys=True, default=str) + "\n")


def _fn_from_arg(arg: str) -> sv.TestFunction:
    text = arg
    if os.path.exists(arg):
        with open(arg) as fh:
            text = fh.read()
    return sv.test_function_from_json(text)


def _matrix_from_arg(arg: str) -> ExactMatrix:
    parts = [to_fraction(p) for p in arg.split(",")]
    if len(parts) != 4:
        raise InputError("matrix must be a,b,c,d")
    return ExactMatrix(*parts)


def _vector_from_arg(arg: str) -> ExactVector:
    parts = [to_fraction(p) for p in arg.split(",")]
    if len(parts) != 2:
        raise InputError("vector must be x,y")
    return ExactVector(*parts)


def cmd_validate(args):
    s = _load_surface(args.surface)
    sig = s.validate()
    payload = sig.to_json_dict()
    payload["area"] = str(area(s))
    payload["n_triangles"] = s.n_triangles()
    _emit(args, payload)
    return 0


def cmd_count(args):
    s = _load_surface(args.surface)
    n = geodesic.count(s, to_fraction(args.radius))
    _emit(args, {"count": n, "radius": args.radius})
    return 0


def cmd_enumerate(args):
    s = _load_surface(args.surface)
    hs = geodesic.enumerate_connections(s, to_fraction(args.radius))
    if args.format == "csv":
        _emit(args, {"header": hs.CSV_HEADER, "rows": hs.csv_rows()})
    else:
        _emit(
            args,
            {
                "radius": args.radius,
                "n_connections": len(hs.connections),
                "n_vectors": hs.n_vectors(),
                "connections": [
                    {
                        "holonomy": c.holonomy.to_json(),
                        "start": c.start,
                        "end": c.end,
                        "n_crossings": len(c.crossings),
                    }
                    for c in hs.connections
                ],
            },
        )
    return 0


def cmd_delaunay(args):
    s = _load_surface(args.surface)
    dt = delaunay.delaunay_l1(s)
    _emit(args, dt.to_json_dict())
    return 0


def cmd_chew_check(args):
    s = _load_surface(args.surface)
    dt = delaunay.delaunay_l1(s)
    hs = geodesic.enumerate_connections(s, to_fraction(args.radius))
    checked = 0
    worst = 0.0
    failures = 0
    for conn in hs.connections:
        path = chew.chew_path(dt, conn)
        checked += 1
        worst = max(worst, path.ratio_upper_bound)
        if not path.sqrt10_certified:
            failures += 1
    _emit(
        args,
        {
            "checked": checked,
            "certified_failures": failures,
            "max_ratio_upper_bound": worst,
            "sqrt10": 10 ** 0.5,
        },
    )
    return 0 if failures == 0 else 1


def cmd_transform(args):
    s = _load_surface(args.surface)
    f = _fn_from_arg(args.fn)
    rep = sv.transform_report(s, f)
    _emit(args, {"value": rep.value, "ambiguous": rep.ambiguous, "n_vectors": rep.n_vectors})
    return 0


def cmd_classify(args):
    s = _load_surface(args.surface)
    label = sv.classify(s, to_fraction(args.eps0), to_fraction(str(args.p)))
    _emit(args, label.to_json_dict())
    return 0


def cmd_torus_exact(args):
    t = oracle.TorusPoint(_matrix_from_arg(args.matrix))
    vectors = sorted_by_length(oracle.torus_holonomy(t, to_fraction(args.radius)))
    _emit(args, {"n_vectors": len(vectors), "vectors": [v.to_json() for v in vectors]})
    return 0


def cmd_slit_exact(args):
    t = oracle.SlitTorusPoint(_matrix_from_arg(args.matrix), _vector_from_arg(args.slit))
    res = oracle.slit_torus_holonomy(t, to_fraction(args.radius))
    _emit(
        args,
        {
            "n_vectors": len(res.vectors),
            "n_corrections": len(res.corrections),
            "vectors": [v.to_json() for v in sorted_by_length(res.vectors)],
            "corrections": [v.to_json() for v in sorted_by_length(res.corrections)],
        },
    )
    return 0


def _seeded(args):
    if args.seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
    else:
        seed = args.seed
    return seed


def cmd_mc_torus(args):
    seed = _seeded(args)
    samples = mc.sample_torus_haar(args.samples, seed)
    rep = mc.estimate_mean_transform(
        samples, sv.DiscIndicator(to_fraction(args.radius)), threads=args.threads
    )
    payload = rep.to_json_dict()
    payload["radius"] = args.radius
    _emit(args, payload)
    return 0


def cmd_mc_stratum(args):
    seed = _seeded(args)
    base = _load_surface(args.surface)
    sample = mc.sample_stratum_local(base, str(args.spread), args.samples, seed)
    f = _fn_from_arg(args.fn) if args.fn else sv.DiscIndicator(to_fraction(args.radius or "1/2"))
    rep = mc.estimate_mean_transform(sample, f, threads=args.threads)
    payload = rep.to_json_dict()
    payload["attempts"] = sample.attempts
    _emit(args, payload)
    return 0


def cmd_variance(args):
    seed = _seeded(args)
    samples = mc.sample_torus_haar(args.samples, seed)
    rep = mc.estimate_L2_and_variance(samples, to_float(args.radius), threads=args.threads)
    _emit(args, rep.to_json_dict())
    return 0


def cmd_tails(args):
    seed = _seeded(args)
    if args.surface:
        base = _load_surface(args.surface)
        samples = mc.sample_stratum_local(base, str(args.spread), args.samples, seed)
    else:
        samples = mc.sample_torus_haar(args.samples, seed)
    f = _fn_from_arg(args.fn) if args.fn else sv.DiscIndicator(Fraction(1, 4))
    hist = mc.tail_histogram(samples, f, args.kmax, threads=args.threads)
    payload = hist.to_json_dict()
    payload["seed"] = seed
    if args.format == "csv":
        rows = [
            [k + 1, t, frac]
            for k, (t, frac) in enumerate(zip(hist.thresholds, hist.fractions))
        ]
        _emit(args, {"header": ["k", "threshold", "exceedance"], "rows": rows})
    else:
        _emit(args, payload)
    return 0


def cmd_bc_table(args):
    seed = _seeded(args)
    samples = mc.sample_torus_haar(args.samples, seed)
    radii = [to_float(r) for r in args.radii.split(",")]
    errors = [to_float(e) for e in args.errors.split(",")]
    rows = mc.borel_cantelli_table(radii, errors, samples, threads=args.threads)
    if args.format == "csv":
        header = [
            "radius",
            "variance_hat",
            "ratio",
            "partial_sum",
            "error_bound",
            "empirical_exceedance",
            "binomial_ci",
        ]
        _emit(args, {"header": header, "rows": [
            [r.radius, r.variance_hat, r.ratio, r.partial_sum, r.error_bound,
             r.empirical_exceedance, r.binomial_ci] for r in rows]})
    else:
        _emit(args, {"seed": seed, "rows": [r.to_json_dict() for r in rows]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlekit",
        description="Exact geometry and counting statistics on translation surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=False, radius=False, stochastic=False, table=False):
        if table:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if surface:
            p.add_argument("--surface", required=True)
        if radius:
            p.add_argument("--radius", required=True)
        if stochastic:
            p.add_argument("--samples", type=int, required=True)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument(
                "--threads", type=int, default=1,
                help="worker threads for stratum surfaces, at least 1; torus samples ignore it",
            )

    p = sub.add_parser("validate", help="check surface invariants, print the signature")
    common(p, surface=True)

    p = sub.add_parser("count", help="number of distinct holonomy vectors up to a radius")
    common(p, surface=True, radius=True)

    p = sub.add_parser("enumerate", help="list saddle connections up to a radius")
    common(p, surface=True, radius=True, table=True)

    p = sub.add_parser("delaunay", help="L1 Delaunay triangulation with certificates")
    common(p, surface=True)

    p = sub.add_parser("chew-check", help="verify the sqrt(10) path bound over connections")
    common(p, surface=True, radius=True)

    p = sub.add_parser("transform", help="sum a test function over the holonomy set")
    common(p, surface=True)
    p.add_argument("--fn", required=True, help="test function JSON (inline or path)")

    p = sub.add_parser("classify", help="short-curve classification of a surface")
    common(p, surface=True)
    p.add_argument("--eps0", required=True)
    p.add_argument("--p", required=True)

    p = sub.add_parser("torus-exact", help="exact holonomy of a lattice torus")
    common(p, radius=True)
    p.add_argument("--matrix", required=True, help="a,b,c,d with det 1")

    p = sub.add_parser("slit-exact", help="predicted slit-torus holonomy with corrections")
    common(p, radius=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--slit", required=True, help="slit holonomy x,y")

    p = sub.add_parser("mc-torus", help="Monte Carlo mean of the counting function")
    common(p, radius=True, stochastic=True)

    p = sub.add_parser("mc-stratum", help="local period-coordinate sampling statistics")
    common(p, surface=True, stochastic=True)
    p.add_argument("--spread", type=str, default="0.05")
    p.add_argument("--fn", default=None)
    p.add_argument("--radius", default=None)

    p = sub.add_parser("variance", help="L2 and variance estimate of the count")
    common(p, radius=True, stochastic=True)

    p = sub.add_parser("tails", help="exceedance histogram and tail exponent fit")
    common(p, stochastic=True, table=True)
    p.add_argument("--surface", default=None)
    p.add_argument("--spread", type=str, default="0.05")
    p.add_argument("--fn", default=None)
    p.add_argument("--kmax", type=int, default=40)

    p = sub.add_parser("bc-table", help="variance versus error budget per radius")
    common(p, stochastic=True, table=True)
    p.add_argument("--radii", required=True, help="comma-separated increasing radii")
    p.add_argument("--errors", required=True, help="comma-separated error bounds")

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up at call time, so a replaced cmd_* function is the one run.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SaddlekitError as exc:
        sys.stderr.write(json.dumps(exc.to_json_dict(), sort_keys=True, default=str) + "\n")
        return 1
    except OSError as exc:  # a missing or unreadable path, a directory
        sys.stderr.write(json.dumps({"error": "INPUT", "detail": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
