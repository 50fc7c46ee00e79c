"""The three workloads: set-up, the fixed job list of one pass, and checks.

A job calls one real entry point: ``saddlekit.cli.main(argv)`` in-process
with its output captured, or a library call that has no CLI command
(``prepare_planar``, ``planar_chew``, ``chew_path``, the sector Haar mean,
``rotational_average_AR``).  Library functions are looked up on their
module at call time so the tracer's wrappers see every call.

Each job returns an ``Outcome``: the canonical text that is hashed, the
parsed value its check and later jobs read, and the failure kind of each
sub-operation (walk) that failed.  Why each workload exists, and what is
left out, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List

import numpy as np

from saddlekit import builders, chew, cli, delaunay, geodesic, mc, sv
from saddlekit.errors import SaddlekitError
from saddlekit.exactplane import ExactMatrix, ExactVector

import checks

SLIT = (Fraction(1, 3), Fraction(1, 5))
SECTOR = {"variant": "sector", "theta": 0.0, "half_angle": math.pi / 4}
HAAR_SECTOR = (0.3, 0.4)  # direction and half-angle of the Haar sector job

# Sizes of every input.  "tiny" exists for the self-test only.
SIZES = {
    "full": dict(
        square_r=20, slit_r=8, octagon_r=12, roct_r=6, sector_r=8, thin=32,
        torus_r=20, ar_stretch=8,
        planar_points=40, planar_pairs=60,
        chew_square_r=4, chew_slit_r=Fraction(5, 2), chew_octagon_r=6,
        haar_samples=20000, haar_r=20, sector_samples=20000, haar_sector_r=8,
        var_samples=10000, var_r=10, bc_samples=2000, bc_radii=(4, 8, 16),
        stratum_samples=200,
    ),
    "tiny": dict(
        square_r=4, slit_r=2, octagon_r=3, roct_r=2, sector_r=2, thin=4,
        torus_r=4, ar_stretch=2,
        planar_points=6, planar_pairs=4,
        chew_square_r=2, chew_slit_r=1, chew_octagon_r=2,
        haar_samples=200, haar_r=4, sector_samples=200, haar_sector_r=3,
        var_samples=100, var_r=3, bc_samples=100, bc_radii=(2, 4, 6),
        stratum_samples=10,
    ),
}

# Base seeds of the generated inputs.  A run's seed n moves every input
# seed by 1000 n, so seed 0 of set "A" reproduces the reference inputs
# (Haar seed 11, stratum seed 7); set "B" is disjoint from "A", for
# checking a claim on seeds it was not tuned on.
SEED_SETS = {
    "A": {"planar_pairs": 5, "haar": 11, "stratum": 7},
    "B": {"planar_pairs": 105, "haar": 111, "stratum": 107},
}
PLANAR_POINTS_SEED = 3  # the 40-point planar set is part of the fixed corpus


def input_seeds(seed: int, seed_set: str) -> dict:
    return {k: base + 1000 * seed for k, base in SEED_SETS[seed_set].items()}


class CliFailure(Exception):
    """The CLI exited nonzero; ``kind`` names the error class it reported."""

    def __init__(self, kind: str, text: str):
        super().__init__(text)
        self.kind = kind


class SkippedJob(Exception):
    """A job whose input, made by an earlier job of the pass, is missing."""


def _error_kinds() -> dict:
    import saddlekit.errors as errors

    return {
        cls.code: name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, SaddlekitError)
    }


_KINDS = _error_kinds()


def failure_kind(exc: BaseException) -> str:
    """Class of a failure: a SaddlekitError subclass name, or
    ``leaked.<Class>`` for any other exception escaping a public call."""
    if isinstance(exc, CliFailure):
        return exc.kind
    if isinstance(exc, SkippedJob):
        return "skipped"
    if isinstance(exc, SaddlekitError):
        return type(exc).__name__
    return "leaked." + type(exc).__name__


@dataclass
class Outcome:
    canonical: str
    value: Any
    errors: List[str] = field(default_factory=list)
    cli_bytes: int = 0


@dataclass
class Job:
    name: str
    ops: int  # operations: 1 for a job that can only fail as a whole, else one per walk
    run: Callable[[dict], Outcome]
    check: Callable[[Any, dict], List[str]] = lambda value, outputs: []


@dataclass
class Workload:
    jobs: List[Job]
    expect: Callable[[dict], List[str]]  # expected per-layer counts of a traced pass


def _cli(argv) -> Callable[[dict], Outcome]:
    def run(outputs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            try:
                kind = _KINDS.get(json.loads(err.getvalue())["error"], "other")
            except (ValueError, KeyError, TypeError):
                kind = "other"
            raise CliFailure(kind, err.getvalue())
        text = out.getvalue()
        return Outcome(text, json.loads(text), cli_bytes=len(text.encode()))

    return run


def _walks(calls, holonomies, edge_vector) -> Outcome:
    """Run each walk; a failed walk is recorded, never raised."""
    rows, errors, paths = [], [], []
    for call in calls:
        try:
            path = call()
        except Exception as exc:  # noqa: BLE001 - every failure is classified
            kind = failure_kind(exc)
            errors.append(kind)
            rows.append({"error": kind})
            paths.append(None)
        else:
            rows.append(path.to_json_dict())
            paths.append(path)
    value = {"paths": paths, "holonomies": holonomies, "edge_vector": edge_vector}
    return Outcome(json.dumps(rows, sort_keys=True), value, errors)


def _walk_check(value, outputs):
    problems = []
    for i, (path, h) in enumerate(zip(value["paths"], value["holonomies"])):
        if path is not None:
            problems += checks.chew_path_problems(path, h, value["edge_vector"], f"walk {i}")
    return problems


def _write(work: Path, name: str, surface) -> str:
    path = work / f"{name}.json"
    path.write_text(surface.to_json())
    return str(path)


def _vectors(data, key="vectors"):
    return [checks.frac_pair(v) for v in data[key]]


# --- exact-enum ------------------------------------------------------------------


def exact_enum(work: Path, seeds: dict, z: dict) -> Workload:
    f = {
        "square": _write(work, "square", builders.square_torus()),
        "slit": _write(work, "slit", builders.slit_torus(ExactVector(*SLIT))),
        "octagon": _write(work, "octagon", builders.octagon_h2()),
        "roct": _write(work, "roct", builders.regular_octagon_approx()),
        "thin": _write(
            work, "thin",
            builders.torus_from_matrix(ExactMatrix.diagonal(Fraction(1, z["thin"]), z["thin"])),
        ),
    }
    sector = json.dumps(dict(SECTOR, r=str(z["sector_r"])))
    octagon = builders.octagon_h2()
    slit = ",".join(str(x) for x in SLIT)

    def check_square(v, outputs):
        want = checks.brute_primitive_count(1, 0, 0, 1, z["square_r"])
        return [] if v["count"] == want else [f"square count {v['count']} != brute {want}"]

    def check_slit_count(v, outputs):
        return [] if v["count"] % 2 == 0 else ["slit count is odd"]

    def check_enumerate(v, outputs):
        hs = [checks.frac_pair(c["holonomy"]) for c in v["connections"]]
        r2 = z["octagon_r"] ** 2
        out = checks.negation_closed(hs, "octagon holonomy")
        if any(x * x + y * y > r2 for x, y in hs):
            out.append("octagon connection longer than the radius")
        if v["n_vectors"] != len(set(hs)):
            out.append("n_vectors is not the number of distinct holonomies")
        return out

    def octagon_vectors(outputs, radius):
        ref = outputs.get("enumerate-octagon")
        if ref is None:
            return None
        hs = {checks.frac_pair(c["holonomy"]) for c in ref["connections"]}
        return [h for h in hs if h[0] ** 2 + h[1] ** 2 <= radius ** 2]

    def check_transform(v, outputs):
        vs = octagon_vectors(outputs, z["sector_r"])
        if vs is None:
            return []
        states = [checks.sector_state(h, SECTOR["theta"], SECTOR["half_angle"], 1e-6) for h in vs]
        inside = sum(1 for s in states if s == 1)
        maybe = sum(1 for s in states if s is None)
        out = []
        if v["n_vectors"] != len(vs):
            out.append(f"transform saw {v['n_vectors']} vectors, enumerate {len(vs)}")
        if not (v["value"] + v["ambiguous"] >= inside and v["value"] <= inside + maybe):
            out.append(f"sector value {v['value']} (+{v['ambiguous']} ambiguous) vs {inside}..{inside + maybe}")
        return out

    def check_classify(v, outputs):
        n = z["thin"]
        want = {
            "label": "Omega2",
            "shortest_length_sq": str(Fraction(1, n * n)),
            "second_length_sq": str(Fraction(n * n)),
            "cylinder": {"width_sq": str(Fraction(1, n * n)), "height_sq": str(Fraction(n * n))},
        }
        got = {k: v.get(k) for k in want}
        return [] if got == want else [f"thin torus classified {got}, expected {want}"]

    def check_torus_exact(v, outputs):
        vs = _vectors(v)
        want = checks.brute_primitive_count(2, 1, 1, 1, z["torus_r"])
        out = checks.negation_closed(vs, "torus-exact")
        if v["n_vectors"] != want or len(set(vs)) != want:
            out.append(f"torus-exact found {v['n_vectors']}, brute {want}")
        return out

    def check_slit_exact(v, outputs):
        vs = _vectors(v)
        out = checks.negation_closed(vs, "slit-exact")
        count = outputs.get("count-slit")
        if count is not None and count["count"] != v["n_vectors"]:
            out.append(f"slit oracle has {v['n_vectors']} vectors, enumeration {count['count']}")
        return out

    def run_ar(outputs):
        rep = sv.rotational_average_AR(octagon, sv.DiscIndicator(Fraction(1)), float(z["ar_stretch"]))
        data = {"value": rep.value, "ambiguous_fraction": rep.ambiguous_fraction,
                "quadrature_n": rep.quadrature_n}
        return Outcome(json.dumps(data, sort_keys=True), data)

    def check_ar(v, outputs):
        R = float(z["ar_stretch"])
        vs = octagon_vectors(outputs, z["ar_stretch"])
        if vs is None:
            return []
        n = v["quadrature_n"]
        xs = np.array([float(x) for x, _ in vs])
        ys = np.array([float(y) for _, y in vs])
        th = 2 * math.pi * np.arange(n)[:, None] / n
        ix = R * (np.cos(th) * xs - np.sin(th) * ys)
        iy = (np.sin(th) * xs + np.cos(th) * ys) / R
        r2 = ix * ix + iy * iy
        inside = int((r2 < 1 - 1e-6).sum())
        maybe = int((abs(r2 - 1) <= 1e-6).sum())
        total = v["value"] * n
        amb = v["ambiguous_fraction"] * n * len(vs)
        if v["ambiguous_fraction"] > 0.01 or not (total + amb >= inside - 1e-6 and total <= inside + maybe + 1e-6):
            return [f"A_R {v['value']} (ambiguous {v['ambiguous_fraction']}) vs {inside / n}..{(inside + maybe) / n}"]
        return []

    jobs = [
        Job("count-square", 1, _cli(["count", "--surface", f["square"], "--radius", z["square_r"]]), check_square),
        Job("count-slit", 1, _cli(["count", "--surface", f["slit"], "--radius", z["slit_r"]]), check_slit_count),
        Job("enumerate-octagon", 1, _cli(["enumerate", "--surface", f["octagon"], "--radius", z["octagon_r"]]), check_enumerate),
        Job("count-regular-octagon", 1, _cli(["count", "--surface", f["roct"], "--radius", z["roct_r"]]),
            lambda v, o: [] if v["count"] > 0 and v["count"] % 2 == 0 else [f"regular octagon count {v['count']}"]),
        Job("transform-octagon-sector", 1, _cli(["transform", "--surface", f["octagon"], "--fn", sector]), check_transform),
        Job("classify-thin-torus", 1, _cli(["classify", "--surface", f["thin"], "--eps0", "1/2", "--p", "1/2"]), check_classify),
        Job("torus-exact", 1, _cli(["torus-exact", "--matrix", "2,1,1,1", "--radius", z["torus_r"]]), check_torus_exact),
        Job("slit-exact", 1, _cli(["slit-exact", "--matrix", "1,0,0,1", "--slit", slit, "--radius", z["slit_r"]]), check_slit_exact),
        Job("ar-octagon-disc", 1, run_ar, check_ar),
    ]

    def expect(m):
        out = []
        if m["geodesic.enumerate.calls"] == 0 or m["homology.init.calls"] == 0:
            out.append("exact-enum traced no enumeration")
        for key in ("delaunay.diamond_of.calls", "kernels.count.calls", "chew.walks"):
            if m[key] != 0:
                out.append(f"exact-enum: {key} = {m[key]}, expected 0")
        return out

    return Workload(jobs, expect)


# --- l1-spanner ------------------------------------------------------------------


def planar_points(n: int) -> list:
    """n distinct points (x/16, y/16), x and y drawn from [0, 400] with
    the corpus seed."""
    rng = random.Random(PLANAR_POINTS_SEED)
    seen, pts = set(), []
    while len(pts) < n:
        p = (rng.randint(0, 400), rng.randint(0, 400))
        if p not in seen:
            seen.add(p)
            pts.append(ExactVector(Fraction(p[0], 16), Fraction(p[1], 16)))
    return pts


def l1_spanner(work: Path, seeds: dict, z: dict) -> Workload:
    f = {
        "octagon": _write(work, "octagon", builders.octagon_h2()),
        "roct": _write(work, "roct", builders.regular_octagon_approx()),
        "slit": _write(work, "slit", builders.slit_torus(ExactVector(*SLIT))),
    }
    pts = planar_points(z["planar_points"])
    rng = np.random.default_rng(seeds["planar_pairs"])
    pairs = [tuple(int(i) for i in rng.choice(len(pts), size=2, replace=False))
             for _ in range(z["planar_pairs"])]
    surfaces = {
        "square": (builders.square_torus(), z["chew_square_r"]),
        "slit": (builders.slit_torus(ExactVector(*SLIT)), z["chew_slit_r"]),
        "octagon": (builders.octagon_h2(), z["chew_octagon_r"]),
    }
    # Enumeration is set-up here, so the timed walks measure Delaunay and Chew only.
    conns = {k: geodesic.enumerate_connections(s, r).connections for k, (s, r) in surfaces.items()}

    def run_prepare(outputs):
        ctx = chew.prepare_planar(pts)
        return Outcome(ctx["dt"].to_json(), ctx)

    def check_prepare(ctx, outputs):
        # delaunay_l1 verifies every slot itself; re-running that on the
        # 240 slots here would cost more than the job.
        return checks.delaunay_problems(ctx["dt"].to_json_dict(), None, "planar Delaunay")

    def run_planar(outputs):
        ctx = outputs.get("prepare-planar")
        if ctx is None:
            raise SkippedJob("prepare-planar produced no triangulation")
        s = ctx["dt"].surface
        calls = [lambda a=a, b=b: chew.planar_chew(pts, a, b, prepared=ctx) for a, b in pairs]
        hs = [(pts[b].x - pts[a].x, pts[b].y - pts[a].y) for a, b in pairs]
        return _walks(calls, hs, lambda slot: (s.edge_vector(slot).x, s.edge_vector(slot).y))

    def delaunay_job(name):
        return Job(
            f"delaunay-{name}", 1, _cli(["delaunay", "--surface", f[name]]),
            lambda v, o: checks.delaunay_problems(v, delaunay.is_locally_delaunay, f"{name} Delaunay"),
        )

    def chew_job(name):
        s = surfaces[name][0]
        cs = conns[name]

        def run(outputs):
            dt = delaunay.delaunay_l1(s)
            calls = [lambda c=c: chew.chew_path(dt, c) for c in cs]
            hs = [(c.holonomy.x, c.holonomy.y) for c in cs]
            e = dt.surface.edge_vector
            return _walks(calls, hs, lambda slot: (e(slot).x, e(slot).y))

        return Job(f"chew-{name}", len(cs), run, _walk_check)

    jobs = [
        Job("prepare-planar", 1, run_prepare, check_prepare),
        Job("planar-walks", len(pairs), run_planar, _walk_check),
        delaunay_job("octagon"),
        delaunay_job("roct"),
        delaunay_job("slit"),
        chew_job("square"),
        chew_job("slit"),
        chew_job("octagon"),
    ]
    n_walks = len(pairs) + sum(len(c) for c in conns.values())

    def expect(m):
        out = []
        if m["delaunay.diamond_of.calls"] == 0:
            out.append("l1-spanner traced no diamond_of call")
        if m["chew.walks"] != n_walks:
            out.append(f"l1-spanner traced {m['chew.walks']} walks, ran {n_walks}")
        if m["kernels.count.calls"] != 0:
            out.append("l1-spanner called the lattice kernel")
        return out

    return Workload(jobs, expect)


# --- monte-carlo ------------------------------------------------------------------


def monte_carlo(work: Path, seeds: dict, z: dict) -> Workload:
    octagon = _write(work, "octagon", builders.octagon_h2())
    haar, stratum = seeds["haar"], seeds["stratum"]
    radii = ",".join(str(r) for r in z["bc_radii"])
    errors = ",".join(str(2 * r) for r in z["bc_radii"])
    theta, half = HAAR_SECTOR

    def haar_mean(r):
        return 6 * r * r / math.pi  # c_sv pi R^2 with c_sv = 1/zeta(2)

    def check_disc(v, outputs):
        out = checks.haar_mean_problems(v, haar_mean(z["haar_r"]), "Haar disc mean")
        return out + ([] if v["n_samples"] == z["haar_samples"] else ["wrong sample count"])

    def run_sector(outputs):
        samples = mc.sample_torus_haar(z["sector_samples"], haar)
        f = sv.SectorIndicator(Fraction(z["haar_sector_r"]), theta, half)
        rep = mc.estimate_mean_transform(samples, f, threads=1).to_json_dict()
        return Outcome(json.dumps(rep, sort_keys=True), rep)

    def check_sector(v, outputs):
        return checks.haar_mean_problems(
            v, half / math.pi * haar_mean(z["haar_sector_r"]), "Haar sector mean"
        )

    def check_variance(v, outputs):
        rep = v["count_report"]
        c = 6 / math.pi ** 2
        out = []
        if abs(v["c_sv"] - c) > 1e-9 * c:
            out.append(f"c_sv {v['c_sv']} != 6/pi^2")
        if rep["second_moment"] < rep["mean"] ** 2 * (1 - 1e-12) or rep["n_samples"] != z["var_samples"]:
            out.append("second moment below the squared mean")
        excess = rep["second_moment"] - (v["c_sv"] * math.pi * z["var_r"] ** 2) ** 2
        if abs(v["variance_hat"] - excess) > 1e-9 * abs(rep["second_moment"]):
            out.append("variance_hat is not L2 minus the squared mean")
        return out

    def check_bc(v, outputs):
        rows = v["rows"]
        if [r["radius"] for r in rows] != [float(r) for r in z["bc_radii"]]:
            return ["bc-table radii differ from the request"]
        out, partial = [], 0.0
        for r in rows:
            partial += r["ratio"]
            if not 0 <= r["empirical_exceedance"] <= 1 or abs(r["partial_sum"] - partial) > 1e-9 * max(1, abs(partial)):
                out.append(f"bc-table row at radius {r['radius']} inconsistent")
        return out

    def check_stratum(v, outputs):
        acc = v["n_samples"] / v["attempts"]
        out = [] if acc >= 0.10 else [f"stratum acceptance {acc} below 0.10"]
        return out + ([] if v["n_samples"] == z["stratum_samples"] and v["mean"] >= 0 else ["stratum report malformed"])

    n = z["haar_samples"]
    jobs = [
        Job("mc-torus-disc", 1, _cli(["mc-torus", "--samples", n, "--seed", haar, "--radius", z["haar_r"], "--threads", 1]), check_disc),
        Job("mc-torus-sector", 1, run_sector, check_sector),
        Job("variance", 1, _cli(["variance", "--samples", z["var_samples"], "--seed", haar, "--radius", z["var_r"], "--threads", 1]), check_variance),
        Job("bc-table", 1, _cli(["bc-table", "--samples", z["bc_samples"], "--seed", haar, "--radii", radii, "--errors", errors, "--threads", 1]), check_bc),
        Job("mc-stratum", 1, _cli(["mc-stratum", "--surface", octagon, "--samples", z["stratum_samples"], "--seed", stratum, "--radius", "1/2", "--threads", 1]), check_stratum),
    ]
    kernel_calls = n + z["var_samples"] + z["bc_samples"] * len(z["bc_radii"])

    def expect(m):
        out = []
        if m["kernels.count.calls"] != kernel_calls:
            out.append(f"kernel calls {m['kernels.count.calls']} != samples x radii {kernel_calls}")
        if m["mc.stratum.accepted"] != z["stratum_samples"]:
            out.append("stratum sampler accepted a different sample count")
        for key in ("delaunay.diamond_of.calls", "chew.walks"):
            if m[key] != 0:
                out.append(f"monte-carlo: {key} = {m[key]}, expected 0")
        return out

    return Workload(jobs, expect)


WORKLOADS = {"exact-enum": exact_enum, "l1-spanner": l1_spanner, "monte-carlo": monte_carlo}
