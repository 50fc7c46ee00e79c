"""Benchmark of saddlekit over three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--seed-set A|B]

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread.  After set-up (repeated, median reported) the
workload's fixed job list runs pass after pass until ``--seconds`` is
spent, with at least two passes.  Every job's output is checked and
hashed.  With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported instead of the end-to-end ones.

Times are reported in reference seconds (see ``SpeedProbe``).  Standard
output ends with a report line (environment, seeds, per-job seconds and
digests, failures by class, raw and calibrated times) and then the result
line ``{"correct", "attempted", "failed", "metrics"}``.  Both are also
written under ``perfbench/.work/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-enum", "l1-spanner", "monte-carlo")
MIN_PASSES = 2
SETUP_REPEATS = 3
TIME_CAP_S = 140  # a run must end within 180 s, set-up and the last pass included
PROBE_INTERVAL_S = 0.05
SETUP_PROBE_INTERVAL_S = 0.025  # set-up is short: sample it densely
# Mean time of one probe loop on a quiet 2-core x86_64 host (Python 3.11).
REFERENCE_S = 0.0040

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_job_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def _probe_loop():
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(i % 97, 13) * Fraction(5, i % 11 + 1)
        if s > 1000:
            s -= 1000


class SpeedProbe:
    """Samples the host's speed twenty times a second, in the one thread.

    The cores this benchmark runs on are shared, and their speed drifts by
    a fifth or more over seconds to minutes.  While the probe is on, a timer
    signal runs a fixed loop of Fraction arithmetic and records how long it
    took.  Job times have the loops' own time removed and are scaled by
    REFERENCE_S over the mean loop time during the job, so reported times
    follow the program's speed, not the host's load.  The loop uses no
    saddlekit code, so a change to the program cannot move it.
    """

    def __init__(self):
        self.samples = []  # seconds of each loop
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self, signum=None, frame=None):
        w0, c0 = time.perf_counter(), time.process_time()
        _probe_loop()
        wall = time.perf_counter() - w0
        self.samples.append(wall)
        self.spent_wall += wall
        self.spent_cpu += time.process_time() - c0

    @contextlib.contextmanager
    def on(self, interval=PROBE_INTERVAL_S):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def parse_args(argv):
    p = argparse.ArgumentParser(description="saddlekit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed-set", choices=("A", "B"), default="A")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload, tracer, probe):
    """Run every job once with the speed probe on; return per-job records
    and the parsed outputs."""
    import jobs

    gc.collect()
    outputs, records = {}, []
    first = len(probe.samples)
    with probe.on(), tracer.installed() if tracer else contextlib.nullcontext():
        for job in workload.jobs:
            mark = len(probe.samples)
            w0, c0 = time.perf_counter(), time.process_time()
            pw, pc = probe.spent_wall, probe.spent_cpu
            try:
                with tracer.job(job.name) if tracer else contextlib.nullcontext():
                    outcome = job.run(outputs)
            except Exception as exc:  # noqa: BLE001 - a failing job must not abort the run
                outcome, kinds = None, [jobs.failure_kind(exc)] * job.ops
            else:
                kinds = list(outcome.errors)
            wall = time.perf_counter() - w0 - (probe.spent_wall - pw)
            cpu = time.process_time() - c0 - (probe.spent_cpu - pc)
            if outcome is not None:
                outputs[job.name] = outcome.value
            text = outcome.canonical if outcome else "failed:" + kinds[0]
            records.append(dict(
                job=job, outcome=outcome, kinds=kinds, wall=wall, cpu=cpu,
                digest=_digest(text), mark=mark,
            ))
    # A job too short to be sampled takes the pass's mean speed.
    pass_mean = statistics.mean(probe.samples[first:] or [REFERENCE_S])
    for rec, nxt in zip(records, records[1:] + [None]):
        end = nxt["mark"] if nxt else len(probe.samples)
        taken = probe.samples[rec["mark"]:end] or [pass_mean]
        factor = REFERENCE_S / statistics.mean(taken)
        rec["ref_wall"], rec["ref_cpu"] = rec["wall"] * factor, rec["cpu"] * factor
    return records, outputs


def check_pass(records, outputs, reference):
    """Check each output once per run; later passes must repeat its digest."""
    problems = []
    for rec in records:
        job, outcome = rec["job"], rec["outcome"]
        ref = reference.get(job.name)
        if ref is not None and ref["digest"] == rec["digest"]:
            found = ref["problems"]
        else:
            found = []
            if ref is not None:
                found.append("output differs from the run's first pass")
            if outcome is not None:
                try:
                    found += job.check(outcome.value, outputs)
                except Exception as exc:  # noqa: BLE001 - a malformed output is a miss
                    found.append(f"check raised {type(exc).__name__}: {exc}")
            reference.setdefault(job.name, {"digest": rec["digest"], "problems": found})
        misses = min(len(found), job.ops - len(rec["kinds"]))
        rec["kinds"] = rec["kinds"] + ["check"] * misses
        problems += [f"{job.name}: {p}" for p in found]
    return problems


def environment() -> dict:
    import numpy
    from saddlekit import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name, seed, seconds, traced, seed_set="A", work=None, import_s=0.0, size="full",
                 probe=None):
    """Set up, measure and check one workload; returns (report, result).

    ``probe`` is the speed probe that was on while the package was imported.
    """
    import jobs
    import tracing

    t_begin = time.perf_counter()
    work = Path(work) if work is not None else HERE / ".work"
    work.mkdir(parents=True, exist_ok=True)
    seeds = jobs.input_seeds(seed, seed_set)
    sizes = jobs.SIZES[size]
    med = statistics.median

    probe = probe or SpeedProbe()
    setup_samples = []
    with probe.on(SETUP_PROBE_INTERVAL_S):
        for _ in range(SETUP_REPEATS):
            t0, spent = time.perf_counter(), probe.spent_wall
            workload = jobs.WORKLOADS[name](work, seeds, sizes)
            setup_samples.append(time.perf_counter() - t0 - (probe.spent_wall - spent))
    setup_s = import_s + med(setup_samples)
    setup_speed = REFERENCE_S / statistics.mean(probe.samples or [REFERENCE_S])

    tracer = tracing.Tracer() if traced else None
    reference, problems, passes = {}, [], []
    t_measure = time.perf_counter()
    while True:
        traced_pass = traced and len(passes) % 2 == 1
        records, outputs = run_pass(workload, tracer if traced_pass else None, probe)
        problems += check_pass(records, outputs, reference)
        kinds = Counter(k for r in records for k in r["kinds"])
        info = {
            "traced": traced_pass,
            "wall": sum(r["ref_wall"] for r in records),
            "cpu": sum(r["ref_cpu"] for r in records),
            "slowest": max(r["ref_wall"] for r in records),
            "raw_wall": sum(r["wall"] for r in records),
            "raw_cpu": sum(r["cpu"] for r in records),
            "attempted": sum(r["job"].ops for r in records),
            # Each job weighs the same, so a job that fails as a whole moves
            # ok_frac by 1/len(jobs) however many operations it counts.
            "ok_shares": [1.0 - len(r["kinds"]) / r["job"].ops for r in records],
            "kinds": kinds,
            "job_wall": {r["job"].name: r["wall"] for r in records},
        }
        if traced_pass:
            cli_bytes = sum(r["outcome"].cli_bytes for r in records if r["outcome"])
            info["layers"] = tracing.layer_metrics(tracer.take(), cli_bytes)
        passes.append(info)
        elapsed = time.perf_counter() - t_measure
        spent = time.perf_counter() - t_begin + import_s
        least = 2 if traced else 1  # a traced run needs one pass of each kind
        if len(passes) >= MIN_PASSES and elapsed + info["raw_wall"] > seconds:
            break
        if len(passes) >= least and spent + info["raw_wall"] > TIME_CAP_S:
            break

    attempted = sum(p["attempted"] for p in passes)
    kinds = Counter()
    for p in passes:
        kinds.update(p["kinds"])
    failed = sum(kinds.values())

    if traced:
        layer_passes = [p["layers"] for p in passes if p["traced"]]
        problems += [f"trace: {p}" for p in workload.expect(layer_passes[0])]
        values = {k: med(lp[k] for lp in layer_passes) for k in layer_passes[0]}
        values["trace.overhead_s"] = med(p["wall"] for p in passes if p["traced"]) - med(
            p["wall"] for p in passes if not p["traced"]
        )
        metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
        (work / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
            "columns": ["id", "parent", "name", "job", "start", "end", "err"],
            "rows": tracer.rows(),
        }))
    else:
        values = {
            "setup_s": setup_s * setup_speed,
            "wall_s": med(p["wall"] for p in passes),
            "cpu_s": med(p["cpu"] for p in passes),
            "slowest_job_s": med(p["slowest"] for p in passes),
            "ok_frac": statistics.mean(x for p in passes for x in p["ok_shares"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    report = {
        "workload": name,
        "seed": seed,
        "seed_set": seed_set,
        "input_seeds": seeds,
        "size": size,
        "trace": int(traced),
        "environment": environment(),
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "jobs": len(workload.jobs),
        "ops_per_pass": passes[0]["attempted"],
        "import_s": import_s,
        "setup_raw_s": setup_s,
        "setup_samples_s": setup_samples,
        "setup_speed": setup_speed,
        "probe_samples": len(probe.samples),
        "probe_mean_s": statistics.mean(probe.samples),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall"] for p in passes],
        "pass_raw_cpu_s": [p["raw_cpu"] for p in passes],
        "job_seconds": {j.name: med(p["job_wall"][j.name] for p in passes) for j in workload.jobs},
        "digests": {k: v["digest"] for k, v in reference.items()},
        "output_digest": _digest("".join(v["digest"] for v in reference.values())),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "job_ok_share": {
            j.name: statistics.mean(p["ok_shares"][i] for p in passes)
            for i, j in enumerate(workload.jobs)
        },
        "failures": dict(sorted(kinds.items())),
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (work / f"report-{stem}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    return report, result


def per_layer_units() -> dict:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "saddlekit" / "cli.py").is_file():
        print(f"perfbench: no saddlekit sources under {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    probe = SpeedProbe()
    with probe.on(SETUP_PROBE_INTERVAL_S):
        import numpy  # noqa: F401 - installed bytecode, read as usual
        # saddlekit and the benchmark's modules compile from source on every
        # run: bytecode is looked up under an empty directory and never
        # written, so import time does not depend on what ran before.
        sys.dont_write_bytecode = True
        sys.pycache_prefix = str(HERE / ".work" / "no-bytecode")
        import jobs  # noqa: F401 - imports saddlekit
    import_s = time.perf_counter() - T_START - probe.spent_wall
    report, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.seed_set,
        import_s=import_s, probe=probe,
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
