"""Self-test of the benchmark at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, traced, tmp_path):
    return run.run_workload(workload, 0, 0.01, traced, work=tmp_path, size="tiny")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_and_digests_match_under_tracing(workload, tmp_path):
    plain_report, plain = _tiny(workload, False, tmp_path)
    traced_report, traced = _tiny(workload, True, tmp_path)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], result
        assert result["attempted"] >= 1
        want = _units(section)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert plain["metrics"]["setup_s"]["value"] > 0
    assert plain_report["digests"] == traced_report["digests"]
    assert traced_report["traced_passes"] >= 1


def test_leaked_exception_is_counted_not_raised(tmp_path, monkeypatch):
    import saddlekit.chew
    import saddlekit.oracle

    def leak(*args, **kwargs):
        raise KeyError("not a SaddlekitError")

    monkeypatch.setattr(saddlekit.oracle, "torus_holonomy", leak)
    report, result = _tiny("exact-enum", False, tmp_path)
    assert report["failures"] == {"leaked.KeyError": report["passes"]}
    assert result["failed"] == report["passes"]

    monkeypatch.setattr(saddlekit.chew, "chew_path", leak)
    report, result = _tiny("l1-spanner", False, tmp_path)
    import jobs

    workload = jobs.WORKLOADS["l1-spanner"](tmp_path, jobs.input_seeds(0, "A"), jobs.SIZES["tiny"])
    walks = sum(j.ops for j in workload.jobs if j.name.startswith("chew-"))
    assert report["failures"].get("leaked.KeyError") == walks * report["passes"]


def test_job_failing_as_a_whole_moves_ok_frac(tmp_path, monkeypatch):
    import saddlekit.cli
    import saddlekit.errors
    import saddlekit.mc

    def reject(*args, **kwargs):
        raise saddlekit.errors.AcceptanceRateError("rejected every candidate")

    monkeypatch.setattr(saddlekit.mc, "sample_stratum_local", reject)
    report, result = _tiny("monte-carlo", False, tmp_path)
    assert report["failures"] == {"AcceptanceRateError": report["passes"]}
    assert report["job_ok_share"]["mc-stratum"] == 0
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / report["jobs"])

    delaunay = saddlekit.cli.cmd_delaunay

    def roct_leaks(args):
        if args.surface.endswith("roct.json"):
            raise KeyError("not a SaddlekitError")
        return delaunay(args)

    monkeypatch.setattr(saddlekit.cli, "cmd_delaunay", roct_leaks)
    plain_report, plain = _tiny("l1-spanner", False, tmp_path / "plain")
    monkeypatch.setattr(saddlekit.cli, "cmd_delaunay", delaunay)
    report, result = _tiny("l1-spanner", False, tmp_path)
    assert plain_report["job_ok_share"]["delaunay-roct"] == 0
    drop = result["metrics"]["ok_frac"]["value"] - plain["metrics"]["ok_frac"]["value"]
    assert drop == pytest.approx(1 / report["jobs"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "exact-enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
