import hashlib
import json
import math
import threading
from fractions import Fraction

import pytest

from saddlekit import chew, cli, geodesic, mc, sv
from saddlekit.builders import octagon_h2, regular_octagon_approx, slit_torus, square_torus
from saddlekit.delaunay import delaunay_l1
from saddlekit.errors import ResourceLimitError
from saddlekit.exactplane import ExactMatrix, ExactVector
from saddlekit.geodesic import _strip, enumerate_connections
from saddlekit.surface import apply_surface


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def bad_gluing_file(tmp_path, torus):
    data = torus.to_json_dict()
    data["gluings"][0] = [0, 0]
    path = tmp_path / "bad_gluing.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def loose_json_files(tmp_path, torus):
    """The square torus with a JSON boolean or a fractional number where the
    schema wants a rational or a slot index; each was once read as the torus."""
    paths = {}
    for case in ("boolean coordinate", "fractional slot", "boolean slot"):
        data = torus.to_json_dict()
        if case == "boolean coordinate":
            data["triangles"][0]["edges"][0] = [True, "0"]
        elif case == "fractional slot":
            data["gluings"][0] = [[0, 0.9], [1, 1.5]]
        else:
            data["gluings"][0] = [[False, False], [True, True]]
        path = tmp_path / (case.replace(" ", "_") + ".json")
        path.write_text(json.dumps(data))
        paths[case] = str(path)
    return paths


@pytest.fixture()
def empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    return str(path)


@pytest.mark.parametrize(
    "case",
    [
        "empty surface",
        "bad gluing",
        "radius nan",
        "fn without field",
        "budget env",
        "matrix entries",
        "slit entries",
        "empty bc sample",
        "negative seed",
        "negative stratum seed",
        "variance radius",
        "surface directory",
        "fn directory",
        "no torus samples",
        "no variance samples",
        "no tail samples",
        "no stratum samples",
        "negative stratum samples",
        "budget zero",
        "budget negative",
        "budget env negative",
        "classify p",
        "classify eps0",
        "mc-torus radius overflow",
        "variance radius overflow",
        "bc radii overflow",
        "bc errors overflow",
        "tails fn overflow",
        "boolean radius",
        "boolean coordinate",
        "fractional slot",
        "boolean slot",
        "boolean theta",
        "infinite theta",
        "nan theta",
        "string half_angle",
    ],
)
def test_malformed_input_exits_1_with_input_code(
    case, capsys, monkeypatch, tmp_path, torus_file, empty_file, bad_gluing_file, loose_json_files
):
    argv = {
        "empty surface": ["count", "--surface", empty_file, "--radius", "2"],
        "bad gluing": ["count", "--surface", bad_gluing_file, "--radius", "2"],
        "radius nan": ["count", "--surface", torus_file, "--radius", "nan"],
        "fn without field": ["transform", "--surface", torus_file, "--fn", '{"variant":"disc"}'],
        "budget env": ["count", "--surface", torus_file, "--radius", "2"],
        "matrix entries": ["torus-exact", "--radius", "2", "--matrix", "1,0,0"],
        "slit entries": ["slit-exact", "--radius", "2", "--matrix", "1,0,0,1", "--slit", "1"],
        "empty bc sample": ["bc-table", "--samples", "0", "--seed", "1", "--radii", "4", "--errors", "8"],
        "negative seed": ["mc-torus", "--samples", "5", "--seed", "-1", "--radius", "4"],
        "negative stratum seed": ["mc-stratum", "--surface", torus_file, "--samples", "2", "--seed", "-1"],
        "variance radius": ["variance", "--samples", "5", "--seed", "1", "--radius", "abc"],
        "surface directory": ["count", "--surface", str(tmp_path), "--radius", "2"],
        "fn directory": ["transform", "--surface", torus_file, "--fn", str(tmp_path)],
        "no torus samples": ["mc-torus", "--samples", "0", "--seed", "1", "--radius", "4"],
        "no variance samples": ["variance", "--samples", "0", "--seed", "1", "--radius", "4"],
        "no tail samples": ["tails", "--samples", "0", "--seed", "1"],
        "no stratum samples": ["mc-stratum", "--surface", torus_file, "--samples", "0", "--seed", "1"],
        "negative stratum samples": ["mc-stratum", "--surface", torus_file, "--samples", "-2", "--seed", "1"],
        "budget zero": ["count", "--surface", torus_file, "--radius", "2"],
        "budget negative": ["mc-torus", "--samples", "5", "--seed", "1", "--radius", "4"],
        "budget env negative": ["count", "--surface", torus_file, "--radius", "2"],
        "classify p": ["classify", "--surface", torus_file, "--eps0", "1/2", "--p", "3/2"],
        "classify eps0": ["classify", "--surface", torus_file, "--eps0", "0", "--p", "1/2"],
        "mc-torus radius overflow": ["mc-torus", "--samples", "5", "--seed", "1", "--radius", "1e400"],
        "variance radius overflow": ["variance", "--samples", "5", "--seed", "1", "--radius", "1e400"],
        "bc radii overflow": ["bc-table", "--samples", "5", "--seed", "1", "--radii", "1e400", "--errors", "8"],
        "bc errors overflow": ["bc-table", "--samples", "5", "--seed", "1", "--radii", "4", "--errors", "1e400"],
        "tails fn overflow": ["tails", "--samples", "5", "--seed", "1", "--fn", '{"variant":"disc","r":"1e400"}'],
        "boolean radius": ["transform", "--surface", torus_file, "--fn", '{"variant":"disc","r":true}'],
        "boolean coordinate": ["count", "--surface", loose_json_files["boolean coordinate"], "--radius", "2"],
        "fractional slot": ["count", "--surface", loose_json_files["fractional slot"], "--radius", "2"],
        "boolean slot": ["count", "--surface", loose_json_files["boolean slot"], "--radius", "2"],
        "boolean theta": ["transform", "--surface", torus_file, "--fn", '{"variant":"sector","r":"3","theta":true,"half_angle":0.5}'],
        "infinite theta": ["transform", "--surface", torus_file, "--fn", '{"variant":"sector","r":"3","theta":1e400,"half_angle":0.5}'],
        "nan theta": ["transform", "--surface", torus_file, "--fn", '{"variant":"sector","r":"3","theta":NaN,"half_angle":0.5}'],
        "string half_angle": ["transform", "--surface", torus_file, "--fn", '{"variant":"sector","r":"3","theta":0.3,"half_angle":"0.5"}'],
    }[case]
    env = {"budget env": "abc", "budget zero": "0", "budget negative": "-5", "budget env negative": "-5"}
    if case in env:
        monkeypatch.setenv("SADDLEKIT_BUDGET", env[case])
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "INPUT"


@pytest.mark.parametrize("path", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["--surface", "--fn"])
def test_a_path_that_cannot_be_read_writes_the_sorted_input_payload(flag, path, capsys, tmp_path, torus_file):
    # A missing --fn path is read as inline JSON and refused as such; the
    # other three cases fail to open the file.
    bad = str(tmp_path / "missing.json") if path == "missing" else str(tmp_path)
    argv = ["transform", "--surface", torus_file, "--fn", '{"variant": "disc", "r": "2"}']
    argv[argv.index(flag) + 1] = bad
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "INPUT"
    assert err == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["validate", "mc-stratum"])
def test_disconnected_surface_exits_1(command, capsys, tmp_path, two_tori):
    path = tmp_path / "two_tori.json"
    path.write_text(two_tori.to_json())
    argv = {
        "validate": ["validate", "--surface", str(path)],
        "mc-stratum": ["mc-stratum", "--surface", str(path), "--samples", "2", "--seed", "1"],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "DISCONNECTED"


def test_count_on_torus_file(capsys, torus_file):
    code, out, err = run(capsys, ["count", "--surface", torus_file, "--radius", "2"])
    assert code == 0 and err == ""
    # Primitive vectors of Z^2 of length <= 2: (+-1, 0), (0, +-1), (+-1, +-1).
    assert json.loads(out) == {"count": 8, "radius": "2"}


def _same_output_across_runs_and_threads(capsys, argv):
    """The output of argv under --threads 1, 1 and 2, checked identical."""
    outputs = []
    for threads in ("1", "1", "2"):
        code, out, err = run(capsys, argv + ["--threads", threads])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    return json.loads(outputs[0])


def test_mc_torus_is_deterministic_across_runs_and_threads(capsys):
    argv = ["mc-torus", "--samples", "40", "--radius", "3", "--seed", "5"]
    assert _same_output_across_runs_and_threads(capsys, argv)["n_samples"] == 40


def test_mc_stratum_is_deterministic_across_runs_and_threads(capsys, tmp_path, octagon):
    # The thread pool over stratum surfaces is the one code path a thread
    # count changes.
    path = tmp_path / "octagon.json"
    path.write_text(octagon.to_json())
    argv = ["mc-stratum", "--surface", str(path), "--samples", "40", "--seed", "7"]
    assert _same_output_across_runs_and_threads(capsys, argv)["n_samples"] == 40


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["mc-torus", "mc-stratum"])
def test_threads_below_one_is_an_input_error(command, threads, capsys, monkeypatch, torus_file):
    def no_threads(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    argv = {
        "mc-torus": ["mc-torus", "--samples", "8", "--seed", "1", "--radius", "3"],
        "mc-stratum": ["mc-stratum", "--surface", torus_file, "--samples", "8", "--seed", "1"],
    }[command]
    code, out, err = run(capsys, argv + ["--threads", threads])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "INPUT"


def test_mc_stratum_reads_budget(capsys, monkeypatch, torus_file):
    # One sample is within a budget of 1; its enumeration is not.
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1")
    argv = ["mc-stratum", "--surface", torus_file, "--samples", "1", "--seed", "7", "--radius", "2"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["states"]) == ("RESOURCE_LIMIT", 1)


@pytest.mark.parametrize("command", ["mc-torus", "mc-stratum", "variance", "tails", "bc-table"])
def test_sample_counts_over_the_budget_are_refused(command, capsys, torus_file):
    n = "10000000000000"
    argv = {
        "mc-torus": ["mc-torus", "--samples", n, "--seed", "1", "--radius", "2"],
        "mc-stratum": ["mc-stratum", "--surface", torus_file, "--samples", n, "--seed", "1"],
        "variance": ["variance", "--samples", n, "--seed", "1", "--radius", "2"],
        "tails": ["tails", "--samples", n, "--seed", "1"],
        "bc-table": ["bc-table", "--samples", n, "--seed", "1", "--radii", "4", "--errors", "8"],
    }[command]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["samples"], payload["budget"]) == ("RESOURCE_LIMIT", 10**13, 500_000)


def test_tails_kmax_over_the_budget_is_refused(capsys, monkeypatch):
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1000")
    argv = ["tails", "--samples", "10", "--seed", "1", "--kmax"]
    code, out, err = run(capsys, argv + ["1001"])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["k_max"], payload["budget"]) == ("RESOURCE_LIMIT", 1001, 1000)
    code, out, err = run(capsys, argv + ["1000"])
    assert code == 0 and len(json.loads(out)["thresholds"]) == 1000


def test_classify_a_pushed_draw_without_its_cylinder(capsys, tmp_path):
    # The shortest connection's cylinder is longer than the trace bound
    # 64 eps0 + 64 = 96, which the detail names instead.
    draw = mc.sample_stratum_local(octagon_h2(), "0.05", 30, seed=7).surfaces[0]
    path = tmp_path / "pushed.json"
    path.write_text(apply_surface(ExactMatrix.diagonal(Fraction(1, 4), 4), draw).to_json())
    code, out, _ = run(capsys, ["classify", "--surface", str(path), "--eps0", "1/2", "--p", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "Omega2"
    assert "cylinder" not in payload
    assert "circumference above 96" in payload["detail"]


def test_mc_torus_huge_radius_is_a_resource_limit(capsys):
    argv = ["mc-torus", "--samples", "5", "--seed", "1", "--radius", "1e300"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "RESOURCE_LIMIT"


@pytest.mark.parametrize("argv, key, work", [
    (["torus-exact", "--matrix", "1,0,0,1", "--radius", "1e400"], "rows", 2 * 10 ** 400 + 1),
    (["slit-exact", "--matrix", "1,0,0,1", "--slit", "1/3,1/5", "--radius", "400"], "points", 502625),
], ids=["torus-rows", "slit-points"])
def test_exact_oracles_refuse_a_disc_beyond_the_budget(capsys, argv, key, work):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "RESOURCE_LIMIT"
    assert (payload[key], payload["budget"]) == (work, 500_000)


def test_exact_oracle_box_reads_the_budget_variable(capsys, monkeypatch):
    # The identity disc of radius 20 has 1257 lattice points in 41 rows.
    argv = ["torus-exact", "--matrix", "1,0,0,1", "--radius", "20"]
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1257")
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["n_vectors"] == 768
    monkeypatch.setenv("SADDLEKIT_BUDGET", "1256")
    code, _, err = run(capsys, argv)
    assert code == 1 and json.loads(err)["points"] == 1257


def test_the_slit_oracle_walks_its_three_cosets_within_one_budget(capsys, monkeypatch):
    # The lattice and the cosets +-(1/3, 1/5) each meet the disc of radius
    # 20 in 1257 points: 3771 in all.
    argv = ["slit-exact", "--matrix", "1,0,0,1", "--slit", "1/3,1/5", "--radius", "20"]
    monkeypatch.setenv("SADDLEKIT_BUDGET", "3771")
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["n_vectors"] == 3196
    monkeypatch.setenv("SADDLEKIT_BUDGET", "3770")
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["points"], payload["budget"]) == ("RESOURCE_LIMIT", 3771, 3770)


def test_exact_oracle_walks_a_skewed_lattice_within_the_budget(capsys):
    # Its (2B+1)^2 box would have 644809 cells; the walk visits 801 points.
    code, out, _ = run(capsys, ["torus-exact", "--matrix", "100,0,0,1/100", "--radius", "4"])
    assert code == 0
    assert json.loads(out) == {"n_vectors": 2, "vectors": [["0", "-1/100"], ["0", "1/100"]]}


def test_flag_only_on_commands_that_read_it(capsys, torus_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--surface", torus_file, "--radius", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_the_budget_is_no_flag(capsys, torus_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--surface", torus_file, "--radius", "2", "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "validate", "delaunay"])
def test_format_only_on_commands_with_a_table(command, capsys, torus_file):
    argv = [command, "--surface", torus_file] + (["--radius", "2"] if command == "count" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_main_dispatches_to_the_current_command_function(capsys, monkeypatch, torus_file):
    argv = ["validate", "--surface", torus_file]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_validate", lambda args: 7)
    assert run(capsys, argv)[0] == 7


def test_budget_error_reports_progress(capsys, monkeypatch, torus, torus_file):
    monkeypatch.setenv("SADDLEKIT_BUDGET", "50")
    code, _, err = run(capsys, ["count", "--surface", torus_file, "--radius", "40"])
    assert code == 1
    payload = json.loads(err)
    # 16 connections and "10" when every pass-through state went through the
    # heap: a refusal now reports the key of the wedge it popped last.
    assert payload == {"error": "RESOURCE_LIMIT", "detail": "enumeration state budget exceeded",
                       "budget": 50, "states": 50, "connections": 8, "radius_sq_reached": "5"}
    reached = Fraction(payload["radius_sq_reached"])
    monkeypatch.delenv("SADDLEKIT_BUDGET")
    conns = enumerate_connections(torus, radius_sq=reached).connections
    assert payload["connections"] == sum(1 for c in conns if c.length_sq() < reached)


def test_a_segment_trace_at_the_crossing_cap_reports_progress(capsys, monkeypatch, torus, torus_file):
    # With the cap at one crossing, a segment that crosses two edges is
    # refused with its holonomy and the crossings made, as the leaf trace is.
    monkeypatch.setattr(geodesic, "_MAX_CROSSINGS", 1)
    conns = enumerate_connections(torus, 3).connections
    conn = next(c for c in conns if len(c.crossings) > 1)
    with pytest.raises(ResourceLimitError, match="segment trace did not terminate") as exc:
        _strip(torus, conn.start_corner, conn.holonomy)
    assert exc.value.details == {"holonomy": conn.holonomy.to_json(), "crossings": 1}
    # chew-check walks each connection's strip on the Delaunay surface and
    # stops at the first refusal.
    dt = delaunay_l1(torus)
    with pytest.raises(ResourceLimitError) as exc:
        for c in conns:
            chew.chew_path(dt, c)
    code, out, err = run(capsys, ["chew-check", "--surface", torus_file, "--radius", "3"])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "RESOURCE_LIMIT", "detail": "segment trace did not terminate",
                               **exc.value.details}
    assert exc.value.details["crossings"] == 1 and exc.value.details["holonomy"]


def test_mc_stratum_refuses_an_ambiguous_sample(capsys, torus_file):
    # At spread 0 every sample is the square torus, where (1, 1) and (1, -1)
    # lie on the sector's rays.
    sector = sv.SectorIndicator(3, 0.0, math.pi / 4).to_json()
    argv = ["mc-stratum", "--surface", torus_file, "--spread", "0", "--samples", "2", "--seed", "7",
            "--fn", sector]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert (payload["error"], payload["ambiguous"], payload["sample"]) == ("AMBIGUOUS_MEMBERSHIP", 2, 0)


def test_delaunay_on_slit_torus(capsys, tmp_path, slit_13_15):
    path = tmp_path / "slit.json"
    path.write_text(slit_13_15.to_json())
    code, out, err = run(capsys, ["delaunay", "--surface", str(path)])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert len(data["certificates"]) == len(data["triangles"])
    assert data["flip_count"] == delaunay_l1(slit_13_15).flip_count


def test_chew_check_on_square_torus(capsys, torus_file):
    code, out, err = run(capsys, ["chew-check", "--surface", torus_file, "--radius", "3"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["checked"] == 16 and data["certified_failures"] == 0


def test_chew_check_on_the_octagon_walks_every_sheet(capsys, tmp_path, octagon):
    # H(2) has one cone point of angle 6 pi: each walk starts on its
    # connection's own sheet of it.
    path = tmp_path / "octagon.json"
    path.write_text(octagon.to_json())
    code, out, err = run(capsys, ["chew-check", "--surface", str(path), "--radius", "6"])
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["checked"] == 120 and data["certified_failures"] == 0


# sha256 of the stdout of each command on the exact-enum corpus, recorded
# while results were still sorted and deduplicated on Fraction keys.
_CORPUS = {
    "square": square_torus,
    "slit": lambda: slit_torus(ExactVector.of(Fraction(1, 3), Fraction(1, 5))),
    "octagon": octagon_h2,
    "roct": regular_octagon_approx,
}
_PINNED_OUTPUTS = {
    "count-square": (
        ["count", "--surface", "square", "--radius", "20"],
        "d70d51acb919987cfa496f4337b517a73763982a15c24b73a71a415c72af16a7",
    ),
    "count-slit": (
        ["count", "--surface", "slit", "--radius", "8"],
        "d616ae8bc720b5c87e70c81cad3aaba86b1a832336065dd06a25c55bd07d4a7a",
    ),
    "count-regular-octagon": (
        ["count", "--surface", "roct", "--radius", "6"],
        "7500d46c82706583feea373f3ddd3203f00b8251884311e81b2bf8fb8cff99c5",
    ),
    "enumerate-octagon": (
        ["enumerate", "--surface", "octagon", "--radius", "12"],
        "143d5a68d099b2d18e8cbd71ef9e3000a3ae1de259f5cf6e7e918af3fec5a8e9",
    ),
    "enumerate-slit-csv": (
        ["enumerate", "--surface", "slit", "--radius", "8", "--format", "csv"],
        "322bd2e234f5935f2bb98bbb71cc7a8e691e74a2a6052d47a92ab9a737dcbd3e",
    ),
    "torus-exact": (
        ["torus-exact", "--matrix", "2,1,1,1", "--radius", "20"],
        "fbfaab6dd630f672ef6fccc0a73344fe5d6fcf3419ef5034287c46f3229f5317",
    ),
    "slit-exact": (
        ["slit-exact", "--matrix", "1,0,0,1", "--slit", "1/3,1/5", "--radius", "8"],
        "a0326fb2f7ce519e8616ce5412217fed9925cc094d764ce4cff1c8c46318c923",
    ),
    "transform-octagon-sector": (
        ["transform", "--surface", "octagon", "--fn",
         json.dumps({"variant": "sector", "theta": 0.0, "half_angle": math.pi / 4, "r": "8"})],
        "a467a3b17c5a94f04ec680b99e19db941388b4cce659ecd2e3489e64a4231e9c",
    ),
    "chew-check-square": (
        ["chew-check", "--surface", "square", "--radius", "6"],
        "889ce8cf33c21f3f7b9163b611144b280a11162494b0c67bb721743bd6785b7f",
    ),
    "chew-check-slit": (
        ["chew-check", "--surface", "slit", "--radius", "5/2"],
        "3298ffad1f2927a335662d38977e9b3224204cda8a6722d995f6d1682814d213",
    ),
    "mc-stratum-octagon": (
        ["mc-stratum", "--surface", "octagon", "--samples", "20", "--seed", "7", "--radius", "1/2"],
        "68d83544f6de0f1081d1fa0d8f8966b9777f4a93fddad3fef2f87bfe62d11bb2",
    ),
    "validate-slit": (
        ["validate", "--surface", "slit"],
        "999720e9ccd6a053f0596b639162167b4066e83e62fc7477c675aaa10fd65381",
    ),
    "bc-table-csv": (
        ["bc-table", "--samples", "200", "--seed", "3", "--radii", "2,4", "--errors", "4,8", "--format", "csv"],
        "fb9715e2bf84ff7ade1e78bda9ae2376c9feaa43084b0a3deedb3fc9f6f7cae7",
    ),
    # 2v is in the lattice: the slit's two cosets coincide.
    "slit-exact-half": (
        ["slit-exact", "--matrix", "1,0,0,1", "--slit", "1/2,0", "--radius", "4"],
        "bf94ec57018b3cf46bb09874a0ae6c1508ea5da5e1a373ef990120b7f6fa0752",
    ),
    "slit-exact-half-half": (
        ["slit-exact", "--matrix", "1,0,0,1", "--slit", "1/2,1/2", "--radius", "4"],
        "a7f523e539888501315d3294aa66a4304560052d3c8c33e4cd4eee304116dbcc",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_OUTPUTS))
def test_exact_output_is_pinned(name, capsys, tmp_path):
    argv, digest = _PINNED_OUTPUTS[name]
    if "--surface" in argv:
        i = argv.index("--surface") + 1
        path = tmp_path / f"{argv[i]}.json"
        path.write_text(_CORPUS[argv[i]]().to_json())
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_transform_of_a_nested_product_is_the_product_of_its_factors(capsys, torus_file):
    disc = {"variant": "disc", "r": "2"}
    annulus = {"variant": "annulus", "r1": "1", "r2": "3"}
    sector = {"variant": "sector", "r": "3", "theta": 0.3, "half_angle": 0.6}
    nested = {"variant": "product", "f": disc, "g": {"variant": "product", "f": annulus, "g": sector}}
    reports = []
    for fn in (disc, annulus, sector, nested):
        code, out, err = run(capsys, ["transform", "--surface", torus_file, "--fn", json.dumps(fn)])
        assert code == 0 and err == ""
        reports.append(json.loads(out))
    *factors, product = reports
    assert all(rep["ambiguous"] == 0 for rep in reports)
    assert product["value"] == math.prod(rep["value"] for rep in factors) > 0
    # One enumeration up to the largest support radius, 3.
    assert product["n_vectors"] == factors[1]["n_vectors"] == factors[2]["n_vectors"] > 0


def test_stratum_mean_of_a_triangle_is_an_input_error(capsys, tmp_path, octagon):
    path = tmp_path / "octagon.json"
    path.write_text(octagon.to_json())
    tri = sv.TriangleIndicator(ExactVector.of(1, 0), ExactVector.of(0, 1)).to_json()
    argv = ["mc-stratum", "--surface", str(path), "--samples", "2", "--seed", "7", "--fn", tri]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "INPUT"


@pytest.mark.parametrize("command", ["mc-stratum", "tails"])
def test_a_triangle_on_stratum_samples_is_refused_whatever_its_size(capsys, tmp_path, octagon, command):
    # The samples about octagon_h2 have area 7 and a triangle needs area 1:
    # one too small to hold any holonomy vector is refused all the same.
    path = tmp_path / "octagon.json"
    path.write_text(octagon.to_json())
    tiny = '{"variant": "triangle", "p": ["1/100", "0"], "q": ["0", "1/100"]}'
    argv = [command, "--surface", str(path), "--samples", "3", "--seed", "1", "--fn", tiny]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "INPUT"


def test_holonomy_array_is_pinned():
    s = octagon_h2()
    pts = sv._holonomy_array(geodesic._holonomy_keys(s, 64), s.int_corners()[0])
    assert pts.shape == (112, 2)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == (
        "39e979f3dd8d6c4495ac59b3e450f4ee13bcf7f809f8d5ca9cb7367d09a8c15a"
    )
