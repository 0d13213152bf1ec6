import json
import math
import shlex
from pathlib import Path

import pytest

from cylzeta.cli import build_parser, main

HALF = '{"kind":"arithmetic","a":0.5,"d":1.0,"mult":[1],"kernel":0}'
PAIR = '{"kind":"explicit","lines":[[1.0,1],[2.0,1]],"kernel":0}'
KERNEL = '{"kind":"explicit","lines":[[1.0,1]],"kernel":1}'
CAP = '{"mu":"absB_plus","kernel_value":0.0}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("half", HALF), ("pair", PAIR), ("kernel", KERNEL), ("cap", CAP)):
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_zeta_command(files, capsys):
    code, report = run(["zeta", "--model", files["half"]], capsys)
    assert code == 0
    assert report["zeta_sq_0"] == pytest.approx(0.0, abs=1e-12)
    assert report["logdet_sq"] == pytest.approx(2 * math.log(2), abs=1e-10)
    assert report["zeta_abs_minus1"] == pytest.approx(1 / 12, abs=1e-10)
    assert report["est_errors"]["zeta_sq_0"] > 0.0


def test_zeta_command_finite_model(files, capsys):
    code, report = run(["zeta", "--model", files["pair"]], capsys)
    assert code == 0
    assert report["zeta_sq_0"] == pytest.approx(4.0)
    assert report["logdet_sq"] == pytest.approx(math.log(16.0))
    assert report["zeta_abs_minus1"] == pytest.approx(6.0)


def test_config_errors_exit_1(files, capsys):
    assert main(["zeta", "--model", "/nonexistent/model.json"]) == 1
    bad = files["dir"] / "bad.json"
    bad.write_text('{"kind":"alien"}')
    assert main(["zeta", "--model", str(bad)]) == 1
    assert main(["zeta"]) == 1  # missing required flag
    capsys.readouterr()


def test_unread_flags_exit_1(files, capsys):
    assert main(["zeta", "--model", files["half"], "--t-min", "5"]) == 1
    assert main(["cylinder-det", "--model", files["pair"], "--r", "1.0",
                 "--cap1", files["cap"]]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line.replace("[", "").replace("]", ""))
                for line in block.splitlines() if line.startswith("cylzeta ")]
    assert {argv[1] for argv in examples} == {
        "zeta", "cylinder-det", "gluing-check", "adiabatic-scan", "asym-const",
        "blocks-threshold"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])


def test_numerical_failure_exit_2(files, capsys):
    # a cylinder too short for the mode budget is refused before summing
    assert main(["gluing-check", "--model", files["half"], "--r", "1e-9"]) == 2
    capsys.readouterr()


def test_non_finite_or_non_positive_length_exits_1(files, capsys):
    for command, flags in (("cylinder-det", ["--r", "nan"]),
                           ("gluing-check", ["--r", "nan"]),
                           ("blocks-threshold", ["--r", "nan"]),
                           ("cylinder-det", ["--r", "inf"]),
                           ("adiabatic-scan", ["--r", "0"]),
                           ("gluing-check", ["--r-min", "-1", "--r-max", "2"]),
                           ("blocks-threshold", ["--r-min", "0.5", "--r-max", "nan"])):
        assert main([command, "--model", files["half"], *flags]) == 1
    assert "need a finite length > 0" in capsys.readouterr().err


def test_robin_pair_needs_no_convergent_sum(files, capsys):
    # (D, RobinAbsB) has no Dirichlet modes, so no T(r) piece to exhaust
    code, report = run(["cylinder-det", "--model", files["half"], "--r", "1e-9",
                        "--bc", "D,RobinAbsB"], capsys)
    assert code == 0
    assert "convergent_tail" not in report["pieces"]


def test_cylinder_det_command(files, capsys):
    code, report = run(
        ["cylinder-det", "--model", files["pair"], "--r", "1.0", "--bc", "D,P<"], capsys)
    assert code == 0
    from cylzeta.cylinder_dets import D_PLT, cylinder_logdet
    from cylzeta.spectral_models import load_model

    expect = cylinder_logdet(load_model(files["pair"]), 1.0, D_PLT).value.real
    assert report["logdet"] == pytest.approx(expect, abs=1e-13)
    assert set(report["pieces"]) == {
        "linear_in_r", "log_part", "count_part", "convergent_tail", "kernel_part"}


def test_gluing_check_pass_and_fail(files, capsys):
    code, report = run(["gluing-check", "--model", files["half"]], capsys)
    assert code == 0
    assert report["status"] == "PASS"
    assert report["worst_residual"] <= 1e-8
    # an uncertifiable tolerance is an honest FAIL
    code, report = run(["gluing-check", "--model", files["half"], "--tol", "1e-15"], capsys)
    assert code == 3
    assert report["status"] == "FAIL"


def test_gluing_check_cache_round_trip(files, capsys):
    cache = str(files["dir"] / "roots")
    code, report = run(
        ["gluing-check", "--model", files["half"], "--cache", cache], capsys)
    assert code == 0
    assert report["root_route_check"]["pass"]
    first = report["root_route_check"]
    code, report = run(
        ["gluing-check", "--model", files["half"], "--cache", cache], capsys)
    assert code == 0
    assert report["root_route_check"] == first  # reused cached roots


def test_adiabatic_scan(files, capsys):
    csv_path = files["dir"] / "scan.csv"
    code, report = run(
        ["adiabatic-scan", "--model", files["half"], "--cap1", files["cap"],
         "--cap2", files["cap"], "--csv", str(csv_path)], capsys)
    assert code == 0
    assert report["status"] == "PASS"
    assert report["q_limit"] == pytest.approx(math.log(2), abs=1e-10)
    assert report["decay_rate_fit"] == pytest.approx(1.0, rel=0.05)
    header = csv_path.read_text().splitlines()[0]
    assert header == "r,bracket,limit,residual"
    assert report["rows"][-1]["residual"] == pytest.approx(0.0, abs=1e-4)


def test_adiabatic_scan_rejects_kernel(files, capsys):
    code = main(["adiabatic-scan", "--model", files["kernel"]])
    capsys.readouterr()
    assert code == 1


def test_asym_const_single_ray(files, capsys):
    code, report = run(
        ["asym-const", "--model", files["half"], "--m", "3", "--ray", "1",
         "--r", "2.0"], capsys)
    assert code == 0
    assert report["status"] == "PASS"
    ray = report["rays"][0]
    assert ray["theta"] == 0.0
    assert abs(complex(*ray["pi0"])) <= 1e-3


def test_asym_const_all_rays_with_sum(files, capsys):
    csv_path = files["dir"] / "asym.csv"
    code, report = run(
        ["asym-const", "--model", files["half"], "--m", "2", "--r", "2.0",
         "--csv", str(csv_path)], capsys)
    assert code == 0
    assert report["sum_check"]["pass"]
    assert report["sum_check"]["theta_sum"] == 0.0
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,re_logdet,im_logdet"


def test_blocks_threshold(files, capsys):
    code, report = run(
        ["blocks-threshold", "--model", files["half"], "--cap1", files["cap"],
         "--cap2", files["cap"], "--r-min", "1.0", "--r-max", "10.0",
         "--steps", "4"], capsys)
    assert code == 0
    assert report["all_positive"]
    assert report["positivity_threshold_r0"] == 1.0
    # vanishing coupling at large r: min eig -> min(mu + lam) = 1
    assert report["rows"][-1]["min_eig"] == pytest.approx(1.0, abs=1e-4)


def test_reports_deterministic(files, capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["gluing-check", "--model", files["half"], "--out", str(out)]) == 0
    capsys.readouterr()

    def strip_timestamp(p):
        return "\n".join(l for l in p.read_text().splitlines() if "timestamp" not in l)

    assert strip_timestamp(out1) == strip_timestamp(out2)
