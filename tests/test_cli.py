"""Command line surface: tables, suite reports, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from gwn.cli import main
from gwn.measure import AtomicMeasure, save_measure
from gwn.report import (CaseResult, RunReport, absolute_case, scaled_case,
                        to_json)
from gwn.symtensor import FockVector, SymTensor
from gwn.wickcalc import Basis, PolyFunctional, laguerre_system, s_transform


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_loops_census_totals_factorial(capsys):
    code, out = run_cli(capsys, "loops", "--n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "blocks,multiplicity,running_sum"
    assert lines[-1] == "total,24,24"
    mults = [int(r.split(",")[1]) for r in lines[1:-1]]
    assert sum(mults) == 24
    # 15 set partitions of a 4 element set
    assert len(mults) == 15


def test_jacobi_table_row(capsys):
    code, out = run_cli(capsys, "jacobi", "--sigma", "1", "--n", "3")
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    last = rows[3]
    assert last[0] == "3"
    assert float(last[3]) == 6.0
    assert all(float(r[5]) <= 1e-10 for r in rows)


def test_laguerre_table_matches_system(capsys):
    code, out = run_cli(capsys, "laguerre", "--sigma", "1.7", "--n", "4")
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")[1:]]
    ls = laguerre_system(1.7, 4)
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.array_equal(got, ls.coeffs)


def test_stransform_command(tmp_path, capsys):
    mu = AtomicMeasure([2.0, 0.5])
    save_measure(mu, tmp_path / "mu.json")
    p = PolyFunctional(Basis.GAMMA_WICK, FockVector(
        [SymTensor(2, 0, np.array([0.4])),
         SymTensor(2, 1, np.array([0.3, -0.2])),
         SymTensor(2, 2, np.array([0.1, 0.0, -0.5]))]))
    (tmp_path / "p.json").write_text(json.dumps(p.to_json_dict()))
    theta = [0.1, 0.4]
    code, out = run_cli(capsys, "stransform",
                        "--functional", str(tmp_path / "p.json"),
                        "--theta", json.dumps(theta),
                        "--measure", str(tmp_path / "mu.json"))
    assert code == 0
    assert json.loads(out)["value"] == s_transform(p, theta, mu)


def test_verify_single_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "series", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "series" and report["pass"]
    assert all(c["deviation"] <= c["tolerance"] for c in report["cases"])


def test_verify_all_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "all", "--seed", "42", "--out", str(a)]) == 0
    assert main(["verify", "all", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    suites = [s["suite"] for s in json.loads(a.read_text())["suites"]]
    assert suites == sorted(suites) and len(suites) == 7


def test_verify_seed_changes_report(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "theorem7", "--seed", "1")
    _, out2 = run_cli(capsys, "verify", "--suite", "theorem7", "--seed", "2")
    assert out1 != out2


def test_measure_file_pins_inputs(tmp_path, capsys):
    save_measure(AtomicMeasure([1.0, 0.5, 2.0, 0.25]), tmp_path / "mu.json")
    code, out = run_cli(capsys, "verify", "theorem6", "--seed", "3",
                        "--measure", str(tmp_path / "mu.json"))
    assert code == 0 and json.loads(out)["pass"]


def test_mc_laplace_report_shape(capsys):
    code, out = run_cli(capsys, "mc", "--suite", "laplace", "--seed", "3",
                        "--samples", "4000")
    assert code == 0
    report = json.loads(out)
    case = report["cases"][0]
    for key in ("name", "target", "value", "deviation", "tolerance",
                "pass", "se", "n"):
        assert key in case
    assert case["n"] == 4000
    assert case["tolerance"] == pytest.approx(4.0 * case["se"])


def test_all_subcommand_runs_every_suite(capsys):
    code, out = run_cli(capsys, "all", "--seed", "0", "--samples", "20000")
    assert code == 0
    suites = [s["suite"] for s in json.loads(out)["suites"]]
    assert suites == ["chaos", "gram", "laplace", "multiplication", "series",
                      "theorem5", "theorem6", "theorem7", "theorem8",
                      "theorem9"]


def test_out_flag_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out = run_cli(capsys, "verify", "series", "--seed", "1",
                        "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["pass"]


def test_pretty_renders_table(capsys):
    code, out = run_cli(capsys, "verify", "theorem5", "--seed", "1", "--pretty")
    assert code == 0
    assert out.startswith("suite theorem5")
    assert "PASS" in out and "{" not in out


def test_timing_flag_adds_wall_time(capsys):
    _, plain = run_cli(capsys, "verify", "series", "--seed", "1")
    _, timed = run_cli(capsys, "verify", "series", "--seed", "1", "--timing")
    assert "wall_time" not in json.loads(plain)
    assert json.loads(timed)["wall_time"] > 0.0


def test_usage_errors_exit_two(capsys):
    assert main(["unknown-command"]) == 2
    assert main(["loops"]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["verify", "series", "--suite", "theorem5"]) == 2
    capsys.readouterr()


def test_bad_input_exits_two(capsys, tmp_path):
    assert main(["jacobi", "--sigma", "-1", "--n", "3"]) == 2
    assert main(["stransform", "--functional", str(tmp_path / "missing.json"),
                 "--theta", "[0.1]", "--measure", str(tmp_path / "mu.json")]) == 2
    capsys.readouterr()


def test_report_pass_logic():
    good = scaled_case("close", 1.0 + 1e-12, 1.0, 1e-10)
    bad = absolute_case("far", 2.0, 1.0, 0.5)
    assert good.passed and not bad.passed
    rep = RunReport("demo", [good, bad], seed=9)
    assert not rep.passed
    assert rep.max_deviation == 1.0
    d = rep.to_json_dict()
    assert d["pass"] is False and d["cases"][1]["pass"] is False
    assert "wall_time" not in d


def test_case_extras_serialized_sorted():
    c = CaseResult("x", 0.0, 0.0, 0.0, 1.0, {"se": 0.1, "n": 10})
    keys = list(c.to_json_dict())
    assert keys.index("n") < keys.index("se")
    assert keys[:6] == ["name", "target", "value", "deviation", "tolerance",
                       "pass"]


def assert_input_error(capsys, *argv):
    """argv exits 2 with a single 'gwn: error:' line, nothing on stdout and
    no warning raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("gwn: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("mc", "laplace", "--samples", "1"),
    ("mc", "chaos", "--samples", "1"),
])
def test_mc_needs_two_samples(capsys, argv):
    assert_input_error(capsys, *argv)


@pytest.mark.parametrize("command", ["mc", "all"])
@pytest.mark.parametrize("se_mult", ["inf", "nan", "0", "-1"])
def test_se_mult_must_be_finite_and_positive(capsys, command, se_mult):
    assert_input_error(capsys, command, "--samples", "2", "--se-mult", se_mult)


@pytest.mark.parametrize("argv", [
    ("laguerre", "--sigma", "1", "--n", "-1"),
    ("laguerre", "--sigma", "nan", "--n", "2"),
    ("jacobi", "--sigma", "inf", "--n", "2"),
    ("jacobi", "--sigma", "1", "--n", "-2"),
    ("jacobi", "--sigma", "1e300", "--n", "3"),
    ("jacobi", "--sigma", "1", "--n", "1000000000"),
    ("laguerre", "--sigma", "1e300", "--n", "3"),
    ("laguerre", "--sigma", "1", "--n", "100000"),
])
def test_table_commands_validate_inputs(capsys, argv):
    assert_input_error(capsys, *argv)


@pytest.mark.filterwarnings("error")
def test_laguerre_high_degree_table_is_finite(capsys):
    code, out = run_cli(capsys, "laguerre", "--sigma", "1", "--n", "200")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 201
    assert all(math.isfinite(float(v)) for r in rows for v in r.split(",")[1:])


def test_laguerre_out_file_matches_stdout(tmp_path, capsys):
    argv = ("laguerre", "--sigma", "1.7", "--n", "4")
    _, out = run_cli(capsys, *argv)
    code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "t.csv"))
    assert code == 0
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == out
    # a rejected table is refused before the output file is opened
    assert_input_error(capsys, "laguerre", "--sigma", "1", "--n", "100000",
                       "--out", str(tmp_path / "big.csv"))
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("command", ["all", "mc"])
def test_samples_checked_before_any_suite_runs(capsys, monkeypatch, command):
    import gwn.cli

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("run_verify_all", "run_verify_suite", "run_mc_all",
                 "run_mc_suite"):
        monkeypatch.setattr(gwn.cli, name, no_suite)
    assert_input_error(capsys, command, "--samples", "1")


def test_stransform_rejects_non_finite_inputs(tmp_path, capsys):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    functional = {"basis": "gamma_wick", "m": 2, "kernels": [
        {"degree": 0, "values": {"": 1.0}},
        {"degree": 1, "values": {"0": 0.5, "1": 2.0}}]}
    (tmp_path / "p.json").write_text(json.dumps(functional))
    functional["kernels"][1]["values"]["0"] = "nan"
    (tmp_path / "nan.json").write_text(json.dumps(functional))
    for name, theta in (("nan.json", "[0.1, 0.2]"), ("p.json", "[NaN, 0.2]"),
                        ("p.json", "[0.1, Infinity]")):
        assert_input_error(capsys, "stransform",
                           "--functional", str(tmp_path / name),
                           "--theta", theta,
                           "--measure", str(tmp_path / "mu.json"))


@pytest.mark.parametrize("theta, in_file", [
    ('{"a": 1}', False),
    ('{"values": {"a": 1}}', True),
    ("[1" + "0" * 400 + ", 1]", False),
], ids=["object_argument", "object_values_in_file", "huge_integer"])
def test_stransform_rejects_theta_that_is_not_a_list_of_numbers(
        tmp_path, capsys, theta, in_file):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    functional = {"basis": "gamma_wick", "m": 2,
                  "kernels": [{"degree": 1, "values": {"0": 1.0}}]}
    (tmp_path / "p.json").write_text(json.dumps(functional))
    if in_file:
        (tmp_path / "theta.json").write_text(theta)
        theta = str(tmp_path / "theta.json")
    assert_input_error(capsys, "stransform",
                       "--functional", str(tmp_path / "p.json"),
                       "--theta", theta,
                       "--measure", str(tmp_path / "mu.json"))


def test_json_output_is_strict():
    assert to_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            to_json({"x": bad})


def test_stransform_refuses_a_many_atom_functional(tmp_path, capsys):
    save_measure(AtomicMeasure(np.ones(60)), tmp_path / "mu.json")
    functional = {"basis": "gamma_wick", "m": 60, "kernels": [
        {"degree": 8, "values": {"0 1 2 3 4 5 6 7": 1.0}}]}
    (tmp_path / "p.json").write_text(json.dumps(functional))
    assert_input_error(capsys, "stransform",
                       "--functional", str(tmp_path / "p.json"),
                       "--theta", json.dumps([0.1] * 60),
                       "--measure", str(tmp_path / "mu.json"))


@pytest.mark.parametrize("fields", [
    {"kernels": [{"degree": 1, "values": [1.0, 2.0]}]},
    {"kernels": [{"degree": 0, "values": {"": 1.0}}, {"degree": -1, "values": {}}]},
    {"kernels": [{"degree": 1, "values": {"0": 1.0}},
                 {"degree": 1, "values": {"1": 2.0}}]},
    {"kernels": [{"degree": 1.7, "values": {"0": 1.0}}]},
    {"kernels": [{"degree": 100000, "values": {}}]},
    {"m": 2.5},
    {"kernels": [{"degree": 1, "values": {"0": None}}]},
    {"kernels": [{"degree": 1, "values": {"0": [1.0]}}]},
    {"kernels": [{"degree": 1, "values": {"0": True}}]},
], ids=["values_not_a_map", "negative_degree", "repeated_degree",
        "fractional_degree", "degree_over_cap", "fractional_m", "null_value",
        "array_value", "bool_value"])
def test_stransform_rejects_malformed_functional(tmp_path, capsys, fields):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    functional = {"basis": "gamma_wick", "m": 2,
                  "kernels": [{"degree": 1, "values": {"0": 1.0}}], **fields}
    (tmp_path / "p.json").write_text(json.dumps(functional))
    assert_input_error(capsys, "stransform",
                       "--functional", str(tmp_path / "p.json"),
                       "--theta", "[0.1, 0.2]",
                       "--measure", str(tmp_path / "mu.json"))


@pytest.mark.parametrize("text", [
    "5", '["weights"]', '{"weights": {"a": 1}}', '{"weights": [true, 1.0]}',
    '{"weights": [null, 1.0]}',
], ids=["number", "array", "weights_not_an_array", "bool_weight", "null_weight"])
def test_malformed_measure_file_is_an_input_error(tmp_path, capsys, text):
    (tmp_path / "mu.json").write_text(text)
    assert_input_error(capsys, "verify", "theorem5",
                       "--measure", str(tmp_path / "mu.json"))


def test_compound_poisson_jumps_past_the_entry_budget_exit_2(tmp_path, capsys):
    # E1(1e-3) ~ 6.3 jumps per unit weight and sample: a weight of 1e6 asks
    # for ~6e9 jumps in one batch of 1000, refused before any is drawn
    save_measure(AtomicMeasure([1e6, 1.0]), tmp_path / "mu.json")
    assert_input_error(capsys, "mc", "chaos", "--samples", "1000",
                       "--measure", str(tmp_path / "mu.json"))
