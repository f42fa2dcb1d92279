"""Command line surface: tables, suite reports, exit codes, determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gwn import gammasample
from gwn.cli import build_parser, main
from gwn.errors import ContractError, SizeError
from gwn.measure import AtomicMeasure, save_measure
from gwn.report import (CaseResult, RunReport, absolute_case, scaled_case,
                        to_json)
from gwn.gammasample import DEFAULT_BATCH
from gwn.symtensor import MAX_ENTRIES, FockVector, SymTensor
from gwn.verify import (ADJOINTNESS_TRUNCATION, MC_SUITES, VERIFY_SUITES,
                        run_mc_suite, run_verify_suite)
from gwn.wickcalc import Basis, PolyFunctional, laguerre_system, s_transform

from conftest import count_gamma_draws


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
    code, out = run_cli(capsys, "verify", "series", "--seed", "7")
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
    _, out1 = run_cli(capsys, "verify", "theorem7", "--seed", "1")
    _, out2 = run_cli(capsys, "verify", "theorem7", "--seed", "2")
    assert out1 != out2


def test_measure_file_pins_inputs(tmp_path, capsys):
    save_measure(AtomicMeasure([1.0, 0.5, 2.0, 0.25]), tmp_path / "mu.json")
    code, out = run_cli(capsys, "verify", "theorem6", "--seed", "3",
                        "--measure", str(tmp_path / "mu.json"))
    assert code == 0 and json.loads(out)["pass"]


def test_smeared_pairing_passes_on_a_heavy_atom(tmp_path, capsys):
    # seed 1 at weight 100: smeared_pairing_degree_3 reads 5.6e-9 against
    # its 1e-10 tolerance when the per-atom products are summed into one
    # functional and evaluated once, 5.6e-11 when each is evaluated on its
    # own and the terms are fsummed.  Most other seeds at this weight fail
    # that case under either order, at the heavy-atom rounding floor.
    save_measure(AtomicMeasure([100.0]), tmp_path / "mu.json")
    code, out = run_cli(capsys, "verify", "multiplication", "--seed", "1",
                        "--measure", str(tmp_path / "mu.json"))
    assert code == 0 and json.loads(out)["pass"]


# The cases that fail at the heavy-atom rounding floor (ROADMAP item 4):
# they round-trip O(1) functionals through Gamma-Wick coefficients of size
# up to rising(w, k).  A change that fails any further case there, or
# fails these by more than the floor it inherits, is caught below.
SERIES_FLOOR = {("series", "wick_derivative_as_gradient_series"),
                ("series", "gradient_as_alternating_series"),
                ("series", "degree_6_identities")}
HEAVY_FLOOR = SERIES_FLOOR | {("multiplication", "smeared_pairing_degree_2"),
                              ("multiplication", "smeared_pairing_degree_3"),
                              ("multiplication", "operator_reassembly"),
                              ("theorem6", "integral_matches_algebra_degree_4")}


@pytest.mark.parametrize("weights, floor", [([100.0], SERIES_FLOOR),
                                            ([1.0, 1.0, 1000.0], HEAVY_FLOOR)],
                         ids=["w100", "w1_1_1000"])
def test_heavy_atom_failures_stay_at_the_known_floor(tmp_path, capsys, weights, floor):
    save_measure(AtomicMeasure(weights), tmp_path / "mu.json")
    code, out = run_cli(capsys, "verify", "all", "--seed", "1",
                        "--measure", str(tmp_path / "mu.json"))
    failed = {(s["suite"], c["name"]) for s in json.loads(out)["suites"]
              for c in s["cases"] if not c["pass"]}
    assert code == (1 if failed else 0)
    assert failed <= floor


def test_mc_laplace_report_shape(capsys):
    code, out = run_cli(capsys, "mc", "laplace", "--seed", "3",
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


def test_single_suite_payload_is_its_block_in_all(capsys):
    """`verify <suite>`, `mc <suite>`, `verify all`, `mc all` and `all`
    print the same bytes for each suite."""
    blocks = {}
    for command, names, extra in (("verify", VERIFY_SUITES, ()),
                                  ("mc", MC_SUITES, ("--samples", "2000"))):
        _, out = run_cli(capsys, command, "all", "--seed", "5", *extra)
        suites = json.loads(out)["suites"]
        assert [s["suite"] for s in suites] == sorted(names)
        for block in suites:
            _, one = run_cli(capsys, command, block["suite"], "--seed", "5",
                             *extra)
            assert one == to_json(block)
            blocks[block["suite"]] = block
    _, out = run_cli(capsys, "all", "--seed", "5", "--samples", "2000")
    assert json.loads(out)["suites"] == [blocks[n] for n in sorted(blocks)]


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
    assert main(["verify", "nope"]) == 2
    # no suite command takes --suite or --se-mult: a script passing them fails
    for command in ("verify", "mc", "all"):
        assert main([command, "--suite", "X"]) == 2
        assert main([command, "--se-mult", "4"]) == 2
    capsys.readouterr()


def test_readme_command_lines_parse():
    """Every `gwn` line of README's "Command line" block is accepted by
    the parser (parsed only; nothing runs)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.split("```", 1)[0].splitlines() if line.strip()]
    assert len(lines) >= 8 and all(argv[0] == "gwn" for argv in lines)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


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
    return err


@pytest.mark.parametrize("argv", [
    ("mc", "laplace", "--samples", "1"),
    ("mc", "chaos", "--samples", "1"),
])
def test_mc_needs_two_samples(capsys, argv):
    assert_input_error(capsys, *argv)


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

    for name in ("run_verify_suite", "run_mc_suite"):
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


@pytest.mark.parametrize("fields, names", [
    ({"kernels": [{"degree": 1, "values": [1.0, 2.0]}]}, ""),
    ({"kernels": [{"degree": 0, "values": {"": 1.0}}, {"degree": -1, "values": {}}]}, ""),
    ({"kernels": [{"degree": 1, "values": {"0": 1.0}},
                  {"degree": 1, "values": {"1": 2.0}}]}, ""),
    ({"kernels": [{"degree": 1.7, "values": {"0": 1.0}}]}, ""),
    # the largest degree is refused before any kernel is built, by name
    ({"kernels": [{"degree": 100000, "values": {}}]}, "degree 100000 "),
    ({"m": 2.5}, ""),
    ({"kernels": [{"degree": 1, "values": {"0": None}}]}, ""),
    ({"kernels": [{"degree": 1, "values": {"0": [1.0]}}]}, ""),
    ({"kernels": [{"degree": 1, "values": {"0": True}}]}, ""),
    ({"kernels": [{"degree": 2, "values": {"0 1": 1.0, "1 0": 5.0}}]}, ""),
    ({"m": 0}, "need at least one atom"),
    ({"m": -2}, "need at least one atom"),
    # well formed, but past the degree its Gamma-Wick kernels can reach
    ({"basis": "monomial", "kernels": [{"degree": 9, "values": {"0 " * 8 + "1": 1.0}}]},
     "basis conversion capped at degree 8"),
], ids=["values_not_a_map", "negative_degree", "repeated_degree",
        "fractional_degree", "degree_over_cap", "fractional_m", "null_value",
        "array_value", "bool_value", "duplicate_multiset_key", "zero_m",
        "negative_m", "monomial_past_conversion_cap"])
def test_stransform_rejects_malformed_functional(tmp_path, capsys, fields, names):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    functional = {"basis": "gamma_wick", "m": 2,
                  "kernels": [{"degree": 1, "values": {"0": 1.0}}], **fields}
    (tmp_path / "p.json").write_text(json.dumps(functional))
    err = assert_input_error(capsys, "stransform",
                             "--functional", str(tmp_path / "p.json"),
                             "--theta", "[0.1, 0.2]",
                             "--measure", str(tmp_path / "mu.json"))
    assert names in err


@pytest.mark.parametrize("command", ["verify", "mc", "all"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_exit_2(capsys, command, seed):
    # refused before any suite runs, with one line naming the flag
    code = main([command, "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("gwn: error: --seed ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "5", '["weights"]', '{"weights": {"a": 1}}', '{"weights": [true, 1.0]}',
    '{"weights": [null, 1.0]}',
], ids=["number", "array", "weights_not_an_array", "bool_weight", "null_weight"])
def test_malformed_measure_file_is_an_input_error(tmp_path, capsys, text):
    (tmp_path / "mu.json").write_text(text)
    assert_input_error(capsys, "verify", "theorem5",
                       "--measure", str(tmp_path / "mu.json"))


def test_compound_poisson_jumps_past_the_entry_budget_exit_2(tmp_path, capsys):
    # e^(-eps) log(1/eps) + e^(-1) ~ 2.45 proposals per unit weight and
    # sample at the chaos suite's eps 0.1: a weight of 1e6 asks for ~2.5e9
    # proposals in one batch of 1000, refused before any is drawn
    save_measure(AtomicMeasure([1e6, 1.0]), tmp_path / "mu.json")
    assert_input_error(capsys, "mc", "chaos", "--samples", "1000",
                       "--measure", str(tmp_path / "mu.json"))


def test_chaos_refuses_a_measure_just_past_the_proposal_edge(tmp_path, capsys,
                                                              monkeypatch):
    # a batch of 4096 rows expects 4096 W (e^(-eps) log(1/eps) + e^(-1))
    # proposals at total weight W, over the entry budget once W passes
    # about 6680 at eps 0.1; W = 6700 is refused with the stream of every
    # compound-Poisson batch untouched
    eps = ADJOINTNESS_TRUNCATION
    per_weight = DEFAULT_BATCH * (math.exp(-eps) * math.log(1.0 / eps) + math.exp(-1.0))
    assert 6680 < MAX_ENTRIES / per_weight < 6690
    save_measure(AtomicMeasure([3350.0, 3350.0]), tmp_path / "mu.json")
    streams = []
    stream = gammasample._stream

    def recorded(seed, batch_index, jumps=False):
        rng = stream(seed, batch_index, jumps)
        if jumps:
            streams.append((rng, rng.bit_generator.state))
        return rng

    monkeypatch.setattr(gammasample, "_stream", recorded)
    err = assert_input_error(capsys, "mc", "chaos", "--samples", "4096",
                             "--measure", str(tmp_path / "mu.json"))
    assert (f"compound-Poisson batch of 4096 samples expects {6700 * per_weight:.3g} "
            f"proposals, over the budget") in err
    assert streams and all(rng.bit_generator.state == state for rng, state in streams)


@pytest.mark.parametrize("weight", [1e17, 1e20])
def test_compound_poisson_batch_past_numpy_poisson_range_exit_2(
        tmp_path, capsys, weight):
    # the per-atom Poisson totals would pass numpy's largest rate here; the
    # expected proposal count of the batch is refused before any Poisson draw
    save_measure(AtomicMeasure([weight]), tmp_path / "mu.json")
    err = assert_input_error(capsys, "mc", "chaos",
                             "--measure", str(tmp_path / "mu.json"))
    assert "compound-Poisson batch of 4096 samples expects" in err


def test_series_refuses_80_atoms_before_any_draw(tmp_path, capsys):
    # the degree-6 multiset table over 80 atoms is over the entry budget;
    # the suite refuses it before it draws from its stream, so no tensor
    # of a lower degree is built and checked first
    mu = AtomicMeasure(np.ones(80))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(SizeError, match=r"multiset table \(m=80, n=6\)"):
        VERIFY_SUITES["series"](rng, mu)
    assert rng.bit_generator.state == state
    save_measure(mu, tmp_path / "mu.json")
    err = assert_input_error(capsys, "verify", "series",
                             "--measure", str(tmp_path / "mu.json"))
    assert "multiset table (m=80, n=6)" in err


@pytest.mark.parametrize("argv", [("verify",), ("verify", "series"), ("all",)],
                         ids=["verify_all", "verify_series", "all"])
def test_series_table_refused_before_any_suite_runs(tmp_path, capsys,
                                                    monkeypatch, argv):
    # the 60-atom file of the CI step: theorem5-theorem9 would otherwise
    # run for seconds before series refuses its degree-6 table
    import gwn.cli

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in ("run_verify_suite", "run_mc_suite"):
        monkeypatch.setattr(gwn.cli, name, no_suite)
    weights = np.round(np.random.default_rng(5).uniform(0.5, 2.0, 60), 3)
    save_measure(AtomicMeasure(weights), tmp_path / "mu.json")
    err = assert_input_error(capsys, *argv, "--measure", str(tmp_path / "mu.json"))
    assert "multiset table (m=60, n=6)" in err


def test_laplace_target_past_the_float_range_exit_2(tmp_path, capsys):
    # at seed 1 the drawn phi puts -sum w log(1 - phi) near 1.5e3, past
    # log(float max); the target is refused before any sample is drawn
    save_measure(AtomicMeasure([3000.0, 1.0]), tmp_path / "mu.json")
    assert_input_error(capsys, "mc", "laplace", "--samples", "200",
                       "--seed", "1", "--measure", str(tmp_path / "mu.json"))


def test_stransform_past_the_float_range_exit_2(tmp_path, capsys):
    save_measure(AtomicMeasure([1.0, 2.0]), tmp_path / "mu.json")
    p = PolyFunctional(Basis.GAMMA_WICK, FockVector(
        [SymTensor(2, 0, np.array([1.0])),
         SymTensor(2, 1, np.array([0.5, -0.2])),
         SymTensor(2, 2, np.array([0.3, 0.1, 0.2]))]))
    (tmp_path / "p.json").write_text(json.dumps(p.to_json_dict()))
    assert_input_error(capsys, "stransform",
                       "--functional", str(tmp_path / "p.json"),
                       "--theta", "[1e200, 1e200]",
                       "--measure", str(tmp_path / "mu.json"))


def assert_repeated_key_error(capsys, *argv):
    assert "is repeated in one object" in assert_input_error(capsys, *argv)


def test_repeated_key_in_measure_file_exit_2(tmp_path, capsys):
    # json.load alone would keep the last "weights" and run on two atoms
    (tmp_path / "mu.json").write_text('{"weights": [1.0], "weights": [2.0, 3.0]}')
    assert_repeated_key_error(capsys, "verify", "theorem8",
                              "--measure", str(tmp_path / "mu.json"))


def test_repeated_key_in_functional_file_exit_2(tmp_path, capsys):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    (tmp_path / "p.json").write_text(
        '{"basis": "gamma_wick", "m": 2, "kernels": '
        '[{"degree": 2, "values": {"0 1": 1.0, "0 1": 5.0}}]}')
    assert_repeated_key_error(capsys, "stransform",
                              "--functional", str(tmp_path / "p.json"),
                              "--theta", "[0.1, 0.2]",
                              "--measure", str(tmp_path / "mu.json"))


@pytest.mark.parametrize("in_file", [True, False], ids=["file", "inline"])
def test_repeated_key_in_theta_exit_2(tmp_path, capsys, in_file):
    save_measure(AtomicMeasure([2.0, 0.5]), tmp_path / "mu.json")
    (tmp_path / "p.json").write_text(json.dumps(
        {"basis": "gamma_wick", "m": 2,
         "kernels": [{"degree": 1, "values": {"0": 1.0}}]}))
    theta = '{"values": [0.1, 0.2], "values": [0.3, 0.4]}'
    if in_file:
        (tmp_path / "theta.json").write_text(theta)
        theta = str(tmp_path / "theta.json")
    assert_repeated_key_error(capsys, "stransform",
                              "--functional", str(tmp_path / "p.json"),
                              "--theta", theta,
                              "--measure", str(tmp_path / "mu.json"))


# 9000 samples: Gamma-sampler batches of 4096, 4096 and 808
SHARED_SAMPLES = ("--samples", "9000")


@pytest.fixture
def measure_file(tmp_path):
    save_measure(AtomicMeasure([0.8, 1.5, 0.6]), tmp_path / "mu.json")
    return str(tmp_path / "mu.json")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("command", [("mc", "all"), ("all",)],
                         ids=["mc_all", "all"])
def test_shared_draws_print_each_mc_suite_as_run_alone(capsys, measure_file,
                                                      command, seed):
    # chaos draws the passes, gram and laplace replay them
    argv = ("--measure", measure_file, "--seed", str(seed)) + SHARED_SAMPLES
    _, out = run_cli(capsys, *command, *argv)
    blocks = {s["suite"]: s for s in json.loads(out)["suites"]}
    for name in MC_SUITES:
        _, alone = run_cli(capsys, "mc", name, *argv)
        assert to_json(blocks[name]) == alone


@pytest.mark.parametrize("command", [("mc", "all"), ("all",)],
                         ids=["mc_all", "all"])
def test_gamma_batches_drawn_once_per_run_on_a_given_measure(
        capsys, monkeypatch, measure_file, command):
    draws = count_gamma_draws(monkeypatch)
    run_cli(capsys, *command, "--measure", measure_file, *SHARED_SAMPLES)
    assert sorted(draws) == [808, 4096, 4096]
    # without --measure each suite draws its own measure and its own pass
    del draws[:]
    run_cli(capsys, *command, *SHARED_SAMPLES)
    assert sorted(draws) == [808] * 3 + [4096] * 6


def test_shared_draws_are_dropped_when_main_returns(tmp_path, capsys,
                                                   monkeypatch, measure_file):
    import gwn.cli

    held = []
    run = gwn.cli.run_mc_suite

    def watched(name, *args):
        report = run(name, *args)
        store = gammasample._SHARED.get()
        held.append((name, None if store is None else len(store)))
        return report

    monkeypatch.setattr(gwn.cli, "run_mc_suite", watched)
    code, _ = run_cli(capsys, "mc", "all", "--measure", measure_file,
                      *SHARED_SAMPLES)
    assert code in (0, 1)
    assert held == [("chaos", 1), ("gram", 1), ("laplace", 1)]
    assert gammasample._SHARED.get() is None
    # each suite draws its own measure: nothing to share, nothing stored
    del held[:]
    run_cli(capsys, "mc", "all", *SHARED_SAMPLES)
    assert held == [("chaos", None), ("gram", None), ("laplace", None)]
    # at seed 1 laplace refuses its target on these weights (exit 2), after
    # chaos and gram ran and stored their pass
    del held[:]
    save_measure(AtomicMeasure([3000.0, 1.0]), tmp_path / "big.json")
    assert_input_error(capsys, "mc", "all", "--samples", "200", "--seed", "1",
                       "--measure", str(tmp_path / "big.json"))
    assert held == [("chaos", 1), ("gram", 1)]
    assert gammasample._SHARED.get() is None


def test_passes_over_the_entry_budget_are_drawn_per_suite(tmp_path, capsys,
                                                          monkeypatch):
    # light atoms keep chaos's compound-Poisson batches (about 1.3e4
    # expected proposals), which are checked against the same budget, below it
    save_measure(AtomicMeasure([0.1, 0.2, 0.15]), tmp_path / "light.json")
    argv = ("mc", "all", "--measure", str(tmp_path / "light.json"),
            *SHARED_SAMPLES)
    shared = run_cli(capsys, *argv)
    draws = count_gamma_draws(monkeypatch)
    monkeypatch.setattr(gammasample, "MAX_ENTRIES", 9000 * 3 - 1)
    assert run_cli(capsys, *argv) == shared
    assert sorted(draws) == [808] * 3 + [4096] * 6


# Imports every gwn module with scipy blocked (a None entry in sys.modules
# makes any import of it raise), checks that none of it was loaded, then
# runs main on the given argv
NO_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import gwn, gwn.cli
for info in pkgutil.walk_packages(gwn.__path__, "gwn."):
    importlib.import_module(info.name)
assert [k for k in sys.modules if k.split(".")[0] == "scipy"] == ["scipy"]
sys.exit(gwn.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["all", "--seed", "0", "--samples", "2000"],
    ["mc", "all", "--measure", "m8.json", "--samples", "2000", "--seed", "3"],
], ids=["all", "mc_all_m8"])
def test_runtime_never_imports_scipy(tmp_path, monkeypatch, capsys, argv):
    # scipy is a test-only dependency: the package runs without it, and
    # prints the bytes it prints in a process where scipy is importable
    save_measure(AtomicMeasure([0.96, 0.64, 0.73, 0.77, 0.62, 2.16, 3.47, 0.65]),
                 tmp_path / "m8.json")
    env = dict(os.environ, PYTHONPATH=str(Path(gammasample.__file__).parents[1]))
    monkeypatch.chdir(tmp_path)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, *argv], env=env,
                          capture_output=True, check=False)
    assert proc.stderr == b"", proc.stderr.decode()
    code, out = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


@pytest.mark.parametrize("argv", [("loops", "--n", "4"),
                                  ("jacobi", "--sigma", "1.5", "--n", "3"),
                                  ("laguerre", "--sigma", "1.7", "--n", "3")],
                         ids=["loops", "jacobi", "laguerre"])
def test_pretty_table_aligns_the_csv_fields(capsys, argv):
    _, csv = run_cli(capsys, *argv)
    code, pretty = run_cli(capsys, *argv, "--pretty")
    assert code == 0
    lines = pretty.splitlines()
    assert [line.split() for line in lines] == [row.split(",") for row in csv.splitlines()]
    # every field of a column starts where its header does
    starts = [[m.start() for m in re.finditer(r"\S+", line)] for line in lines]
    assert all(s == starts[0] for s in starts)


def test_all_pretty_with_timing_shows_wall_times_and_the_verdict(capsys):
    code, out = run_cli(capsys, "all", "--seed", "0", "--samples", "2000",
                        "--pretty", "--timing")
    assert code == 0
    blocks = out.split("\n\n")
    assert blocks[-1] == "overall PASS\n"
    assert len(blocks) == 1 + len(VERIFY_SUITES) + len(MC_SUITES)
    for block in blocks[:-1]:
        assert block.startswith("suite ")
        assert re.fullmatch(r"  wall_time \d+\.\d{3}s", block.splitlines()[-1])


@pytest.mark.parametrize("run, kind", [(run_verify_suite, "verify"),
                                       (run_mc_suite, "mc")],
                         ids=["verify", "mc"])
def test_runner_refuses_an_unknown_suite(run, kind):
    with pytest.raises(ContractError, match=f"unknown {kind} suite 'theorem10'") as raised:
        run("theorem10", 0)
    assert "\n" not in str(raised.value)
