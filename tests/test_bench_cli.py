import json
from decimal import Decimal

import pytest

from sockp import GeneratorSpec, generate, instance_from_json, solve_exact, upper_bound
from sockp.bench import (BOUNDS_FIELDS, EXACT_FIELDS, SCHEME_FIELDS,
                         rows_to_csv, run_bounds_bench, run_exact_bench,
                         run_scheme_comparison, summarize_bounds,
                         summarize_exact, write_report)
from sockp.cli import build_parser, main
from sockp.exact import initial_segments


def test_bounds_bench_rows_and_gap_identity():
    rows = run_bounds_bench(["SC"], [20], [Decimal("0.95")], [2, 4], [0, 1])
    assert len(rows) == 4
    for row in rows:
        assert set(BOUNDS_FIELDS) <= set(row)
        assert row["ub"] >= row["lb"]
        if row["lb"] > 0:
            assert row["gap_pct"] == pytest.approx(
                (row["ub"] - row["lb"]) / row["lb"] * 100)
    # larger m never loosens the mean gap
    summary = summarize_bounds(rows)
    by_m = {s["m"]: s["mean_gap_pct"] for s in summary}
    assert by_m[4] <= by_m[2]


def test_bounds_bench_empty_grids():
    assert run_bounds_bench(["SC"], [10], [Decimal("0.95")], [], [0]) == []
    assert run_bounds_bench(["SC"], [10], [Decimal("0.95")], [2], []) == []


def test_bounds_bench_deterministic_modulo_timing():
    kwargs = (["IC"], [15], [Decimal("0.99")], [3], [0, 1, 2])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "time_ms"}
                          for r in rows]
    assert strip(run_bounds_bench(*kwargs)) == strip(run_bounds_bench(*kwargs))


def test_exact_bench_rows():
    rows = run_exact_bench(["SS"], [12], [Decimal("0.95")], [0, 1])
    assert len(rows) == 2
    for row in rows:
        assert set(EXACT_FIELDS) <= set(row)
        assert row["iters"] >= 0
    summary = summarize_exact(rows)
    assert summary[0]["seeds"] == 2


def test_exact_bench_knap_solves_decompose_per_iteration():
    inst = generate(GeneratorSpec(family="SC", n=25, seed=3))
    omega = Decimal("4.358898")
    res = solve_exact(inst, omega)
    total = 0
    m = initial_segments(inst.n)
    for _ in range(res.iterations):
        m *= 2
        total += upper_bound(inst, omega, m).subproblems_solved
    assert res.subproblems_solved == total


def test_scheme_comparison_rows():
    rows = run_scheme_comparison(["SC"], [15], [Decimal("0.95")], [0],
                                 m_horizontal=[3], m_vertical=[9])
    assert [r["scheme"] for r in rows] == ["horizontal", "vertical"]
    assert all(set(SCHEME_FIELDS) <= set(r) for r in rows)
    assert rows[1]["ub"] >= rows[0]["ub"] - rows[0]["ub"] * 0.01


def test_csv_rendering_and_header():
    rows = [{"family": "SC", "n": 5, "rho": "0.95", "m": 2, "seed": 0,
             "ub": 10, "lb": 9, "gap_pct": None, "time_ms": 1.5}]
    text = rows_to_csv(rows, BOUNDS_FIELDS)
    lines = text.strip().split("\n")
    assert lines[0] == "family,n,rho,m,seed,ub,lb,gap_pct,time_ms"
    assert lines[1] == "SC,5,0.95,2,0,10,9,,1.5"


def test_write_report_json(tmp_path):
    rows = run_bounds_bench(["SC"], [10], [Decimal("0.95")], [2], [0])
    path = tmp_path / "report.json"
    path.write_text(write_report(rows, BOUNDS_FIELDS, "json",
                                 summary=summarize_bounds(rows)))
    doc = json.loads(path.read_text())
    assert doc["rows"] and doc["summary"]
    with pytest.raises(ValueError):
        write_report(rows, BOUNDS_FIELDS, "yaml")


# -- command-line interface ---------------------------------------------------

def test_cli_gen_round_trips(tmp_path):
    out = tmp_path / "inst.json"
    code = main(["gen", "--family", "SC", "--n", "12", "--seed", "7",
                 "--rho", "0.95", "--out", str(out)])
    assert code == 0
    inst = instance_from_json(out.read_text())
    assert inst.n == 12
    assert inst.omega == Decimal("4.358898")
    direct = generate(GeneratorSpec(family="SC", n=12, seed=7,
                                    rho=Decimal("0.95"), omega_kind="chebyshev"))
    assert inst == direct


def test_cli_bounds_and_exact(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "IC", "--n", "10", "--seed", "2",
          "--rho", "0.95", "--out", str(inst_path)])

    assert main(["bounds", "--instance", str(inst_path), "--m", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ub"] >= doc["lb"]
    assert set(doc["ub_solution"]) <= {"0", "1"}

    assert main(["exact", "--instance", str(inst_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    inst = instance_from_json(inst_path.read_text())
    assert doc["objective"] <= sum(inst.profits)
    assert doc["m_star"] >= 1


def test_cli_explicit_omega_overrides(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--family", "SC", "--n", "8", "--seed", "0",
          "--rho", "0.95", "--out", str(inst_path)])
    assert main(["exact", "--instance", str(inst_path), "--omega", "1.96"]) == 0
    relaxed = json.loads(capsys.readouterr().out)
    assert main(["exact", "--instance", str(inst_path)]) == 0
    conservative = json.loads(capsys.readouterr().out)
    assert relaxed["objective"] >= conservative["objective"]


def test_cli_guarantee(capsys):
    assert main(["guarantee", "--n", "100", "--rho", "0.95", "--m", "12",
                 "--target-gap", "0.01"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_segments_dro"] == 12
    assert doc["gap_dro"] <= 0.01


def test_cli_validate(capsys):
    assert main(["validate", "--family", "SC", "--n", "10", "--seed", "1",
                 "--m", "4", "--rho", "0.95", "--ambiguity", "normal",
                 "--samples", "20000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfaction_rate"] >= 0.94


def test_cli_bench_csv(capsys):
    assert main(["bench", "--mode", "bounds", "--families", "SC",
                 "--sizes", "12", "--rhos", "0.95", "--seeds", "0:2",
                 "--m-grid", "2,3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "family,n,rho,m,seed,ub,lb,gap_pct,time_ms"
    assert len(lines) == 5

    assert main(["bench", "--mode", "exact", "--families", "SS",
                 "--sizes", "10", "--rhos", "0.95", "--seeds", "0:1",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "family,n,rho,seed,iters,m_final,knap_solves,time_ms,objective"


def test_cli_compare_schemes(capsys):
    assert main(["compare-schemes", "--families", "SC", "--sizes", "15",
                 "--rhos", "0.95", "--seeds", "0:1", "--m-horizontal", "3",
                 "--m-vertical", "9", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "family,n,rho,seed,scheme,m,ub,time_ms"
    assert len(lines) == 3


def test_cli_invalid_inputs_exit_2(tmp_path, capsys):
    assert main(["bounds", "--m", "3"]) == 2            # no instance source
    capsys.readouterr()
    assert main(["exact", "--family", "SC", "--n", "5", "--omega", "-2"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--instance", "/nonexistent.json", "--m", "2"]) == 2
    capsys.readouterr()
    assert main(["guarantee", "--n", "100", "--rho", "0.95"]) == 2
    capsys.readouterr()
    for gap in ("Infinity", "NaN"):
        assert main(["guarantee", "--n", "5", "--rho", "0.95",
                     "--target-gap", gap]) == 2
        assert "finite" in capsys.readouterr().err
    # Documents that are no JSON object, or whose fields have a wrong type.
    good = {"n": 1, "profits": [5], "means": ["1"], "sigmas": ["1"],
            "capacity": "3"}
    pair = {"n": 2, "profits": [5, 6], "means": ["1", "2"], "sigmas": ["1", "1"],
            "capacity": "3"}
    for doc in ({**good, "profits": 5}, {**good, "means": [None]}, [1, 2],
                {**pair, "profits": [1.5, 2.9]}, {**pair, "profits": "12"},
                {**pair, "means": "12"}, {**pair, "n": 2.7},
                {**good, "n": True, "profits": [True]},
                {**good, "means": [True], "capacity": True},
                {**good, "omega": False}, {**good, "means": [0.1]},
                {**good, "sigmas": [1.5]}, {**good, "capacity": 3.0},
                # A profit beyond float range, which the bounds' ratios need.
                {"n": 3, "profits": [10 ** 400, 5, 7], "means": ["3", "4", "5"],
                 "sigmas": ["0.5", "0.2", "0.1"], "capacity": "8"}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", "--instance", str(path), "--m", "2",
                     "--rho", "0.95"]) == 2
        capsys.readouterr()
    # Empty sweep grids, which would print a header-only report.
    for argv in (["bench", "--mode", "bounds"],
                 ["bench", "--mode", "exact", "--seeds", "5:2"],
                 ["compare-schemes", "--m-horizontal", "", "--m-vertical", ""]):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


def _csv_row(capsys):
    """The one data row of a CSV report on standard output, by column."""
    header, row = capsys.readouterr().out.strip().split("\n")
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("argv, omega, bound", [
    # gamma1 / gamma2 > 1 - rho: omega = sqrt(gamma2 / (1 - rho)).
    (["--family", "SC", "--n", "10", "--ambiguity", "delage-ye",
      "--gamma1", "0.1", "--gamma2", "1.5"], "5.477225", "294"),
    # gamma1 / gamma2 <= 1 - rho: the mean-shift regime.
    (["--family", "SC", "--n", "10", "--ambiguity", "delage-ye",
      "--gamma1", "0.06", "--gamma2", "1.5"], "5.475627", "294"),
    (["--family", "SC", "--n", "3", "--ambiguity", "support",
      "--support-lower", "0,0,0", "--support-upper", "1,2,3"],
     "1.223873", "82"),
])
def test_cli_bounds_csv_under_each_ambiguity(argv, omega, bound, capsys):
    assert main(["bounds", *argv, "--m", "3", "--rho", "0.95",
                 "--format", "csv"]) == 0
    row = _csv_row(capsys)
    assert list(row) == ["n", "m", "omega", "ub", "ub_time_ms", "ub_solution",
                         "lb", "lb_time_ms", "lb_solution", "gap_pct"]
    assert (row["omega"], row["ub"], row["lb"], row["gap_pct"]) == (
        omega, bound, bound, "0.0")


def test_cli_exact_csv_drops_the_history(capsys):
    argv = ["exact", "--family", "SC", "--n", "3", "--rho", "0.95",
            "--ambiguity", "support", "--support-lower", "0,0,0",
            "--support-upper", "1,2,3"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    row = _csv_row(capsys)
    assert list(row) == [k for k in doc if k != "objective_history"]
    assert row["omega"] == "1.223873"
    assert (row["objective"], row["solution"]) == ("82", "110")
    assert {k: str(v) for k, v in doc.items()
            if k not in ("objective_history", "time_ms")} == {
        k: v for k, v in row.items() if k != "time_ms"}


@pytest.mark.parametrize("argv", [
    ["--family", "SC", "--n", "10", "--rho", "0.95",
     "--ambiguity", "delage-ye", "--gamma1", "0.1"],
    ["--family", "SC", "--n", "3", "--rho", "0.95", "--ambiguity", "support",
     "--support-lower", "0,0", "--support-upper", "1,2"],
    ["--family", "SC", "--n", "3", "--rho", "0.95", "--ambiguity", "support",
     "--support-lower", "0,0,0", "--support-upper", "1,2"],
    ["--family", "SC", "--n", "3", "--rho", "0.95", "--ambiguity", "support"],
    ["--family", "SC", "--n", "3"],  # no safety factor at all
])
def test_cli_ambiguity_errors_exit_2(argv, capsys):
    assert main(["bounds", *argv, "--m", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_internal_invariant_failure_exits_3(monkeypatch, tmp_path):
    import sockp.cli as cli
    from sockp import SolverInvariantError

    def boom(*args, **kwargs):
        raise SolverInvariantError("forced failure")

    monkeypatch.setattr(cli, "solve_exact", boom)
    assert cli.main(["exact", "--family", "SC", "--n", "5", "--seed", "0",
                     "--rho", "0.95"]) == 3


def test_cli_seed_range_parsing(capsys):
    assert main(["bench", "--mode", "bounds", "--families", "SC",
                 "--sizes", "10", "--rhos", "0.95", "--seeds", "3,5:7",
                 "--m-grid", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[4] for line in lines[1:]] == ["3", "5", "6"]


def test_cli_knapsack_reconstruction_failure_exits_3(monkeypatch, capsys):
    import sockp.knapsack as knapsack

    real = knapsack._dp_by_profit

    def off_by_one(*args):
        value, chosen = real(*args)
        return value + 1, chosen

    monkeypatch.setattr(knapsack, "_dp_by_profit", off_by_one)
    assert main(["bounds", "--family", "SC", "--n", "30", "--seed", "0",
                 "--rho", "0.95", "--m", "4"]) == 3
    assert "internal error: reconstructed value" in capsys.readouterr().err


def test_cli_unsound_screen_exits_3(monkeypatch, capsys):
    import sockp.rkpm as rkpm

    real = rkpm.lp_rows
    monkeypatch.setattr(rkpm, "lp_rows", lambda *args: [
        (*lp[:3], lp[3] - 10) for lp in real(*args)])
    assert main(["bounds", "--family", "SC", "--n", "30", "--m", "5",
                 "--rho", "0.95"]) == 3
    assert "above its screen bound" in capsys.readouterr().err


def test_cli_screen_understated_by_less_than_half_exits_3(monkeypatch, tmp_path,
                                                         capsys):
    import sockp.rkpm as rkpm

    # Every item fits every pivot, so each LP optimum is the value 12, and
    # understating it by 0.3 floors the bound to 11.
    inst_path = tmp_path / "loose.json"
    inst_path.write_text('{"n": 3, "profits": [5, 4, 3], '
                         '"means": ["1", "2", "3"], '
                         '"sigmas": ["0.5", "0.5", "0.5"], "capacity": "50"}')
    real = rkpm.lp_rows
    monkeypatch.setattr(rkpm, "lp_rows", lambda *args: [
        (*lp[:3], lp[3] - 1) for lp in real(*args)])
    assert main(["bounds", "--instance", str(inst_path), "--m", "3",
                 "--rho", "0.95"]) == 3
    assert "above its screen bound" in capsys.readouterr().err


def test_cli_bounds_on_an_empty_instance(tmp_path, capsys):
    inst_path = tmp_path / "empty.json"
    inst_path.write_text('{"n": 0, "profits": [], "means": [], "sigmas": [], '
                         '"capacity": "3"}')
    assert main(["bounds", "--instance", str(inst_path), "--m", "3",
                 "--rho", "0.95"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ub"] == doc["lb"] == 0
    assert doc["ub_solution"] == doc["lb_solution"] == ""


@pytest.mark.parametrize("flag", [["--scale-factor", "0"], ["--threads", "2"]])
@pytest.mark.parametrize("command", [
    ["bounds", "--family", "SC", "--n", "5", "--rho", "0.95", "--m", "2"],
    ["exact", "--family", "SC", "--n", "5", "--rho", "0.95"],
    ["bench", "--sizes", "5", "--seeds", "0:1", "--m-grid", "2"],
])
def test_cli_removed_flags_are_usage_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Every decimal flag of every subcommand, with the rest of a valid command.
_SOLVE = ["--family", "SC", "--n", "3"]
_DECIMAL_FLAGS = [
    (["gen", "--family", "SC", "--n", "3"], "--rho"),
    *((command, flag)
      for command in (["bounds", *_SOLVE, "--m", "2"], ["exact", *_SOLVE],
                      ["validate", *_SOLVE, "--m", "2", "--samples", "10"])
      for flag in ("--rho", "--gamma1", "--gamma2", "--omega",
                   "--support-lower", "--support-upper")),
    (["guarantee", "--n", "5", "--m", "3"], "--rho"),
    (["guarantee", "--n", "5", "--rho", "0.95"], "--target-gap"),
    (["bench", "--sizes", "5", "--seeds", "0:1", "--m-grid", "2"], "--rhos"),
    (["compare-schemes", "--sizes", "5", "--seeds", "0:1"], "--rhos"),
]


@pytest.mark.parametrize("command, flag", _DECIMAL_FLAGS,
                         ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("value", ["abc", "0.9,x", "1.2.3"])
def test_cli_malformed_decimal_flags_are_usage_errors(command, flag, value,
                                                      capsys):
    """A malformed decimal is bad input: exit 2, naming the flag, and no
    traceback."""
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "is not a decimal" in err


@pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity"])
@pytest.mark.parametrize("argv, field", [
    (["bounds", *_SOLVE, "--m", "2", "--omega"], "omega"),
    (["exact", *_SOLVE, "--rho"], "confidence level"),
    (["gen", "--family", "SC", "--n", "3", "--rho"], "confidence level"),
    (["guarantee", "--n", "5", "--m", "3", "--rho"], "confidence level"),
    (["guarantee", "--n", "5", "--rho", "0.95", "--target-gap"],
     "target gap"),
    (["bench", "--sizes", "5", "--seeds", "0:1", "--m-grid", "2", "--rhos"],
     "confidence level"),
    (["bounds", *_SOLVE, "--m", "2", "--rho", "0.95", "--ambiguity",
      "delage-ye", "--gamma2", "1.5", "--gamma1"], "gamma1"),
    (["bounds", *_SOLVE, "--m", "2", "--rho", "0.95", "--ambiguity",
      "delage-ye", "--gamma1", "0.1", "--gamma2"], "gamma2"),
    (["validate", *_SOLVE, "--m", "2", "--rho", "0.95", "--ambiguity",
      "support", "--support-upper", "1,2,3", "--support-lower"],
     "support bounds"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_decimal_flags_that_are_no_finite_number_exit_2(argv, field,
                                                           value, capsys):
    """NaN, a signaling NaN and infinity parse as decimals; the library
    refuses them by the field's name, and the CLI exits 2."""
    if field == "support bounds":
        value = f"0,{value},0"
    assert main(argv + [value]) == 2
    err = capsys.readouterr().err
    assert field in err and "InvalidOperation" not in err


@pytest.mark.parametrize("field, value, named", [
    ("means", ["abc", "2"], "a mean"),
    ("means", ["NaN", "2"], "means"),
    ("sigmas", ["1", "sNaN"], "sigmas"),
    ("sigmas", ["1", "1.2.3"], "a sigma"),
    ("capacity", "NaN", "capacity"),
    ("capacity", "x1", "capacity"),
    ("omega", "NaN", "omega"),
    ("omega", "sNaN", "omega"),
    ("omega", "zz", "omega"),
])
def test_cli_json_decimals_that_are_no_finite_number_exit_2(
        tmp_path, capsys, field, value, named):
    doc = {"n": 2, "profits": [5, 6], "means": ["1", "2"],
           "sigmas": ["1", "1"], "capacity": "3", field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", "--instance", str(path), "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert named in err and "InvalidOperation" not in err


@pytest.mark.parametrize("field, value, named", [
    ("capacity", "1E+1000000", "capacity"),
    ("capacity", "0E-5000", "capacity"),
    ("means", ["1E-1000000", "2"], "a mean"),
    ("means", ["1E-5000", "2"], "a mean"),
    ("sigmas", ["1", "1E-600000"], "a sigma"),
    ("omega", "1E+600000", "omega"),
])
def test_cli_json_decimals_outside_the_exponent_range_exit_2(
        tmp_path, capsys, field, value, named):
    doc = {"n": 2, "profits": [5, 6], "means": ["1", "2"],
           "sigmas": ["1", "1"], "capacity": "3", field: value}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", "--instance", str(path), "--m", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} has decimal exponent")
    assert "[-1000, 1000]" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--family", "SC", "--n", "2", "--m", "2", "--rho", "0.95",
      "--ambiguity", "support", "--support-lower", "0,0",
      "--support-upper", "1E+600000,1"], "--support-upper"),
    (["bounds", *_SOLVE, "--m", "2", "--rho", "0.95", "--ambiguity",
      "delage-ye", "--gamma1", "1E-1000000", "--gamma2", "1E+1000000"],
     "--gamma1"),
    (["bounds", *_SOLVE, "--m", "2", "--omega", "1E-600000"], "--omega"),
    (["exact", *_SOLVE, "--omega", "1E+600000"], "--omega"),
    (["guarantee", "--n", "5", "--rho", "0.95", "--target-gap", "1E-1000000"],
     "--target-gap"),
    (["bench", "--sizes", "5", "--seeds", "0:1", "--m-grid", "2",
      "--rhos", "0.95,0E-5000"], "--rhos"),
], ids=["support-upper", "gamma1", "omega-small", "omega-large", "target-gap",
        "rhos"])
def test_cli_decimal_flags_outside_the_exponent_range_are_usage_errors(
        argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: value has decimal exponent" in err
    assert "[-1000, 1000]" in err and "Traceback" not in err


# Every integer-list flag of a sweep, with the rest of a valid command.
@pytest.mark.parametrize("argv, flag", [
    (["bench", "--m-grid", "2", "--sizes"], "--sizes"),
    (["bench", "--m-grid", "2", "--seeds"], "--seeds"),
    (["bench", "--m-grid"], "--m-grid"),
    (["compare-schemes", "--sizes"], "--sizes"),
    (["compare-schemes", "--seeds"], "--seeds"),
    (["compare-schemes", "--m-horizontal"], "--m-horizontal"),
    (["compare-schemes", "--m-vertical"], "--m-vertical"),
], ids=lambda v: v if isinstance(v, str) else v[0])
@pytest.mark.parametrize("value", ["x", "3:a", "2,y"])
def test_cli_malformed_integer_list_flags_are_usage_errors(argv, flag, value,
                                                           capsys):
    """A malformed list is bad input: exit 2 before any solve, naming the
    flag, and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid literal for int()" in err


def test_cli_list_flags_parse_names_ranges_and_defaults():
    args = build_parser().parse_args(
        ["bench", "--families", " SC, ,IC ", "--seeds", "3,5:7",
         "--m-grid", "2, 4"])
    assert (args.families, args.sizes, args.seeds, args.m_grid) == (
        ["SC", "IC"], [100], [3, 5, 6], [2, 4])
    args = build_parser().parse_args(["compare-schemes"])
    assert (args.families, args.sizes, args.seeds, args.m_horizontal,
            args.m_vertical) == (["SC"], [400], [0, 1, 2, 3, 4], [10], [100])


# JSON integers past Python's 4,300-digit int-string limit, refused by their
# field's name; and JSON strings where an integer is required.
@pytest.mark.parametrize("field, value, named", [
    ("profits", "[%s, 6]" % ("9" * 5000), "a profit has more than 40 digits"),
    ("profits", "[-%s, 6]" % ("9" * 41), "a profit has more than 40 digits"),
    ("n", "9" * 5000, "n has more than 40 digits"),
    ("means", "[%s, 2]" % ("9" * 5000), "a mean has decimal exponent 4999"),
    ("profits", '["5", 6]', "a profit must be a JSON integer, got '5'"),
    ("n", '"2"', "n must be a JSON integer, got '2'"),
], ids=["long-profit", "41-digit-profit", "long-n", "long-mean",
        "string-profit", "string-n"])
def test_cli_json_integers_refused_by_field_exit_2(tmp_path, capsys, field,
                                                   value, named):
    doc = {"n": 2, "profits": [5, 6], "means": ["1", "2"],
           "sigmas": ["1", "1"], "capacity": "3"}
    text = json.dumps({**doc, field: "@"}).replace('"@"', value)
    with pytest.raises(ValueError, match=named):
        instance_from_json(text)
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["bounds", "--instance", str(path), "--m", "2",
                 "--omega", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and "4300" not in err


def test_json_integers_within_the_digit_cap_load_exactly():
    """A 40-digit profit, and JSON integers wherever a decimal is taken."""
    profit = 10 ** 39 + 7
    inst = instance_from_json(json.dumps(
        {"n": 2, "profits": [profit, 6], "means": [1, "2"],
         "sigmas": ["1", 1], "capacity": 3}))
    assert inst.profits == (profit, 6)
    assert (inst.means, inst.sigmas, inst.capacity) == (
        (Decimal(1), Decimal(2)), (Decimal(1), Decimal(1)), Decimal(3))


@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "profits": [5, 6], "means": ["1", "2"], "sigmas": ["1", "1"]}',
     "instance document is missing field 'capacity'"),
    ("[" * 200_000 + "]" * 200_000, "instance document is nested too deeply"),
], ids=["missing-field", "nested"])
def test_cli_instance_documents_refused_by_message_exit_2(tmp_path, capsys,
                                                          text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        instance_from_json(text)
    assert main(["bounds", "--instance", str(path), "--m", "2",
                 "--omega", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
