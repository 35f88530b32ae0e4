import json
from decimal import Decimal

import pytest

from sockp import GeneratorSpec, generate, instance_from_json, solve_exact, upper_bound
from sockp.bench import (BOUNDS_FIELDS, EXACT_FIELDS, SCHEME_FIELDS,
                         rows_to_csv, run_bounds_bench, run_exact_bench,
                         run_scheme_comparison, summarize_bounds,
                         summarize_exact, write_report)
from sockp.cli import main
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
    write_report(rows, BOUNDS_FIELDS, "json", out=str(path),
                 summary=summarize_bounds(rows))
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


def test_cli_invalid_inputs_exit_2(capsys):
    assert main(["bounds", "--m", "3"]) == 2            # no instance source
    capsys.readouterr()
    assert main(["exact", "--family", "SC", "--n", "5", "--omega", "-2"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--instance", "/nonexistent.json", "--m", "2"]) == 2
    capsys.readouterr()
    assert main(["guarantee", "--n", "100", "--rho", "0.95"]) == 2
    capsys.readouterr()


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

    real = rkpm._dantzig_rows
    monkeypatch.setattr(rkpm, "_dantzig_rows", lambda *args: real(*args) - 10)
    assert main(["bounds", "--family", "SC", "--n", "30", "--m", "5",
                 "--rho", "0.95"]) == 3
    assert "above its screen bound" in capsys.readouterr().err


def test_cli_screen_understated_by_less_than_half_exits_3(monkeypatch, tmp_path,
                                                         capsys):
    import sockp.rkpm as rkpm

    # Every item fits every pivot, so each LP optimum is the value 12.
    inst_path = tmp_path / "loose.json"
    inst_path.write_text('{"n": 3, "profits": [5, 4, 3], '
                         '"means": ["1", "2", "3"], '
                         '"sigmas": ["0.5", "0.5", "0.5"], "capacity": "50"}')
    real = rkpm._dantzig_rows
    monkeypatch.setattr(rkpm, "_dantzig_rows", lambda *args: real(*args) - 0.3)
    assert main(["bounds", "--instance", str(inst_path), "--m", "3",
                 "--rho", "0.95"]) == 3
    assert "above its screen bound" in capsys.readouterr().err


def test_cli_row_bound_above_its_block_bound_exits_3(monkeypatch, capsys):
    import sockp.rkpm as rkpm

    real = rkpm._Family.screen

    def zero(fam):
        blocks, skipped = real(fam)
        return [(first, stop, 0.0) for first, stop, _ in blocks], skipped

    monkeypatch.setattr(rkpm._Family, "screen", zero)
    assert main(["bounds", "--family", "SC", "--n", "30", "--m", "5",
                 "--rho", "0.95"]) == 3
    assert "above their block bound" in capsys.readouterr().err


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
