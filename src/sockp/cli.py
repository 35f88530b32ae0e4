"""Command-line interface.

Subcommands: gen, bounds, exact, guarantee, validate, bench, compare-schemes.
Exit codes: 0 on success, 2 for invalid input, 3 when an internal solver
invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation

from . import bench
from .approx import build_segments
from .exact import m_star, solve_exact
from .guarantees import (guarantee_gap_dro, guarantee_gap_normal,
                         min_segments_dro, min_segments_normal_order,
                         monte_carlo_feasibility)
from .instances import FAMILIES, GeneratorSpec, generate
from .model import (OmegaSpec, _check_rho, apply_omega_spec, as_decimal,
                    instance_from_json, instance_to_json)
from .rkpm import SolverInvariantError, lower_bound, upper_bound

AMBIGUITIES = ("normal", "chebyshev", "delage-ye", "support")

# A sweep has one row per combination of its list flags' values.
_EMPTY_GRID = "empty sweep grid: a list flag such as --seeds gives no values"


def _int_list(text: str) -> list[int]:
    """Comma list and/or a:b ranges, e.g. '5,10' or '0:10' (end exclusive).
    argparse reports a malformed one with the flag's name and exit code 2."""
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ":" in part:
                lo, hi = part.split(":", 1)
                out.extend(range(int(lo), int(hi)))
            elif part:
                out.append(int(part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return out


def _name_list(text: str) -> list[str]:
    """Comma list of names, e.g. 'SC,IC'."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _decimal(text: str) -> Decimal:
    """A decimal flag value.  argparse reports a malformed one, or one whose
    exponent is out of range, with the flag's name and exit code 2; NaN and
    infinities parse, and the library
    refuses them as the field they are."""
    try:
        return as_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _decimal_list(text: str) -> tuple[Decimal, ...]:
    """Comma list of decimals, each as for :func:`_decimal`."""
    return tuple(_decimal(part) for part in text.split(",") if part.strip())


def _add_generator_args(parser, required=False):
    parser.add_argument("--family", choices=FAMILIES, required=required)
    parser.add_argument("--n", type=int, required=required)
    parser.add_argument("--seed", type=int, default=0)


def _add_solver_args(parser):
    parser.add_argument("--instance", help="instance JSON file (overrides generator flags)")
    parser.add_argument("--rho", type=_decimal)
    parser.add_argument("--ambiguity", choices=AMBIGUITIES, default="chebyshev")
    parser.add_argument("--gamma1", type=_decimal, help="delage-ye mean-shift budget")
    parser.add_argument("--gamma2", type=_decimal, help="delage-ye covariance factor")
    parser.add_argument("--support-lower", type=_decimal_list,
                        help="comma list of interval lower bounds")
    parser.add_argument("--support-upper", type=_decimal_list,
                        help="comma list of interval upper bounds")
    parser.add_argument("--support-form", choices=("squares", "hoeffding"),
                        default="squares")
    parser.add_argument("--omega", type=_decimal, help="explicit safety factor")


def _add_output_args(parser):
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_sweep_args(parser, sizes, seeds, grids):
    """The flags of a seeded sweep, in their --help order: the shared lists
    with this command's defaults, then ``grids`` ({flag: (default, help)}),
    then the ambiguity and the output flags."""
    parser.add_argument("--families", type=_name_list, default="SC")
    parser.add_argument("--sizes", type=_int_list, default=sizes)
    parser.add_argument("--rhos", type=_decimal_list, default="0.95")
    parser.add_argument("--seeds", type=_int_list, default=seeds)
    for flag, (default, text) in grids.items():
        parser.add_argument(flag, type=_int_list, default=default, help=text)
    parser.add_argument("--ambiguity", choices=("normal", "chebyshev"), default="chebyshev")
    _add_output_args(parser)


def _load_instance(args):
    """The instance and its safety factor.  Priority: --omega, then --rho
    with --ambiguity, then the value stamped in the instance."""
    if args.instance:
        with open(args.instance) as fh:
            inst = instance_from_json(fh.read())
    elif args.family is None or args.n is None:
        raise ValueError("either --instance or --family/--n must be given")
    else:
        inst = generate(GeneratorSpec(family=args.family, n=args.n, seed=args.seed))
    if args.omega is not None:
        return inst, args.omega
    if args.rho is not None:
        return apply_omega_spec(inst, OmegaSpec(
            kind=args.ambiguity, rho=args.rho, gamma1=args.gamma1,
            gamma2=args.gamma2, lower=args.support_lower,
            upper=args.support_upper, support_form=args.support_form))
    if inst.omega is None:
        raise ValueError("no safety factor: give --omega, or --rho with --ambiguity")
    return inst, inst.omega


def _emit(text: str, out) -> int:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report(row: dict, args, drop=()) -> int:
    """Write one row as indented JSON, or as a CSV header and one line
    without the ``drop`` fields."""
    if getattr(args, "format", "json") == "csv":
        fields = [key for key in row if key not in drop]
        return _emit(bench.rows_to_csv([row], fields), args.out)
    return _emit(json.dumps(row, indent=2) + "\n", args.out)


def _sweep(args, rows, fields, summary=None) -> int:
    if not rows:
        raise ValueError(_EMPTY_GRID)
    return _emit(bench.write_report(rows, fields, args.format, summary=summary),
                 args.out)


def _cmd_gen(args):
    spec = GeneratorSpec(family=args.family, n=args.n, seed=args.seed,
                         rho=args.rho,
                         omega_kind=args.ambiguity if args.rho is not None else None)
    return _emit(instance_to_json(generate(spec)), args.out)


def _cmd_bounds(args):
    inst, omega = _load_instance(args)
    table = build_segments(inst, omega, args.m)
    row = {"n": inst.n, "m": args.m, "omega": str(omega)}
    for key, bound, delta in (("ub", upper_bound, "upper"),
                              ("lb", lower_bound, "lower")):
        if args.delta in (delta, "both"):
            res = bound(inst, omega, args.m, table=table)
            row.update({key: res.objective,
                        f"{key}_time_ms": round(res.wall_time * 1000, 3),
                        f"{key}_solution": "".join(map(str, res.solution))})
    if "ub" in row and "lb" in row and row["lb"] > 0:
        row["gap_pct"] = (row["ub"] - row["lb"]) / row["lb"] * 100
    return _report(row, args)


def _cmd_exact(args):
    inst, omega = _load_instance(args)
    res = solve_exact(inst, omega)
    return _report({
        "n": inst.n, "omega": str(omega), "objective": res.objective,
        "iterations": res.iterations, "m_final": res.m,
        "knap_solves": res.subproblems_solved,
        "time_ms": round(res.wall_time * 1000, 3),
        "m_star": m_star(inst, omega),
        "solution": "".join(map(str, res.solution)),
        "objective_history": list(res.objective_history),
    }, args, drop=("objective_history",))


def _cmd_guarantee(args):
    _check_rho(args.rho)  # exactly, and before float() meets a signaling NaN
    rho = float(args.rho)
    row = {"n": args.n, "rho": rho}
    if args.m is not None:
        row["gap_normal"] = guarantee_gap_normal(args.n, args.m, rho)
        row["gap_dro"] = guarantee_gap_dro(args.n, args.m, rho)
    if args.target_gap is not None:
        row["min_segments_dro"] = min_segments_dro(args.n, args.rho, args.target_gap)
        row["min_segments_normal"] = min_segments_normal_order(
            args.n, args.rho, args.target_gap)
    if args.m is None and args.target_gap is None:
        raise ValueError("give --m for gap values and/or --target-gap for segment counts")
    return _report(row, args)


def _cmd_validate(args):
    inst, omega = _load_instance(args)
    lb = lower_bound(inst, omega, args.m)
    rate = monte_carlo_feasibility(lb.solution, inst, samples=args.samples,
                                   seed=args.mc_seed)
    row = {
        "n": inst.n, "m": args.m, "omega": str(omega),
        "objective": lb.objective,
        "solution": "".join(map(str, lb.solution)),
        "samples": args.samples, "mc_seed": args.mc_seed,
        "satisfaction_rate": rate,
    }
    if args.rho is not None:
        row["rho"] = float(args.rho)
    return _report(row, args)


def _cmd_bench(args):
    if args.mode == "exact":
        rows = bench.run_exact_bench(args.families, args.sizes, args.rhos,
                                     args.seeds, ambiguity=args.ambiguity)
        return _sweep(args, rows, bench.EXACT_FIELDS, bench.summarize_exact(rows))
    rows = bench.run_bounds_bench(args.families, args.sizes, args.rhos,
                                  args.m_grid, args.seeds,
                                  ambiguity=args.ambiguity)
    return _sweep(args, rows, bench.BOUNDS_FIELDS, bench.summarize_bounds(rows))


def _cmd_compare_schemes(args):
    rows = bench.run_scheme_comparison(
        args.families, args.sizes, args.rhos, args.seeds,
        m_horizontal=args.m_horizontal, m_vertical=args.m_vertical,
        ambiguity=args.ambiguity)
    return _sweep(args, rows, bench.SCHEME_FIELDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sockp",
        description="Bounds and exact solutions for SOC-constrained binary knapsacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance as JSON")
    _add_generator_args(p, required=True)
    p.add_argument("--rho", type=_decimal, help="stamp a safety factor for this level")
    p.add_argument("--ambiguity", choices=("normal", "chebyshev"), default="chebyshev")
    p.add_argument("--out")

    p = sub.add_parser("bounds", help="upper/lower bounds at a fixed segment count")
    _add_generator_args(p)
    _add_solver_args(p)
    _add_output_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", choices=("upper", "lower", "both"), default="both")

    p = sub.add_parser("exact", help="solve to optimality by doubling segments")
    _add_generator_args(p)
    _add_solver_args(p)
    _add_output_args(p)

    p = sub.add_parser("guarantee", help="closed-form probability guarantees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_decimal, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--target-gap", type=_decimal)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="Monte-Carlo check of a lower-bound solution")
    _add_generator_args(p)
    _add_solver_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--mc-seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="seeded benchmark sweeps")
    p.add_argument("--mode", choices=("bounds", "exact"), default="bounds")
    _add_sweep_args(p, "100", "0:10", {"--m-grid": (
        "", "segment grid for bounds mode, e.g. 5,10,20")})

    p = sub.add_parser("compare-schemes",
                       help="horizontal vs vertical upper bounds on shared instances")
    _add_sweep_args(p, "400", "0:5", {"--m-horizontal": ("10", None),
                                      "--m-vertical": ("100", None)})

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "bounds": _cmd_bounds,
    "exact": _cmd_exact,
    "guarantee": _cmd_guarantee,
    "validate": _cmd_validate,
    "bench": _cmd_bench,
    "compare-schemes": _cmd_compare_schemes,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SolverInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InvalidOperation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
