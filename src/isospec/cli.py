"""Command-line interface.

Subcommands: validate, spectrum, transform, verify, example. Exit codes:
0 = pass, 1 = domain failure (validation/verification/admissibility),
2 = usage or I/O problems. All numeric artifacts are written with fixed
17-significant-digit formatting so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import serialize
from .errors import IsospecError
from .model import (Grid, Problem, builtin_problem, load_problem, potential_to_csv_rows,
                    problem_to_json_obj, validate_problem)
from .ode import integrate_ivp
from .spectrum import DEFAULT_GRID, rescan_spectrum, scan_spectrum
from .transform import (_normalize_entries, build_perturbation, kernel_diagnostics,
                        transform_eigenfunction, transform_problem)
from .verify import check_isospectral, check_shift_tol, compare_spectra, pipeline_residuals

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _load_perturbation_file(path: str) -> list[dict]:
    with open(path) as f:
        entries = json.load(f)
    if not isinstance(entries, list):
        raise ValueError("perturbation file must hold a JSON list of {k, i, c} entries")
    return entries


def _stack_table(path: str, nodes: np.ndarray, values: np.ndarray) -> tuple:
    """One (n, N) vector function sampled at nodes as a CSV table x, c1..cN."""
    header = ["x"] + [f"c{i + 1}" for i in range(values.shape[1])]
    return path, header, np.column_stack([nodes, values])


def cmd_validate(args) -> int:
    problem = load_problem(args.problem)
    report = validate_problem(problem)
    print(report)
    return EXIT_OK if report.all_passed else EXIT_DOMAIN


def cmd_spectrum(args) -> int:
    grid = Grid.uniform(args.grid)
    if args.dump_path is not None and not args.out:
        raise ValueError("--dump-path writes path.csv and needs --out")
    if args.dump_path is not None and not np.isfinite(args.dump_path):
        raise ValueError("--dump-path must be finite")
    problem = load_problem(args.problem)
    report = scan_spectrum(problem, args.lam_min, args.lam_max, grid)
    if args.dump_path is not None:
        # integrated before --out exists, so an overflow leaves no artifacts
        y, yp = integrate_ivp(problem.potential, args.dump_path,
                              problem.left.B.T, -problem.left.A.T, grid)
    obj = report.to_json_obj()
    # artifacts before stdout, so an --out that cannot be written prints nothing
    if args.out:
        out = args.out
        os.makedirs(out, exist_ok=True)
        serialize.write_json(os.path.join(out, "spectrum.json"), obj)
        tables = [_stack_table(os.path.join(out, f"eigenfunction_k{k}_l{l + 1}.csv"),
                               grid.nodes, pair.phis[:, :, l])
                  for k, pair in enumerate(report.pairs) for l in range(pair.multiplicity)]
        if args.dump_path is not None:
            cells = [f"{i + 1}{j + 1}" for i in range(problem.n) for j in range(problem.n)]
            rows = np.column_stack([grid.nodes, y.reshape(grid.n, -1), yp.reshape(grid.n, -1)])
            tables.append((os.path.join(out, "path.csv"),
                           ["x"] + [f"y{c}" for c in cells] + [f"yp{c}" for c in cells], rows))
        serialize.write_csvs(tables)
    if args.format == "csv":
        print("lambda,multiplicity,residual")
        rows = np.array([(p.lam, p.multiplicity, p.residual) for p in report.pairs]).reshape(-1, 3)
        sys.stdout.write(serialize.format_tables([rows])[0].decode())
    else:
        sys.stdout.write(serialize.dumps_json(obj))
    return EXIT_OK


def _run_transform(problem: Problem, entries: list[dict], grid: Grid, window: tuple):
    # checked before the scan, which builds the eigenspaces of the entries' k alone
    entries = _normalize_entries(entries)
    report = scan_spectrum(problem, *window, grid, {e.k for e in entries})
    new_problem, kernel = transform_problem(problem, build_perturbation(report, entries))
    return report, new_problem, kernel


def cmd_transform(args) -> int:
    grid = Grid.uniform(args.grid)
    problem = load_problem(args.problem)
    entries = _load_perturbation_file(args.perturbation)
    _, new_problem, kernel = _run_transform(problem, entries, grid, (args.lam_min, args.lam_max))
    pert = kernel.pert
    psi, _ = transform_eigenfunction(kernel, pert.phis, pert.phi_derivs)
    out = args.out
    os.makedirs(out, exist_ok=True)

    serialize.write_json(os.path.join(out, "boundary.json"), {
        "Atilde": new_problem.left.A.tolist(),
        "AtildeRight": new_problem.right.A.tolist(),
        "K00": kernel.k00.tolist(),
        "Kpipi": kernel.kpipi.tolist(),
    })
    serialize.write_json(os.path.join(out, "kernel_diagnostics.json"),
                         kernel_diagnostics(problem, new_problem, kernel))
    header, rows = potential_to_csv_rows(new_problem.potential)
    serialize.write_csvs([(os.path.join(out, "q_potential.csv"), header, rows)] + [
        _stack_table(os.path.join(out, f"psi_k{entry.k}_i{entry.i}.csv"), grid.nodes, psi[:, :, j])
        for j, entry in enumerate(pert.entries)])
    print(f"wrote transform artifacts to {out} (kernel rank {pert.rank})")
    return EXIT_OK


def cmd_verify(args) -> int:
    shift_tol = args.shift_tol
    check_shift_tol(shift_tol)
    grid = Grid.uniform(args.grid)
    window = (args.lam_min, args.lam_max)
    reports = []

    if args.pipeline:
        problem = load_problem(args.problem_a)
        entries = _load_perturbation_file(args.problem_b)
        report, new_problem, kernel = _run_transform(problem, entries, grid, window)
        new_report = rescan_spectrum(new_problem, report)
        iso = compare_spectra(report, new_report, shift_tol)
        reports = pipeline_residuals(problem, new_problem, kernel)
        lines = [f"[{'pass' if iso.passed else 'FAIL'}] isospectral: "
                 f"max shift {iso.max_shift:.3e} (tolerance {shift_tol:.0e}), "
                 f"multiplicities {'match' if iso.multiplicity_match else 'DIFFER'}"]
        lines += [f"[{'pass' if rep.passed else 'FAIL'}] {rep.name}: "
                  f"max residual {rep.max_residual:.3e} (tolerance {rep.tolerance:.0e})"
                  for rep in reports]
        text = "".join(line + "\n" for line in lines)
    else:
        pa = load_problem(args.problem_a)
        pb = load_problem(args.problem_b)
        iso = check_isospectral(pa, pb, window, shift_tol, grid)
        text = serialize.dumps_json(iso.to_json_obj())

    # verify.json before stdout, so an --out that cannot be written prints nothing
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        serialize.write_json(os.path.join(args.out, "verify.json"), {
            "isospectral": iso.to_json_obj(),
            "residuals": [rep.to_json_obj() for rep in reports],
        })
    sys.stdout.write(text)
    passed = iso.passed and all(rep.passed for rep in reports)
    return EXIT_OK if passed else EXIT_DOMAIN


def cmd_example(args) -> int:
    problem = builtin_problem(args.name)
    if args.perturbation:
        if args.name == "paper-example-2x2":
            # rank-one selection mixing both branches of the double eigenvalue
            obj = [{"k": 1, "i": 1, "c": 1.0, "theta": [-2.0, -1.0]}]
        else:
            obj = [{"k": 0, "i": 1, "c": 1.0}]
        sys.stdout.write(serialize.dumps_json(obj))
    else:
        sys.stdout.write(serialize.dumps_json(problem_to_json_obj(problem)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isospec",
                                 description="Vectorial Sturm-Liouville spectra and "
                                             "isospectral transforms on [0, pi].")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--grid", type=int, default=DEFAULT_GRID.n,
                       help="x-grid node count (odd, >= 5)")
        p.add_argument("--min", dest="lam_min", type=float, default=-10.0,
                       help="lambda window lower edge")
        p.add_argument("--max", dest="lam_max", type=float, default=30.0,
                       help="lambda window upper edge")
        p.add_argument("--out", default="", required=out_required,
                       help="output directory for artifacts")

    p = sub.add_parser("validate", help="check the structural hypotheses of a problem file")
    p.add_argument("problem")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("spectrum", help="scan eigenvalues with multiplicities")
    p.add_argument("problem")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="stdout summary format")
    p.add_argument("--dump-path", type=float, default=None, metavar="LAMBDA",
                   help="also write the matrix solution path at this lambda as CSV")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("transform", help="construct the isospectral problem for a perturbation")
    p.add_argument("problem")
    p.add_argument("perturbation", help="JSON list of {k, i, c[, theta]} entries")
    common(p, out_required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("verify", help="isospectrality of two problems, or --pipeline residual suite")
    p.add_argument("problem_a", help="problem file")
    p.add_argument("problem_b", help="second problem file, or perturbation file with --pipeline")
    p.add_argument("--pipeline", action="store_true",
                   help="treat arguments as (problem, perturbation) and verify the whole transform")
    p.add_argument("--shift-tol", dest="shift_tol", type=float, default=1e-4,
                   help="maximum allowed eigenvalue shift; a shift counts as at least the sum "
                        "of the two Newton residuals, each up to max(1e-10, 64 eps |lambda|)")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example", help="print a builtin problem as JSON")
    p.add_argument("name")
    p.add_argument("--perturbation", action="store_true",
                   help="print a matching sample perturbation instead")
    p.set_defaults(fn=cmd_example)
    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsospecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
