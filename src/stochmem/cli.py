"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 usage error.  No option may be
abbreviated.  run prints the CSV header and row of its report.csv, the row a
sweep writes; every other table on stdout is tab-separated.

A command takes one flag per config.FIELDS key it reads (_READS), and no
other; the FIELDS row and ExperimentConfig give each value its spelling,
parse, default and check, whichever command reads it.  run, sweep and
calibrate also take --config, a file of keys they read; precedence, lowest
first: defaults, the file, the flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .calibrate import GAP_TOL_PP, NOISE_FIT_SEEDS, calibrate_access, calibrate_noise
from .circuits import WIRING, AppKind, gamma_fit
from .config import FIELD_BY_KEY, FIELDS, parse_at, read_values, resolve_config
from .costs import GROUPS, SystemDesign, area_report, energy_report, share_breakdown
from .harness import (CSV_COLUMNS, DEFAULT_SEEDS, PAPER_LENGTHS, ExperimentConfig,
                      distinct, report_csv_row, run_experiment, sweep)
from .images import save_pgm
from .synth import INPUT_DIMS, INPUT_SEED, gen_test_inputs

# the FIELDS keys each command reads
_READS = {
    "run": set(FIELD_BY_KEY),
    "sweep": set(FIELD_BY_KEY) - {"app", "design", "length"},
    "cost": {"length", "costs"},
    "fit-gamma": {"gamma_exponent", "bernstein_degree"},
    "gen-inputs": {"dims", "input_seed"},
    "calibrate": {"seed", "dims", "input_seed", "input", "theta", "delta", "gamma_exponent",
                  "bernstein_degree", "jobs"},
    "calibrate-access": set(),
}


def _parse_list(kind, spec: str, name: str) -> list:
    """The members of the enum ``kind`` named in a comma list, or all of them;
    the list ``name`` must name at least one, and none twice."""
    return distinct(name, list(kind) if spec == "all"
                    else [kind.from_name(s) for s in spec.split(",") if s])


def _config_from_args(args, need=()) -> ExperimentConfig:
    """Defaults, then the --config file, then the flags given; the file or a
    flag must set each key in ``need``, and the file may set no key the
    command does not read."""
    values = read_values(args.config, args.command, _READS[args.command]) if args.config else {}
    for f in FIELDS:
        if getattr(args, f.key, None) is not None:
            values[f.key] = parse_at(f.parse, getattr(args, f.key), f.flag)
    missing = [FIELD_BY_KEY[k].flag for k in need if k not in values]
    if missing:
        args.parser.error(f"{' and '.join(missing)} required (as a flag or a --config key)")
    return resolve_config(values)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stochmem",
                                 description="Stochastic image-processing system simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(command: str, handler, help: str, config: bool = False,
            description: str | None = None) -> argparse.ArgumentParser:
        # a prefix would be one more spelling: sweep's --apps would take --app
        p = sub.add_parser(command, help=help, description=description, allow_abbrev=False)
        p.set_defaults(parser=p, config=None, handler=handler)
        if config:
            p.add_argument("--config", help="flat key=value config file; flags given override "
                                            "its keys")
        for f in FIELDS:
            if f.key in _READS[command]:
                p.add_argument(f.flag, dest=f.key, help=f.help)
        return p

    p_run = add("run", _cmd_run, "run one experiment and report accuracy and cost", config=True)
    p_run.add_argument("--out", help="directory for output.pgm and report.csv")

    p_sweep = add("sweep", _cmd_sweep, "run the app x design x length x seed grid", config=True,
                  description="sweep reads no app, design or length key: for app use --apps, "
                              "for design use --designs, for length use --lengths.")
    p_cost = add("cost", _cmd_cost, "print area and energy tables")
    for p in (p_sweep, p_cost):
        p.add_argument("--apps", default="all", help="comma list or 'all'")
        p.add_argument("--designs", default="all", help="comma list or 'all'")
    p_sweep.add_argument("--lengths", default=",".join(str(v) for v in PAPER_LENGTHS),
                         help="comma list of bitstream lengths")
    p_sweep.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                         help="runs per configuration (seed = base + index)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    add("fit-gamma", _cmd_fit_gamma, "fit the power function as a Bernstein polynomial")

    p_gen = add("gen-inputs", _cmd_gen_inputs,
                "write the synthetic inputs the apps read as PGM files",
                description="The files hold the 8-bit rounding of the float64 frames a "
                            "synthetic run reads, so a run with --input on them is not that run.")
    p_gen.add_argument("--out", required=True, help="output directory")

    p_cal = add("calibrate", _cmd_calibrate, "fit the noise sigma to the accuracy gap",
                config=True,
                description="calibrate reads no app, design, length, sigma or energy key: the "
                            "noise fit runs every app on conv-mtj and stochmem, runs at length "
                            f"{ExperimentConfig.length}, measures no energy and fits both "
                            "sigmas (use --target-gap to set the gap they are fitted to).")
    p_cal.add_argument("--target-gap", type=float, default=0.19,
                       help="accuracy gap target in percentage points")
    p_cal.add_argument("--tol", type=float, default=GAP_TOL_PP, help="gap tolerance")
    p_cal.add_argument("--seeds", type=int, default=NOISE_FIT_SEEDS,
                       help="runs per evaluation (seed = base + index)")

    add("calibrate-access", _cmd_calibrate_access,
        "fit the access multipliers to the energy reductions")
    return ap


def _cmd_run(args) -> int:
    cfg = _config_from_args(args, need=("app", "design"))
    report = run_experiment(cfg)
    csv = ",".join(CSV_COLUMNS) + "\n" + report_csv_row(report) + "\n"
    print(csv, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_pgm(report.output, out / "output.pgm")
        (out / "report.csv").write_text(csv)
        print(f"wrote {out / 'output.pgm'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    lengths = tuple(parse_at(int, s, "--lengths") for s in args.lengths.split(",") if s)
    lines = sweep(cfg, _parse_list(AppKind, args.apps, "apps"),
                  _parse_list(SystemDesign, args.designs, "designs"), lengths,
                  n_seeds=args.seeds, out_csv=args.out)
    print(f"wrote {args.out} ({len(lines) - 1} rows)")
    return 0


def _print_report(report, value_name: str) -> None:
    print(f"unit\tgroup\t{value_name}")
    for unit, group, value in report.entries:
        print(f"{unit}\t{group}\t{value:g}")
    shares = share_breakdown(report)
    print(f"total\t\t{report.total:g}")
    print("shares\t" + "\t".join(f"{g}={shares[g]:.3f}" for g in GROUPS))


def _cmd_cost(args) -> int:
    cfg = _config_from_args(args)
    designs = _parse_list(SystemDesign, args.designs, "designs")
    for app in _parse_list(AppKind, args.apps, "apps"):
        for design in designs:
            print(f"# area_um2 app={app.value} design={design.value}")
            _print_report(area_report(design, app, cfg.costs), "area_um2")
            print(f"# energy_pJ_per_pixel app={app.value} design={design.value} "
                  f"length={cfg.length}")
            _print_report(energy_report(design, app, cfg.length, model=cfg.costs), "energy_pJ")
    return 0


def _cmd_fit_gamma(args) -> int:
    coeffs, max_err = gamma_fit(_config_from_args(args).params)
    print("coefficient\tvalue")
    for k, c in enumerate(coeffs):
        print(f"b{k}\t{c:.6f}")
    print(f"max_fit_error\t{max_err:.6f}")
    return 0


def _cmd_gen_inputs(args) -> int:
    cfg = _config_from_args(args)
    dims = cfg.dims or INPUT_DIMS
    seed = INPUT_SEED if cfg.input_seed is None else cfg.input_seed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind in dict.fromkeys(w.synthetic for w in WIRING.values()):
        frames = gen_test_inputs(kind, dims, seed)
        if len(frames) == 1:
            path = out / f"{kind}.pgm"
            save_pgm(frames[0], path)
        else:
            path = out / kind
            path.mkdir(exist_ok=True)
            for i, frame in enumerate(frames):
                save_pgm(frame, path / f"frame_{i:02d}.pgm")
        print(f"wrote {path} ({len(frames)} frame{'s' if len(frames) > 1 else ''})")
    return 0


def _cmd_calibrate(args) -> int:
    noise, gap = calibrate_noise(args.target_gap, _config_from_args(args), tol_pp=args.tol,
                                 n_seeds=args.seeds)
    print(f"sigma\t{noise.write_sigma:.6f}")
    print(f"achieved_gap_pp\t{gap:.4f}")
    return 0


def _cmd_calibrate_access(args) -> int:
    mult, red_ml, red_sm = calibrate_access()
    print("multiplier\tvalue")
    for k, v in asdict(mult).items():
        print(f"{k}\t{v:g}")
    print(f"mtj_vs_lfsr_reduction_percent\t{red_ml:.2f}")
    print(f"stochmem_vs_mtj_reduction_percent\t{red_sm:.2f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
