"""Command-line front end.

Subcommands: run, sweep, cost, fit-gamma, gen-inputs, calibrate,
calibrate-access.  Exit codes: 0 success, 1 domain error, 2 usage error.
Tables on stdout are tab-separated for scripting.  No option may be
abbreviated.

run, sweep and calibrate take one flag per row of config.FIELDS, except the
fields the command sets itself (_OWN_KEYS); a --config file that sets one of
those is an error.  Precedence, lowest first: defaults, the --config file,
then the flags given.  calibrate fits the noise sigma and calibrate-access
the access multipliers (stochmem.calibrate); the access fit reads no run
config, so calibrate-access takes no options.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial
from pathlib import Path

from .bitstream import check_length
from .calibrate import calibrate_access, calibrate_noise
from .circuits import AppKind, fit_bernstein
from .config import (FIELD_BY_KEY, FIELDS, load_cost_config, parse_at, parse_bool,
                     parse_dims, read_pairs, read_values, resolve_config)
from .costs import SystemDesign, area_report, default_profile, energy_report, share_breakdown
from .harness import (CSV_COLUMNS, DEFAULT_SEEDS, MAX_BERNSTEIN_DEGREE, PAPER_LENGTHS,
                      ExperimentConfig, report_csv_row, run_experiment, sweep)
from .images import save_pgm
from .synth import gen_test_inputs


# config keys a command sets itself, and what to use instead
_OWN_KEYS = {
    "sweep": {"app": "use --apps", "design": "use --designs", "length": "use --lengths"},
    "calibrate": {
        "app": "noise calibration runs every app",
        "design": "noise calibration runs conv-mtj and stochmem",
        "length": "noise calibration runs at length 1024",
        "write_sigma": "it is the calibrated value; use --target-gap",
        "read_sigma": "it is the calibrated value; use --target-gap",
    },
}


def _fmt(x: float) -> str:
    return f"{x:g}"


def _parse_list(kind, spec: str) -> list:
    """The members of the enum ``kind`` named in a comma list, or all of them."""
    if spec == "all":
        return list(kind)
    return [kind.from_name(s) for s in spec.split(",") if s]


def _config_from_args(args, need=()) -> ExperimentConfig:
    """Defaults, then the --config file, then the flags given; the file or a
    flag must set each key in ``need``, and the file may set no key the
    command sets itself."""
    own = _OWN_KEYS.get(args.command, {})
    if args.config:
        for where, key, _ in read_pairs(args.config):
            if key in own:
                raise ValueError(f"{where}: {args.command} sets {key} itself; {own[key]}")
    values = read_values(args.config) if args.config else {}
    for f in FIELDS:
        if getattr(args, f.key, None) is not None:
            values[f.key] = parse_at(f.parse, getattr(args, f.key), f.flag)
    missing = [FIELD_BY_KEY[k].flag for k in need if k not in values]
    if missing:
        args.parser.error(f"{' and '.join(missing)} required (as a flag or a --config key)")
    return resolve_config(values)


def _add_config_flags(p: argparse.ArgumentParser, skip=()) -> None:
    p.set_defaults(parser=p)
    p.add_argument("--config", help="flat key=value config file; flags given override its "
                                    "keys")
    for f in FIELDS:
        if f.key in skip:
            continue
        action = argparse.BooleanOptionalAction if f.parse is parse_bool else None
        p.add_argument(f.flag, dest=f.key, action=action, help=f.help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stochmem",
                                 description="Stochastic image-processing system simulator")
    sub = ap.add_subparsers(dest="command", required=True)
    # a prefix would be one more spelling: sweep's --apps would take --app
    add = partial(sub.add_parser, allow_abbrev=False)

    p_run = add("run", help="run one experiment and report accuracy and cost")
    p_run.add_argument("--out", help="directory for output.pgm and report.csv")
    _add_config_flags(p_run)

    p_sweep = add("sweep", help="run the app x design x length x seed grid")
    p_sweep.add_argument("--apps", default="all", help="comma list or 'all'")
    p_sweep.add_argument("--designs", default="all", help="comma list or 'all'")
    p_sweep.add_argument("--lengths", default=",".join(str(v) for v in PAPER_LENGTHS),
                         help="comma list of bitstream lengths")
    p_sweep.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                         help="runs per configuration (seed = base + index)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    _add_config_flags(p_sweep, skip=_OWN_KEYS["sweep"])

    p_cost = add("cost", help="print area and energy tables")
    p_cost.add_argument("--app", default="all", help="application or 'all'")
    p_cost.add_argument("--design", default="all", help="design or 'all'")
    p_cost.add_argument("--length", type=int, default=1024,
                        help="bitstream length for the energy table")
    p_cost.add_argument("--costs", help="unit/profile override file")

    p_fit = add("fit-gamma", help="fit the power function as a Bernstein polynomial")
    p_fit.add_argument("--exponent", type=float, default=0.45)
    p_fit.add_argument("--degree", type=int, default=6,
                       help=f"polynomial degree, at most {MAX_BERNSTEIN_DEGREE} (the gamma "
                            f"circuit's replica streams)")

    p_gen = add("gen-inputs", help="write the synthetic input set as PGM files")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--dims", default="128x128")

    p_cal = add("calibrate", help="fit the noise sigma to the accuracy gap")
    p_cal.add_argument("--target-gap", type=float, default=0.19,
                       help="accuracy gap target in percentage points")
    p_cal.add_argument("--tol", type=float, default=0.05, help="gap tolerance")
    p_cal.add_argument("--runs", type=int, default=5, help="seeds per evaluation")
    _add_config_flags(p_cal, skip=_OWN_KEYS["calibrate"])

    add("calibrate-access", help="fit the access multipliers to the energy reductions")
    return ap


def _cmd_run(args) -> int:
    cfg = _config_from_args(args, need=("app", "design"))
    report = run_experiment(cfg)
    print("app\tdesign\tlength\tseed\tinaccuracy_percent\tenergy_pJ_per_pixel\tarea_um2")
    print(f"{report.app.value}\t{report.design.value}\t{report.length}\t{report.seed}\t"
          f"{report.inaccuracy_percent:.6f}\t{report.energy.total:.4f}\t"
          f"{_fmt(report.area.total)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_pgm(report.output, out / "output.pgm")
        (out / "report.csv").write_text(
            ",".join(CSV_COLUMNS) + "\n" + report_csv_row(report) + "\n")
        print(f"wrote {out / 'output.pgm'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    lengths = tuple(int(s) for s in args.lengths.split(",") if s)
    lines = sweep(cfg, _parse_list(AppKind, args.apps), _parse_list(SystemDesign, args.designs),
                  lengths, n_seeds=args.seeds, out_csv=args.out, jobs=cfg.jobs)
    print(f"wrote {args.out} ({len(lines) - 1} rows)")
    return 0


def _print_report(report, value_name: str) -> None:
    print(f"unit\tgroup\t{value_name}")
    for unit, group, value in report.entries:
        print(f"{unit}\t{group}\t{_fmt(value)}")
    shares = share_breakdown(report)
    print(f"total\t\t{_fmt(report.total)}")
    print("shares\t" + "\t".join(f"{g}={shares[g]:.3f}" for g in ("input_layer", "conversion", "logic")))


def _cmd_cost(args) -> int:
    check_length(args.length)
    costs, profiles = (load_cost_config(args.costs) if args.costs
                       else (None, {a: default_profile(a) for a in AppKind}))
    designs = _parse_list(SystemDesign, args.design)
    for app in _parse_list(AppKind, args.app):
        profile = profiles[app]
        for design in designs:
            print(f"# area_um2 app={app.value} design={design.value}")
            _print_report(area_report(design, profile, costs), "area_um2")
            print(f"# energy_pJ_per_pixel app={app.value} design={design.value} "
                  f"length={args.length}")
            _print_report(energy_report(design, profile, args.length, costs=costs),
                          "energy_pJ")
    return 0


def _cmd_fit_gamma(args) -> int:
    if not 0 <= args.exponent < math.inf:
        raise ValueError(f"--exponent must be nonnegative and finite, got {args.exponent}")
    # no run can use a fit the gamma circuit has no replica streams for
    if args.degree > MAX_BERNSTEIN_DEGREE:
        raise ValueError(f"--degree must be at most {MAX_BERNSTEIN_DEGREE} (gamma replica "
                         f"streams), got {args.degree}")
    poly, max_err = fit_bernstein(lambda x: x ** args.exponent, args.degree)
    print("coefficient\tvalue")
    for k, c in enumerate(poly.coeffs):
        print(f"b{k}\t{c:.6f}")
    print(f"max_fit_error\t{max_err:.6f}")
    return 0


def _cmd_gen_inputs(args) -> int:
    dims = parse_dims(args.dims)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind in ("scene", "gradient", "checkerboard", "salt-pepper"):
        path = out / f"{kind.replace('-', '_')}.pgm"
        save_pgm(gen_test_inputs(kind, dims), path)
        print(f"wrote {path}")
    video_dir = out / "video"
    video_dir.mkdir(exist_ok=True)
    for i, frame in enumerate(gen_test_inputs("video", dims)):
        save_pgm(frame, video_dir / f"frame_{i:02d}.pgm")
    print(f"wrote {video_dir} (33 frames)")
    return 0


def _cmd_calibrate(args) -> int:
    noise, gap = calibrate_noise(args.target_gap, _config_from_args(args), tol_pp=args.tol,
                                 n_seeds=args.runs)
    print(f"sigma\t{noise.write_sigma:.6f}")
    print(f"achieved_gap_pp\t{gap:.4f}")
    return 0


def _cmd_calibrate_access(args) -> int:
    # access calibration is cost-model arithmetic over the default profiles
    mult, red_ml, red_sm = calibrate_access()
    print("multiplier\tvalue")
    for k, v in mult.as_dict().items():
        print(f"{k}\t{v:g}")
    print(f"mtj_vs_lfsr_reduction_percent\t{red_ml:.2f}")
    print(f"stochmem_vs_mtj_reduction_percent\t{red_sm:.2f}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "cost": _cmd_cost,
    "fit-gamma": _cmd_fit_gamma,
    "gen-inputs": _cmd_gen_inputs,
    "calibrate": _cmd_calibrate,
    "calibrate-access": _cmd_calibrate_access,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
