"""Command line front end.

One subcommand per experiment runner, plus `simulate` (evolves a single
exhaustion trajectory and writes its snapshots) and `verify` (replays the
estimate certificates on two saved trajectories).

Exit codes: 0 all certificates pass, 2 some certificate fails,
3 infrastructure error (bad config, unreadable files, solver crash).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

# set before numpy loads: numpy's and scipy's OpenBLAS thread pools slow start-up, get no work
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# the imported modules' ~34k objects live until exit: no collection walks
# them while they load, and once frozen none walks them again, at exit either
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .config import DEFAULTS, INI_KEYS, ConfigError, ExperimentConfig, parse_config
    from .cutoff import CutoffSpec
    from .estimates import full_report
    from .experiments import (
        LAYER_FIXED_FIELDS,
        exhaustion_member,
        run_boundary_layer_experiment,
        run_exact_solution_suite,
        run_q_sweep,
        run_uniqueness_experiment,
    )
    from .snapshots import load_trajectory, save_trajectory
    from .solver import RunError, evolve
    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()

EXIT_PASS = 0
EXIT_CERT_FAIL = 2
EXIT_INFRA = 3


def _load_config(args, experiment: str, single=()) -> ExperimentConfig | None:
    # single names the (section, key)s of which the command runs one value:
    # a config listing more is refused, not run on its first value alone
    if args.config is None:
        return None
    cfg = parse_config(args.config)
    lists = {key: getattr(cfg, INI_KEYS[section, key][0]) for section, key in single}
    many = [f"{args.command} takes one value of {key}, got {len(values)}: "
            + ", ".join(f"{v:g}" for v in values) for key, values in lists.items() if len(values) > 1]
    if many:
        raise ConfigError(many)
    if cfg.experiment != experiment:
        # the id field is bookkeeping for the hash; warn, do not refuse
        print(f"note: config says experiment={cfg.experiment}, running {experiment}",
              file=sys.stderr)
    return cfg


def _default_uniqueness_config() -> ExperimentConfig:
    # three nested windows around r0 = 0.75 keep the no-config path quick
    # while still exercising the per-R re-run machinery
    return ExperimentConfig(
        experiment="uniqueness",
        r0=0.75,
        R_list=tuple(math.exp(-S) for S in (0.09, 0.06, 0.03)),
        gamma_list=(0.25,),
        ramps=(1e2, 1e3),
        T=0.1,
        dt=1e-3,
        n=161,
        ratio=1.04,
        sample_times=(0.05, 0.1),
    )


def _cmd_exact_suite(args) -> int:
    result = run_exact_solution_suite(out_dir=args.out)
    for (model, kind), slope in sorted(result.orders.items()):
        print(f"  {model:8s} {kind:8s} order {slope:.3f}")
    print(f"  flat-disc max drift {result.flat_max_error:.3e}  ({result.elapsed:.1f}s)")
    print("exact-suite:", "PASS" if result.passed else "FAIL")
    return EXIT_PASS if result.passed else EXIT_CERT_FAIL


def _cmd_q_sweep(args) -> int:
    cfg = _load_config(args, "q-sweep")
    result = run_q_sweep(cfg, out_dir=args.out)
    # nan when every row failed: the run is then a FAIL, not an error
    worst = max((r["ratio"] for r in result.rows if r["status"] == "ok"), default=math.nan)
    print(f"  {len(result.rows)} rows, worst Q/bound ratio {worst:.4f}")
    print(f"  bounded={result.all_bounded} monotone={result.monotone_in_R} "
          f"split={result.split_consistent}")
    print("q-sweep:", "PASS" if result.passed else "FAIL")
    return EXIT_PASS if result.passed else EXIT_CERT_FAIL


def _cmd_uniqueness(args) -> int:
    cfg = _load_config(args, "uniqueness") or _default_uniqueness_config()
    result = run_uniqueness_experiment(cfg, out_dir=args.out)
    print(f"  {len(result.rows)} certificate rows, failures={len(result.failures)}")
    print(f"  certified={result.all_certified} area_monotone={result.area_monotone_in_R} "
          f"sup_monotone={result.sup_monotone_in_R}")
    g = result.gauge
    print(f"  gauge: pair_diff={g['pair_diff']:.3e} threshold={g['threshold']:.3e} "
          f"passed={g['passed']}")
    print("uniqueness:", "PASS" if result.passed else "FAIL")
    return EXIT_PASS if result.passed else EXIT_CERT_FAIL


def _cmd_boundary_layer(args) -> int:
    cfg = _load_config(args, "boundary-layer")
    # each field's INI key is its lowercase name
    for name in LAYER_FIXED_FIELDS if cfg else ():
        value = getattr(cfg, name)
        if value != DEFAULTS[name]:
            shown = ", ".join(map(str, value)) if isinstance(value, tuple) else value
            print(f"note: boundary-layer ignores {name.lower()} = {shown}; "
                  "it runs its fixed grid, step and sample times", file=sys.stderr)
    result = run_boundary_layer_experiment(cfg, out_dir=args.out)
    print(f"  fitted exponent p = {result.exponent:.4f} "
          f"(exploratory window [0.35, 0.65]: {'in' if result.in_range else 'out of'} range)")
    print(f"  width monotone: {result.width_monotone}")
    # exploratory by design: reported, never build-failing
    print("boundary-layer: REPORTED")
    return EXIT_PASS


# the keys of which simulate runs one value; verify reads only the first two
_ONE_MEMBER = (("cutoff", "r"), ("cutoff", "gamma"), ("flow", "ramps"))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args, "simulate", _ONE_MEMBER) or ExperimentConfig()
    R, k = cfg.R_list[0], cfg.ramps[0]
    traj = evolve(exhaustion_member(cfg, R, k))
    s_lo, s_hi = cfg.grid_bounds(R)
    manifest = save_trajectory(traj, args.out, cfg.config_hash)
    print(f"  {len(traj.states)} snapshots (k={k:g}, window [{s_lo:.4g}, {s_hi:.4g}])")
    print(f"  manifest: {manifest}")
    print("simulate: DONE")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    # verify replays a pair of simulate runs, so a simulate config is expected
    cfg = _load_config(args, "simulate", _ONE_MEMBER[:2]) or ExperimentConfig()
    traj_g = load_trajectory(args.manifest_g)
    traj_G = load_trajectory(args.manifest_G)
    cutoff = CutoffSpec(cfg.r0, cfg.R_list[0], cfg.gamma_list[0])
    report = full_report(traj_g, traj_G, cutoff)
    path = os.path.join(args.out, "verify_report.csv")
    report.write_csv(path)
    for family, why in report.gated.items():
        print(f"note: {family} gated off, no rows: {why}", file=sys.stderr)
    worst = report.worst
    skipped = sum(r.vacuous for r in report.rows)
    if worst is None:
        print(f"  {len(report.rows)} inequality rows, all with lhs = rhs = 0")
    else:
        print(f"  {len(report.rows)} inequality rows, worst margin {worst.margin:.3e} "
              f"({worst.inequality} at t={worst.time:g}); "
              f"{skipped} rows with lhs = rhs = 0 skipped")
    print(f"  report: {path}")
    print("verify:", "PASS" if report.passed else "FAIL")
    return EXIT_PASS if report.passed else EXIT_CERT_FAIL


_COMMANDS = {
    "exact-suite": _cmd_exact_suite,
    "q-sweep": _cmd_q_sweep,
    "uniqueness": _cmd_uniqueness,
    "boundary-layer": _cmd_boundary_layer,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 is reserved for certificate
    # failures; route bad command lines to the infrastructure code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INFRA)


def _build_parser() -> argparse.ArgumentParser:
    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", metavar="DIR", default="out",
                         help="artifact directory (default: out)")
    common = argparse.ArgumentParser(add_help=False, parents=[out_opt])
    common.add_argument("--config", metavar="PATH", default=None,
                        help="INI experiment config (defaults used when omitted)")

    parser = _Parser(
        prog="logdiff",
        description="Log-diffusion flow laboratory: exhaustion runs and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the exact suite's studies are fixed: it takes no config
    sub.add_parser("exact-suite", parents=[out_opt],
                   help="convergence orders against closed-form flows")
    sub.add_parser("q-sweep", parents=[common],
                   help="Q integral against its analytic bound over (r0, R, gamma)")
    sub.add_parser("uniqueness", parents=[common],
                   help="interior differences between exhaustion ramps, per R")
    sub.add_parser("boundary-layer", parents=[common],
                   help="boundary layer width exponent (exploratory, never gates)")
    sub.add_parser("simulate", parents=[common],
                   help="evolve one exhaustion trajectory and write snapshots")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="replay estimate certificates on two snapshot trajectories")
    p_verify.add_argument("manifest_g", metavar="MANIFEST_G",
                          help="snapshot manifest of the smaller flow")
    p_verify.add_argument("manifest_G", metavar="MANIFEST_BIG",
                          help="snapshot manifest of the larger flow")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except RunError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
