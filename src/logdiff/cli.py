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
    from .config import FIELDS, ConfigError, ExperimentConfig, parse_config
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
    # single names the fields of which the command runs one value: a config
    # listing more is refused, not run on its first value alone
    if args.config is None:
        return None
    cfg = parse_config(args.config)
    lists = {FIELDS[name][1]: getattr(cfg, name) for name in single}  # by INI key
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


def _cmd_exact_suite(args) -> str:
    result = run_exact_solution_suite(out_dir=args.out)
    for (model, kind), slope in sorted(result.orders.items()):
        print(f"  {model:8s} {kind:8s} order {slope:.3f}")
    print(f"  flat-disc max drift {result.flat_max_error:.3e}  ({result.elapsed:.1f}s)")
    return "PASS" if result.passed else "FAIL"


def _cmd_q_sweep(args) -> str:
    cfg = _load_config(args, "q-sweep")
    result = run_q_sweep(cfg, out_dir=args.out)
    # nan when every row failed: the run is then a FAIL, not an error
    worst = max((r["ratio"] for r in result.rows if r["status"] == "ok"), default=math.nan)
    print(f"  {len(result.rows)} rows, worst Q/bound ratio {worst:.4f}")
    print(f"  bounded={result.all_bounded} monotone={result.monotone_in_R} "
          f"split={result.split_consistent}")
    return "PASS" if result.passed else "FAIL"


def _cmd_uniqueness(args) -> str:
    cfg = _load_config(args, "uniqueness") or _default_uniqueness_config()
    result = run_uniqueness_experiment(cfg, out_dir=args.out)
    print(f"  {len(result.rows)} certificate rows, failures={len(result.failures)}")
    print(f"  certified={result.all_certified} area_monotone={result.area_monotone_in_R} "
          f"sup_monotone={result.sup_monotone_in_R}")
    g = result.gauge
    print(f"  gauge: pair_diff={g['pair_diff']:.3e} threshold={g['threshold']:.3e} "
          f"passed={g['passed']}")
    return "PASS" if result.passed else "FAIL"


def _cmd_boundary_layer(args) -> str:
    cfg = _load_config(args, "boundary-layer")
    for name in LAYER_FIXED_FIELDS if cfg else ():
        _, key, _, default = FIELDS[name]
        value = getattr(cfg, name)
        if value != default:
            shown = ", ".join(map(str, value)) if isinstance(value, tuple) else value
            print(f"note: boundary-layer ignores {key} = {shown}; "
                  "it runs its fixed grid, step and sample times", file=sys.stderr)
    result = run_boundary_layer_experiment(cfg, out_dir=args.out)
    print(f"  fitted exponent p = {result.exponent:.4f} "
          f"(exploratory window [0.35, 0.65]: {'in' if result.in_range else 'out of'} range)")
    print(f"  width monotone: {result.width_monotone}")
    # exploratory by design: reported, never build-failing
    return "REPORTED"


# the fields of which simulate runs one value; verify reads only the first two
_ONE_MEMBER = ("R_list", "gamma_list", "ramps")


def _cmd_simulate(args) -> str:
    cfg = _load_config(args, "simulate", _ONE_MEMBER) or ExperimentConfig()
    R, k = cfg.R_list[0], cfg.ramps[0]
    traj = evolve(exhaustion_member(cfg, R, k))
    s_lo, s_hi = cfg.grid_bounds(R)
    manifest = save_trajectory(traj, args.out, cfg.config_hash)
    print(f"  {len(traj.states)} snapshots (k={k:g}, window [{s_lo:.4g}, {s_hi:.4g}])")
    print(f"  manifest: {manifest}")
    return "DONE"


def _cmd_verify(args) -> str:
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
    # never None: every volume-excess row after t = 0 has rhs > 0
    worst = report.worst
    skipped = sum(r.vacuous for r in report.rows)
    print(f"  {len(report.rows)} inequality rows, worst margin {worst.margin:.3e} "
          f"({worst.inequality} at t={worst.time:g}); "
          f"{skipped} rows with lhs = rhs = 0 skipped")
    print(f"  report: {path}")
    return "PASS" if report.passed else "FAIL"


# subcommand -> (runner, whether it takes --config, help line), in --help order;
# each runner returns its verdict word
_COMMANDS = {
    # the exact suite's studies are fixed: it takes no config
    "exact-suite": (_cmd_exact_suite, False, "convergence orders against closed-form flows"),
    "q-sweep": (_cmd_q_sweep, True, "Q integral against its analytic bound over (r0, R, gamma)"),
    "uniqueness": (_cmd_uniqueness, True, "interior differences between exhaustion ramps, per R"),
    "boundary-layer": (_cmd_boundary_layer, True,
                       "boundary layer width exponent (exploratory, never gates)"),
    "simulate": (_cmd_simulate, True, "evolve one exhaustion trajectory and write snapshots"),
    "verify": (_cmd_verify, True, "replay estimate certificates on two snapshot trajectories"),
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
    for name, (_, takes_config, help_line) in _COMMANDS.items():
        sub.add_parser(name, parents=[common if takes_config else out_opt], help=help_line)
    # verify also reads the two saved runs it compares
    p_verify = sub.choices["verify"]
    p_verify.add_argument("manifest_g", metavar="MANIFEST_G",
                          help="snapshot manifest of the smaller flow")
    p_verify.add_argument("manifest_G", metavar="MANIFEST_BIG",
                          help="snapshot manifest of the larger flow")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        verdict = _COMMANDS[args.command][0](args)
        print(f"{args.command}: {verdict}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except RunError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    else:
        return EXIT_CERT_FAIL if verdict == "FAIL" else EXIT_PASS
    return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
