"""Command line front end.

One subcommand per mode plus a model-count sweep. Every run writes a
``summary.json`` aggregate and, by default, per-trial CSV/JSON records
into the output directory. The ``NETDECIDE_OUTPUT_DIR`` environment
variable, when set, overrides the output directory (and only that).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .harness import run_monte_carlo, run_sweep
from .network import TopologyError
from .records import save_record


def _add_common(parser, trials=True):
    g = parser.add_argument_group("experiment")
    g.add_argument("--config", metavar="PATH",
                   help="JSON config file; flags override its values")
    g.add_argument("--agents", dest="n_agents", type=int, help="network size")
    g.add_argument("--models", dest="n_models", type=int,
                   help="number of candidate models")
    g.add_argument("--dim", type=int, help="model dimension")
    g.add_argument("--model-range", dest="model_range", type=float, nargs=2,
                   metavar=("LO", "HI"), help="coordinate range for models")
    g.add_argument("--max-degree", dest="max_degree", type=int,
                   help="cap on closed neighborhood size (agent plus neighbors)")
    g.add_argument("--radius", type=float,
                   help="link radius: unit-square lengths, body lengths for mobile")
    g.add_argument("--alpha", type=float,
                   help="squared-distance threshold for the clustering test")
    g.add_argument("--beta", type=float,
                   help="squared-distance threshold for the grouping test")
    g.add_argument("--smoothing", type=float,
                   help="memory factor for the smoothed clustering matrix")
    g.add_argument("--step-size", dest="step_size", type=float,
                   help="adaptation step size")
    g.add_argument("--iters", dest="max_iters", type=int,
                   help="iterations per trial")
    g.add_argument("--t-hold", dest="t_hold", type=int,
                   help="iterations agreement must persist to count")
    g.add_argument("--trials", dest="n_trials", type=int,
                   help="number of Monte Carlo trials")
    g.add_argument("--seed", type=int, help="master seed")
    g.add_argument("--sigma-v2-range", dest="sigma_v2_range", type=float,
                   nargs=2, metavar=("LO", "HI"),
                   help="per-agent noise variance range")
    g.add_argument("--reg-power-range", dest="reg_power_range", type=float,
                   nargs=2, metavar=("LO", "HI"),
                   help="per-agent regressor power range")
    g.add_argument("--no-equilibrium-break", action="store_true",
                   help="disable the randomized tie-break switch")
    g.add_argument("--no-early-stop", action="store_true",
                   help="always run max_iters rounds, even after the network "
                        "has settled")

    o = parser.add_argument_group("output")
    o.add_argument("--out-dir", default="netdecide-out", metavar="DIR",
                   help="output directory (NETDECIDE_OUTPUT_DIR wins if set)")
    o.add_argument("--jobs", type=int, default=1,
                   help="worker processes; 1 runs serially")
    o.add_argument("--print-config", action="store_true",
                   help="print the effective config as JSON and exit")
    o.add_argument("--quiet", action="store_true")
    if not trials:  # sweep writes no per-trial output and checks nothing
        return
    o.add_argument("--summary-only", action="store_true",
                   help="write summary.json but no per-trial files")
    o.add_argument("--export-networks", action="store_true",
                   help="also write each trial's topology and models as JSON")
    o.add_argument("--check-invariants", action="store_true",
                   help="verify per-round structural invariants (slow)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netdecide",
        description="Distributed decision-making over adaptive networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="agents settle on one common model")
    _add_common(p)
    p.set_defaults(func=lambda a: _run_command("decide", a))

    p = sub.add_parser("follow", help="agents track one informed agent's model")
    _add_common(p)
    p.add_argument("--target-agent", dest="target_agent", type=int,
                   help="1-based id of the agent whose model is followed")
    p.add_argument("--reassign-at", dest="reassign_at", type=int, nargs="*",
                   metavar="ITER",
                   help="iterations at which the target's model is redrawn")
    p.set_defaults(func=lambda a: _run_command("follow", a))

    p = sub.add_parser("mobile", help="moving agents gather at a chosen model")
    _add_common(p)
    m = p.add_argument_group("motion")
    m.add_argument("--start-extent", dest="start_extent", type=float,
                   help="half-width of the centered square the swarm "
                        "takes off from")
    m.add_argument("--max-speed", dest="max_speed", type=float,
                   help="speed cap in body lengths per iteration")
    m.add_argument("--goal-gain", dest="goal_gain", type=float)
    m.add_argument("--align-gain", dest="align_gain", type=float)
    m.add_argument("--repulse-gain", dest="repulse_gain", type=float)
    m.add_argument("--repulse-radius", dest="repulse_radius", type=float)
    m.add_argument("--snapshot-iters", dest="snapshot_iters", type=int,
                   nargs="+", metavar="ITER",
                   help="iterations at which positions are written to each "
                        "trial's trajectory CSV (none by default)")
    p.set_defaults(func=lambda a: _run_command("mobile", a))

    p = sub.add_parser("sweep", help="repeat a batch across model counts")
    _add_common(p, trials=False)
    p.add_argument("--model-counts", type=int, nargs="+", required=True,
                   metavar="C", help="model counts to sweep over")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _overrides(args):
    """The config fields the flags set."""
    out = {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
           if getattr(args, f.name, None) is not None}
    if args.no_equilibrium_break:
        out["equilibrium_break"] = False
    if args.no_early_stop:
        out["early_stop"] = False
    return out


def _build_config(mode, args):
    """The subcommand's mode defaults, then the --config file, then flags."""
    if args.config:
        return ExperimentConfig.from_file(args.config, mode=mode, **_overrides(args))
    return ExperimentConfig.for_mode(mode, **_overrides(args))


def _out_dir(args):
    return Path(os.environ.get("NETDECIDE_OUTPUT_DIR") or args.out_dir)


def _write_outputs(summary, out_dir, quiet):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(summary.to_json() + "\n")
    if summary.records is not None:
        for i, record in enumerate(summary.records, start=1):
            save_record(record, out_dir, f"trial_{i:03d}")
    if summary.networks is not None:
        for i, doc in enumerate(summary.networks, start=1):
            path = out_dir / f"trial_{i:03d}_network.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"trials: {summary.n_trials}  successes: {summary.success_count}"
              f"  rate: {summary.success_rate:.3f}"
              f"  diverged: {summary.diverged_count}")
        print(f"wrote {out_dir / 'summary.json'}")


def _run_command(mode, args):
    config = _build_config(mode, args)
    if args.print_config:
        print(config.to_json())
        return 0
    summary = run_monte_carlo(
        config, n_jobs=args.jobs,
        keep_records=not args.summary_only,
        check_invariants=args.check_invariants,
        export_networks=args.export_networks,
    )
    _write_outputs(summary, _out_dir(args), args.quiet)
    return 0


def _cmd_sweep(args):
    config = _build_config("decide", args)
    if args.print_config:
        print(config.to_json())
        return 0
    results = run_sweep(config, args.model_counts, n_jobs=args.jobs)
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    batches = {str(c): json.loads(s.to_json()) for c, s in sorted(results.items())}
    doc = {"schema": "netdecide.sweep/1", "batches": batches}
    (out_dir / "sweep.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    lines = ["n_models,trials,successes,success_rate,diverged"]
    for c, s in sorted(results.items()):
        lines.append(f"{c},{s.n_trials},{s.success_count},"
                     f"{s.success_rate:.4f},{s.diverged_count}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    if not args.quiet:
        for c, s in sorted(results.items()):
            print(f"C={c}: {s.success_count}/{s.n_trials} "
                  f"(rate {s.success_rate:.3f})")
        print(f"wrote {out_dir / 'sweep.json'}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
