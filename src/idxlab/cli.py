"""Command line entry point: run / replay / compare."""

import argparse
import sys

from .errors import DRIFT_KINDS, ConfigurationError, ReplayMismatchError
from .experiment import compare, load_config_file, replay, resolve_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_REPLAY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idxlab",
        description="Online index-tuning experiments on a simulated optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="JSON or TOML experiment config")
    run_p.add_argument("--seed", type=int, help="override replications with one seed")
    run_p.add_argument("--out", help="override the output directory")
    run_p.add_argument(
        "--schedule",
        choices=DRIFT_KINDS,
        help="override the workload drift kind",
    )
    run_p.add_argument("--jobs", type=int, default=1, help="parallel replications")

    replay_p = sub.add_parser("replay", help="re-run an experiment from a manifest")
    replay_p.add_argument("manifest")
    replay_p.add_argument("--out", help="output directory for the replay")
    replay_p.add_argument("--jobs", type=int, default=1)

    compare_p = sub.add_parser("compare", help="merge summaries from output dirs")
    compare_p.add_argument("dirs", nargs="+")
    return parser


def _cmd_run(args) -> int:
    cfg = resolve_config(load_config_file(args.config))
    if args.seed is not None:
        cfg["replications"] = [args.seed]
    if args.schedule is not None:
        cfg["workload"]["kind"] = args.schedule
    manifest = run_experiment(cfg, out_dir=args.out, jobs=args.jobs)
    for row in manifest["summary"]:
        print(
            f"{row['method']}: improvement "
            f"{row['mean_improvement']:.4f} +- {row['stdev_improvement']:.4f} "
            f"({row['n_replications']} replication(s))"
        )
    return EXIT_OK


def _cmd_replay(args) -> int:
    manifest = replay(args.manifest, out_dir=args.out, jobs=args.jobs)
    print(f"replayed {len(manifest['seeds'])} replication(s)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows = compare(args.dirs)
    for row in rows:
        print(
            f"{row['directory']}: {row['method']} "
            f"mean={row['mean_improvement']} stdev={row['stdev_improvement']}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "replay": _cmd_replay, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReplayMismatchError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return EXIT_REPLAY


if __name__ == "__main__":
    sys.exit(main())
