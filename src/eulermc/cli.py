"""Command line front end.

Subcommands: simulate, bounds, concentration, density-check, parametrix,
control-geodesic.  A flat JSON config supplies parameters; --set key=value
overrides individual fields, --seed/--out-dir/--threads override the common
ones.  Exit codes: 0 success, 2 config error, 3 numeric/tolerance error,
4 statistical-power error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ConfigError, EulermcError


def _command(name: str):
    """The function that runs command `name` of harness.COMMANDS on a config."""

    def run(cfg: harness.ExperimentConfig) -> None:
        harness.run_command(name, cfg)

    run.__name__ = f"command_{name.replace('-', '_')}"
    return run


_COMMANDS = {name: _command(name) for name in harness.COMMANDS}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulermc",
        description="Scheme simulation, concentration bounds, and density checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out-dir", default=None, help="override output directory")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config field (value parsed as JSON when possible)",
        )
    return parser


def _parse_overrides(args) -> dict:
    overrides: dict = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            overrides[key] = json.loads(value)
        except ValueError:  # not JSON, or an integer past the digit limit
            overrides[key] = value
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.threads is not None:
        overrides["threads"] = args.threads
    return overrides


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = harness.load_config(args.config, _parse_overrides(args))
        _COMMANDS[args.command](cfg)
    except EulermcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
