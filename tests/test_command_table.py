"""The command table declares the config fields each command reads.

Every command runs in process on a config that notes each field read from
it, over the README examples, the output manifest's commands and the
bad-input cases of the CLI tests.  A command that reads a field it does not
declare could give two runs one hash; a declared field that no run reads
would split the hash of one run.
"""

import dataclasses

from manifest import COMMANDS as MANIFEST_COMMANDS
from test_cli import CONFIG_ERRORS, NUMERIC_ERRORS, _readme_examples

from eulermc import cli, harness
from eulermc.harness import ExperimentConfig

_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# read by the run, never hashed
_EXECUTION = {"out_dir", "threads"}


class _Recording(ExperimentConfig):
    """A config that adds the name of each field read from it to self.reads."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def test_each_command_reads_exactly_the_fields_it_declares(monkeypatch, tmp_path):
    seen = {command: set() for command in harness.COMMANDS}

    def record(command, cfg):
        # the runner alone: run_command reads every declared field to hash
        # it.  Fewer histogram samples take the same path in less time.
        values = {name: getattr(cfg, name) for name in _FIELDS}
        rec = _Recording(**{**values, "density_samples": min(cfg.density_samples, 10**5)})
        rec.reads = seen[command]
        harness.COMMANDS[command][1](rec)

    monkeypatch.setattr(harness, "run_command", record)
    for argv in [*_readme_examples(), *MANIFEST_COMMANDS.values(), *CONFIG_ERRORS, *NUMERIC_ERRORS]:
        cli.main([*argv, "--out-dir", str(tmp_path)])
    for command, (fields, _) in harness.COMMANDS.items():
        undeclared = seen[command] - _EXECUTION - set(fields)
        assert not undeclared, f"{command} reads {sorted(undeclared)} but does not declare them"
        unread = set(fields) - seen[command]
        assert not unread, f"{command} declares {sorted(unread)} but no run reads them"
