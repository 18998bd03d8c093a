"""Command line: run one job read from a JSON or TOML file.

    crysred JOB_FILE

A file ending in `.toml` is read as TOML, any other as JSON; its table is
the `JobConfig` dict.  The deterministic report JSON goes to stdout and the
exit code is `exit_code_for(report)`.  A file that cannot be read or parsed,
or a config that `JobConfig.from_dict` rejects, prints one line to stderr
and exits with EXIT_CONFIG.
"""

from __future__ import annotations

import argparse
import json
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

from .errors import ConfigError
from .pipeline import EXIT_CONFIG, JobConfig, exit_code_for, run_pipeline


def load_job(path: str) -> dict:
    if path.endswith(".toml"):
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crysred",
        description="Semisimple mod-p reduction of one crystalline job.")
    parser.add_argument("job", help="job file (.toml, otherwise JSON)")
    args = parser.parse_args(argv)
    try:
        cfg = JobConfig.from_dict(load_job(args.job))
    except (OSError, ValueError, ConfigError) as exc:
        # json.JSONDecodeError and tomllib.TOMLDecodeError are ValueErrors
        print(f"crysred: {args.job}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = run_pipeline(cfg)
    print(report.to_json())
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
