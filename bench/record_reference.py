"""Rewrite reference.json: the sha256 of the stdout of every psi, bounds and
min-k query the `queries` workload can draw.

The digests pin the program's machine output, so regenerate them only when a
change to that output is intended:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stdout_digest(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return workloads.digest(out.getvalue())


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lehmer_psi import cli

    specs = workloads.PSI_SPECS
    reference = {
        "psi": {s: stdout_digest(cli, ["psi", "--group", s, "--format", "json"]) for s in specs},
        "bounds": {s: stdout_digest(cli, ["bounds", "--group", s, "--format", "json"]) for s in specs},
        "min-k": {
            p: stdout_digest(cli, ["min-k", "--profile", p, "--format", "json"])
            for p in (workloads.GENERIC_PROFILE,) + workloads.PROFILES
        },
    }
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
