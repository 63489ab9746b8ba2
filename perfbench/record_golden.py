#!/usr/bin/env python3
"""Record ``golden.json``: the result digest of every benchmark command,
taken from the tree this is run in.

    python3 perfbench/record_golden.py --reference <git sha of the tree>

Run it only on the reference commit whose reports later commits must
reproduce; the benchmark's correctness gate compares against this file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads

PINS = ("holds", "instances_checked", "bp_free_count", "extremal_class_count",
        "cyclic_instances")


class RecordingClient(workloads.Client):
    def __init__(self, cli):
        super().__init__(cli, {})
        self.recorded: dict[str, dict] = {}

    def _pinned(self, key, payload, result):
        entry = {"sha256": workloads.result_digest(payload)}
        if result is not None:
            pins = {k: result[k] for k in PINS if k in result}
            if pins:
                entry["pins"] = pins
        self.recorded[key] = entry
        return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reference", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    golden = {"reference": args.reference, "results": {}}
    for cls in workloads.WORKLOADS.values():
        workload = cls(workloads.DEFAULT_SEED)
        workdir = run.OUT / "record"
        try:
            workload.setup(workdir)
            client = RecordingClient(run.fresh_import())
            workload.run_pass(client, 1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if client.failed:
            print("\n".join(client.problems), file=sys.stderr)
            return 1
        golden["results"].update(client.recorded)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
