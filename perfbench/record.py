"""Regenerate ``baseline.json``: recorded digests and per-layer table.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 32 --seconds 30

Records, with the simulator as it stands:

* ``floor``: the ``repro bench`` reference pass (6,000 requests per
  commercial trace), its figures digest and engine event count;
* ``digests``: each workload's figures digest for seeds
  ``0 .. --seeds - 1`` (one round each);
* ``per_layer``: the per-layer metrics of one ``--trace 1`` run of each
  workload at seed 0, with the host it ran on.

Only re-record when a change is meant to alter simulated figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    error = run.load_simulator()
    if error is not None:
        print(f"record: {error}", file=sys.stderr)
        return 2
    import cases

    probe = run.HostProbe()
    digest, events = cases.floor_check()
    baseline = {
        "floor": {
            "requests": cases.FLOOR_REQUESTS,
            "figures_sha256": digest,
            "events": events,
        },
        "digests": {
            workload: {
                str(seed): run.run_round(cases, probe, workload, seed).digest
                for seed in range(args.seeds)
            }
            for workload in run.WORKLOADS
        },
    }
    run.BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")

    per_layer = {}
    for workload in run.WORKLOADS:
        command = [
            sys.executable, str(run.HERE / "run.py"),
            "--workload", workload, "--seed", "0",
            "--seconds", str(args.seconds), "--trace", "1",
        ]
        output = subprocess.run(
            command, check=True, capture_output=True, text=True
        ).stdout
        result = json.loads(output.strip().splitlines()[-1])
        if not result["correct"]:
            print(output, file=sys.stderr)
            return 1
        per_layer[workload] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
    baseline["per_layer"] = {
        "seed": 0,
        "seconds": args.seconds,
        "date": time.strftime("%Y-%m-%d"),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        "workloads": per_layer,
    }
    run.BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
