"""Record the per-point output digests of every workload at the default seed.

Run from the repository root after a change that is meant to alter
simulation results::

    python3 bench_e2e/record_digests.py

It runs one sweep per workload at ``DEFAULT_SEED``, refuses to record a
sweep that fails a shape check, and rewrites ``bench_e2e/expected.json``.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, Bench, write_spec
from workloads import DEFAULT_SEED, WORKLOADS, check_run, combined_digest


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    record = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        spec_path = write_spec(workload, DEFAULT_SEED)
        bench = Bench(workload, spec_path)
        try:
            run, wall = bench.sweep()
        finally:
            bench.close()
            spec_path.unlink()
        digests, failed, messages = check_run(run)
        if failed or messages:
            print(f"{workload.name}: refusing to record: {messages}", file=sys.stderr)
            return 1
        record["workloads"][workload.name] = {
            "digest": combined_digest(digests),
            "points": {str(index): digest for index, digest in sorted(digests.items())},
        }
        print(f"{workload.name}: {len(digests)} points in {wall:.2f} s")
    (HERE / "expected.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
