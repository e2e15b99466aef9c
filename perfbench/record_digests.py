"""Record the sha256 of each workload's CSVs for a range of seeds.

Run from the repository root, only on a commit whose outputs are known
to be right, since the digests become the reference every later run of
the benchmark is checked against:

    python3 perfbench/record_digests.py --seeds 0-40
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402
import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-40")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))

    cli = run._import_package()
    import numpy

    table = {"numpy": ".".join(numpy.__version__.split(".")[:2]), "workloads": {}}
    for workload in run.WORKLOADS.values():
        recorded = table["workloads"][workload.name] = {}
        for seed in range(first, last + 1):
            outcome = run.call_cli(cli, workload, seed, None)
            if outcome.problems:
                print(f"{workload.name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            recorded[str(seed)] = check.digests_of(os.path.join(run.OUT, f"{workload.name}-out"))
            print(f"{workload.name} seed {seed}: recorded", flush=True)
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
