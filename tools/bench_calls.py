"""Time single CLI calls of two git revisions in alternating pairs, to size a change.

Each revision's files are extracted with `git archive` into a temporary
directory (as `bench_pairs.py` does), and one warm worker process per
side imports that tree's package and its `perfbench/run.py`, whose
WORKLOADS give the workload's CLI arguments. The two trees need a
process each, because the package imports its data files by the name
`fedsymptoms` (see `assets.py`). The workers take their calls over
pipes, one at a time, so they never run at once. After one untimed call
on each side, pair i makes one call on each side, the base side first in
even pairs and the change side first in odd ones. Every call is timed
and its output checked as perfbench does it (`run.call_cli`, BLAS pinned
to one thread, the time taken at reference speed, see `speed.py`).

The summary gives each pair's ratio, base time over change time: its
median, its quartiles and how many pairs the change won (ratio above 1).
This is for sizing a change while it is written: 30-40 pairs of
run_IV_wide calls resolve an effect of 5-8% in about a minute on a
2-core host. A performance claim rests on `tools/bench_pairs.py`, which
runs the benchmark itself.

    python3 tools/bench_calls.py HEAD~1 HEAD --workload run_IV_wide --pairs 30

The temporary directory follows `TMPDIR`. The last line of standard
output is one JSON object with every call's time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import extract, quartiles

WORKER_TIMEOUT_S = 60


def serve(tree: str, workload: str, seed: int) -> int:
    """Worker: one checked call of the workload per line read; its JSON result per line written."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import run  # pins the BLAS threads before it imports numpy

    cli = run._import_package()
    import numpy

    digests, _ = run.check.recorded_digests(run.check.load_digests(), workload, seed,
                                            numpy.__version__)
    for _ in sys.stdin:
        outcome = run.call_cli(cli, run.WORKLOADS[workload], seed, digests)
        print(json.dumps({"ref_s": outcome.wall_s * outcome.speed,
                          "problems": outcome.problems}), flush=True)
    return 0


def call(workers: dict[str, subprocess.Popen], side: str) -> float:
    """One call on a side's worker; its time at reference speed."""
    worker = workers[side]
    worker.stdin.write("call\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"{side} worker exited with {worker.wait()}")
    reply = json.loads(line)
    if reply["problems"]:
        raise RuntimeError(f"{side} call failed its output check: {reply['problems']}")
    return reply["ref_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="git revision of the base side, e.g. HEAD~1")
    parser.add_argument("change", nargs="?", help="git revision of the change side, e.g. HEAD")
    parser.add_argument("--workload", required=True, help="one workload name")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--serve", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.serve, args.workload, args.seed)
    if args.base is None or args.change is None:
        parser.error("base and change revisions are required")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    tmp = tempfile.mkdtemp(prefix="bench_calls_")
    workers: dict[str, subprocess.Popen] = {}
    try:
        commits, trees = extract({"base": args.base, "change": args.change}, tmp)
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            known = [w["name"] for w in json.load(fh)["workloads"]]
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; expected one of {known}")
        for side, tree in trees.items():
            workers[side] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--serve", tree,
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side in workers:
            call(workers, side)  # untimed warm-up

        times: dict[str, list[float]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                times[side].append(call(workers, side))
            print(f"pair {i + 1} ({order[0]} first): base {times['base'][-1]:.4f} s, "
                  f"change {times['change'][-1]:.4f} s, "
                  f"ratio {times['base'][-1] / times['change'][-1]:.3f}", flush=True)

        ratios = [b / c for b, c in zip(times["base"], times["change"])]
        q1, q2, q3 = quartiles(ratios)
        wins = sum(1 for r in ratios if r > 1.0)
        print(f"{args.workload}, {args.pairs} pairs, seed {args.seed}, "
              f"base {commits['base'][:12]} change {commits['change'][:12]}: "
              f"base/change time ratio {q2:.3f} [{q1:.3f}-{q3:.3f}], "
              f"change won {wins}/{args.pairs}")
        print(json.dumps({"workload": args.workload, "seed": args.seed, "commits": commits,
                          "times": times}))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait(timeout=WORKER_TIMEOUT_S)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
