"""Compare two git revisions on perfbench workloads in alternating pairs.

Each revision's files are extracted with `git archive` into a temporary
directory. Pair i runs `perfbench/run.py --trace 0` once on each side
for every listed workload, the base side first in even pairs and the
change side first in odd ones, so a drift in the host's speed or load
falls on both sides alike. Every pair uses the same seed. For each
workload and end-to-end metric the summary prints both sides' medians
and quartiles and how many pairs the change won (ties count for neither
side). A gain is shown only when the change wins at least nine tenths of
at least ten pairs and its median differs from the base's by more than
the base's interquartile range. The extracted trees are removed at the
end.

Run from anywhere inside the repository; `--workload` takes one name, a
comma list, or `all` for every workload in the change's BENCHMARK.json:

    python3 tools/bench_pairs.py HEAD~1 HEAD --workload run_IV_wide --pairs 10 --seconds 30
    python3 tools/bench_pairs.py HEAD~1 HEAD --workload all --pairs 10 --seconds 30

The temporary directory follows `TMPDIR`. The last line of standard
output is one JSON object with every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1800
WIN_SHARE = 0.9
MIN_PAIRS_FOR_CLAIM = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(revisions: dict[str, str], tmp: str) -> tuple[dict[str, str], dict[str, str]]:
    """Each side's commit id, and the directory under tmp holding its `git archive`."""
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in revisions.items()}
    trees = {side: os.path.join(tmp, side) for side in commits}
    for side, commit in commits.items():
        os.makedirs(trees[side])
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", trees[side]], input=archive, check=True)
    return commits, trees


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` call; its JSON result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {done.returncode}):\n"
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed_ratio"] = result["failed"] / max(1, result["attempted"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, quartiles, change win count and verdict."""
    n = len(runs["base"])
    lines = []
    for name in sorted(runs["base"][0]):
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        rel = (c2 - b2) / b2 * 100.0 if b2 else 0.0
        if name not in better:
            verdict = ""
        elif n < MIN_PAIRS_FOR_CLAIM:
            verdict = f"no claim under {MIN_PAIRS_FOR_CLAIM} pairs"
        elif wins >= WIN_SHARE * n and abs(c2 - b2) > b3 - b1:
            verdict = "gain"
        else:
            verdict = "no claim"
        lines.append(f"  {name:<22} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                     f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  {rel:+.2f}%  "
                     f"change won {wins}/{n}  {verdict}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the base side, e.g. HEAD~1")
    parser.add_argument("change", help="git revision of the change side, e.g. HEAD")
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma list of them, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        commits, trees = extract({"base": args.base, "change": args.change}, tmp)
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        known = [w["name"] for w in spec["workloads"]]
        workloads = known if args.workload == "all" else args.workload.split(",")
        unknown = [name for name in workloads if name not in known]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; expected some of {known} or all")

        runs = {name: {"base": [], "change": []} for name in workloads}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for name in workloads:
                for side in order:
                    runs[name][side].append(run_side(trees[side], name, args.seed,
                                                     args.seconds))
                last = runs[name]
                shown = "  ".join(f"{metric} {last['base'][-1][metric]:.6g}/"
                                  f"{last['change'][-1][metric]:.6g}" for metric in better)
                print(f"pair {i + 1} {name} ({order[0]} first), base/change: {shown}",
                      flush=True)

        for name in workloads:
            print(f"{name}, {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s, "
                  f"base {commits['base'][:12]} change {commits['change'][:12]}:")
            print("\n".join(summarize(runs[name], better)))
        print(json.dumps({"workloads": workloads, "seed": args.seed,
                          "seconds": args.seconds, "commits": commits, "runs": runs}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
