"""Time single CLI calls of two git revisions in alternating pairs, to size a change.

Each revision's files are extracted with `git archive` into a temporary
directory (as `bench_pairs.py` does). For each workload in turn, one
warm worker process per side imports that tree's package and its
`perfbench/run.py`, whose WORKLOADS give the workload's CLI arguments.
The two trees need a process each, because the package imports its data
files by the name `fedsymptoms` (see `assets.py`). The workers take
their calls over pipes, one at a time, so they never run at once. After
one untimed call on each side, pair i makes one call on each side, the
base side first in even pairs and the change side first in odd ones.
Every call is timed and its output checked as perfbench does it
(`run.call_cli`, BLAS pinned to one thread, the time taken at reference
speed, see `speed.py`). The worker also reports each call's minor page
faults: the change in its `ru_minflt` over the call, which counts the
pages the call's fresh allocations fault in. On its untimed call only,
the worker also counts the calls of the package's `mlp._backprop`,
`mlp.adam_step`, `mlp._forward` (one a scoring pass) and
`evaluation.forward` (COUNTED): it wraps each, makes the call and
restores them. The call counts of a fixed workload and seed
repeat exactly, so they show a change in how training or scoring is
batched without timing noise.

Each workload's summary gives its pairs' ratio, base time over change
time: its median, its quartiles and how many pairs the change won (ratio
above 1). It also gives each side's peak RSS (`ru_maxrss`), which each
worker reads once its last call is done, and each side's median minor
page faults a timed call. Both workers have then made the same number
of calls, so the two peaks compare memory and not call counts;
perfbench's `peak_rss_mb`, read at the end of a time window, rises with
each call a faster side fits into it. A further line gives each side's
COUNTED call counts in its untimed call. A failed call is not
retried: its error goes to standard error, its workload's summary and
the JSON line cover the pairs completed before it, with no peak RSS, no
later workload runs, and the exit status is 1. This is for sizing a
change while it is written: 30-40 pairs of run_IV_wide calls resolve an
effect of 5-8% in about a minute on a 2-core host. A performance claim
rests on `tools/bench_pairs.py`, which runs the benchmark itself.

`--workload` takes one name, a comma list, or `all` for every workload
in the change's BENCHMARK.json:

    python3 tools/bench_calls.py HEAD~1 HEAD --workload run_IV_wide --pairs 30
    python3 tools/bench_calls.py HEAD~1 HEAD --workload all --pairs 20

The temporary directory follows `TMPDIR`. The last line of standard
output is one JSON object with every timed call's time and minor page
faults, each side's peak RSS and each side's COUNTED call counts (null
for a name the side's tree lacks), keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

from bench_pairs import extract, quartiles

WORKER_TIMEOUT_S = 60

# the package functions, "module.attribute", whose calls the untimed call counts
COUNTED = ("mlp._backprop", "mlp.adam_step", "mlp._forward", "evaluation.forward")


def counted(package, function):
    """function()'s result and the calls it made through each COUNTED name of `package`.

    Each name is wrapped in its module while function runs and restored
    after it, so a call through the module's global counts; a name the
    package lacks counts None.
    """
    counts: dict[str, int | None] = dict.fromkeys(COUNTED)
    sites = {}
    for name in COUNTED:
        module_name, attr = name.split(".")
        module = getattr(package, module_name, None)
        if hasattr(module, attr):
            sites[name] = (module, attr, getattr(module, attr))

    def counter(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, (module, attr, original) in sites.items():
        counts[name] = 0
        setattr(module, attr, counter(name, original))
    try:
        result = function()
    finally:
        for module, attr, original in sites.values():
            setattr(module, attr, original)
    return result, counts


def serve(tree: str, workload: str, seed: int) -> int:
    """Worker: one checked call of the workload per line read; its JSON result per line written.

    A line "warm" asks for the untimed call, which also reports its COUNTED call counts.
    """
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import run  # pins the BLAS threads before it imports numpy

    cli = run._import_package()
    import fedsymptoms
    import numpy

    digests, _ = run.check.recorded_digests(run.check.load_digests(), workload, seed,
                                            numpy.__version__)

    def one_call():
        return run.call_cli(cli, run.WORKLOADS[workload], seed, digests)

    for line in sys.stdin:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if line.strip() == "warm":
            outcome, counts = counted(fedsymptoms, one_call)
        else:
            outcome, counts = one_call(), None
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(json.dumps({"ref_s": outcome.wall_s * outcome.speed, "minflt": faults,
                          "problems": outcome.problems, "counts": counts}), flush=True)
    # stdin closed: every call is done
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}),
          flush=True)
    return 0


def start_worker(tree: str, workload: str, seed: int) -> subprocess.Popen:
    """A worker process serving calls of the workload from the tree at `tree`."""
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", tree,
         "--workload", workload, "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def request(workers: dict[str, subprocess.Popen], side: str, line: str) -> dict:
    """Send one line to a side's worker; its reply to the checked call."""
    worker = workers[side]
    worker.stdin.write(line + "\n")
    worker.stdin.flush()
    answer = worker.stdout.readline()
    if not answer:
        raise RuntimeError(f"{side} worker exited with {worker.wait()}")
    reply = json.loads(answer)
    if reply["problems"]:
        raise RuntimeError(f"{side} call failed its output check: {reply['problems']}")
    return reply


def call(workers: dict[str, subprocess.Popen], side: str) -> tuple[float, int]:
    """One call on a side's worker; its time at reference speed and its minor page faults."""
    reply = request(workers, side, "call")
    return reply["ref_s"], reply["minflt"]


def warm_up(workers: dict[str, subprocess.Popen], side: str) -> dict[str, int | None]:
    """The untimed call on a side's worker; its COUNTED call counts."""
    return request(workers, side, "warm")["counts"]


def finish(worker: subprocess.Popen) -> float:
    """Close a worker's calls; the peak RSS in MB it reports after its last call."""
    worker.stdin.close()
    line = worker.stdout.readline()
    worker.wait(timeout=WORKER_TIMEOUT_S)
    if not line:
        raise RuntimeError(f"worker exited with {worker.returncode} before its peak RSS")
    return json.loads(line)["peak_rss_mb"]


def bench_workload(trees: dict[str, str], commits: dict[str, str], workload: str, seed: int,
                   pairs: int) -> tuple[dict, dict, dict | None, dict]:
    """Pairs of calls of one workload on a fresh worker pair; prints its lines as it goes.

    Returns each side's call times, minor page faults, peak RSS and
    COUNTED call counts in its untimed call: the peaks None if a call
    failed, with the times and faults of the pairs completed before it,
    and a side's counts None if its untimed call did not complete.
    """
    workers: dict[str, subprocess.Popen] = {}
    times: dict[str, list[float]] = {"base": [], "change": []}
    faults: dict[str, list[int]] = {"base": [], "change": []}
    counts: dict[str, dict | None] = {"base": None, "change": None}
    completed = 0
    peaks = None
    try:
        for side, tree in trees.items():
            workers[side] = start_worker(tree, workload, seed)
        try:
            for side in workers:
                counts[side] = warm_up(workers, side)
            for i in range(pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    seconds, minflt = call(workers, side)
                    times[side].append(seconds)
                    faults[side].append(minflt)
                print(f"pair {i + 1} {workload} ({order[0]} first): "
                      f"base {times['base'][-1]:.4f} s, change {times['change'][-1]:.4f} s, "
                      f"ratio {times['base'][-1] / times['change'][-1]:.3f}", flush=True)
                completed = i + 1
        except (RuntimeError, BrokenPipeError) as exc:
            # BrokenPipeError: the worker exited before it read its call
            print(f"error: {workload} pair {completed + 1}: {exc}", file=sys.stderr, flush=True)
            # a pair the failure cut short counts for neither side
            for side_values in (*times.values(), *faults.values()):
                del side_values[completed:]
        else:
            peaks = {side: finish(worker) for side, worker in workers.items()}
    finally:
        for worker in workers.values():
            if worker.returncode is None:
                try:
                    worker.stdin.close()
                except BrokenPipeError:
                    pass  # the worker is gone with a call still buffered
                worker.wait(timeout=WORKER_TIMEOUT_S)

    summary = (f"{workload}, {completed} pairs, seed {seed}, "
               f"base {commits['base'][:12]} change {commits['change'][:12]}")
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    if ratios:
        q1, q2, q3 = quartiles(ratios)
        wins = sum(1 for r in ratios if r > 1.0)
        summary += (f": base/change time ratio {q2:.3f} [{q1:.3f}-{q3:.3f}], "
                    f"change won {wins}/{completed}")
    print(summary)
    if all(counts.values()):
        print(f"{workload} calls in the untimed call: " + "; ".join(
            f"{side} " + ", ".join(f"{name} {count}" for name, count in side_counts.items())
            for side, side_counts in counts.items()))
    if peaks:
        print(f"{workload} peak RSS after {completed + 1} calls a side: "
              f"base {peaks['base']:.2f} MB, change {peaks['change']:.2f} MB "
              f"({100 * (peaks['change'] / peaks['base'] - 1):+.2f}%); "
              f"median minor faults a call: base {statistics.median(faults['base']):.0f}, "
              f"change {statistics.median(faults['change']):.0f}")
    return times, faults, peaks, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="git revision of the base side, e.g. HEAD~1")
    parser.add_argument("change", nargs="?", help="git revision of the change side, e.g. HEAD")
    parser.add_argument("--workload", required=True,
                        help="a workload name, a comma list of them, or all")
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
    times: dict[str, dict[str, list[float]]] = {}
    faults: dict[str, dict[str, list[int]]] = {}
    peaks: dict[str, dict | None] = {}
    counts: dict[str, dict] = {}
    try:
        commits, trees = extract({"base": args.base, "change": args.change}, tmp)
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            known = [w["name"] for w in json.load(fh)["workloads"]]
        workloads = known if args.workload == "all" else args.workload.split(",")
        unknown = [name for name in workloads if name not in known]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; expected some of {known} or all")
        for name in workloads:
            times[name], faults[name], peaks[name], counts[name] = bench_workload(
                trees, commits, name, args.seed, args.pairs)
            if peaks[name] is None:
                break  # a failed call ends the series
        print(json.dumps({"workloads": workloads, "seed": args.seed, "commits": commits,
                          "times": times, "minor_faults": faults, "peak_rss_mb": peaks,
                          "calls": counts}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if len(peaks) == len(workloads) and all(peaks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
