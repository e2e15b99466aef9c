"""tools/bench_calls.py's worker protocol, and the pairs it keeps when a call fails."""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def test_a_worker_reports_its_peak_rss_after_its_last_call(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    # this checkout serves as the tree, as an extracted revision would
    worker = subprocess.Popen(
        [sys.executable, os.path.join(TOOLS, "bench_calls.py"), "--serve", ROOT,
         "--workload", "run_I_single", "--seed", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert bench_calls.call({"base": worker}, "base") > 0.0
        peak = bench_calls.finish(worker)
    finally:
        if worker.returncode is None:
            worker.kill()
            worker.wait()
    assert worker.returncode == 0
    # the package, numpy and one call's arrays: tens of MB, not a kilobyte count
    assert 10.0 < peak < 1000.0


class FakeWorker:
    """Stands in for a worker process: only what main's clean-up touches.

    A broken worker's stdin raises on close, as a pipe does once its reader
    has exited with a call still buffered.
    """

    def __init__(self, broken):
        self.returncode = None
        self.stdin = self
        self.closed = False
        self.broken = broken

    def close(self):
        self.closed = True
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")

    def wait(self, timeout=None):
        self.returncode = 0
        return 0


@pytest.mark.parametrize("error", [RuntimeError("change worker exited with 1"),
                                   BrokenPipeError(32, "Broken pipe")],
                         ids=["worker-exited", "broken-pipe"])
def test_a_failed_call_keeps_the_completed_pairs(monkeypatch, tmp_path, capsys, error):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")

    def extract(revisions, tmp):
        trees = {side: str(tmp_path / side) for side in revisions}
        for tree in trees.values():
            os.makedirs(tree)
            with open(os.path.join(tree, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
                json.dump({"workloads": [{"name": "run_IV_wide"}]}, fh)
        return {side: "0123456789abcdef" for side in revisions}, trees

    workers = {}

    def start_worker(tree, workload, seed):
        workers[os.path.basename(tree)] = FakeWorker(isinstance(error, BrokenPipeError))
        return workers[os.path.basename(tree)]

    calls = []

    def call(_workers, side):
        calls.append(side)
        # two warm-up calls, two pairs, then pair 3 fails on its second side
        if len(calls) == 8:
            raise error
        return 2.0 if side == "base" else 1.0

    def finish(worker):
        raise AssertionError("no peak RSS is read after a failed call")

    monkeypatch.setattr(bench_calls, "extract", extract)
    monkeypatch.setattr(bench_calls, "start_worker", start_worker)
    monkeypatch.setattr(bench_calls, "call", call)
    monkeypatch.setattr(bench_calls, "finish", finish)
    assert bench_calls.main(["base", "change", "--workload", "run_IV_wide",
                             "--pairs", "10"]) == 1
    # never retried: the failed call is the last one
    assert calls == ["base", "change", "base", "change", "change", "base", "base", "change"]
    out, err = capsys.readouterr()
    assert err == f"error: pair 3: {error}\n"
    lines = out.splitlines()
    assert lines[:-1] == [
        "pair 1 (base first): base 2.0000 s, change 1.0000 s, ratio 2.000",
        "pair 2 (change first): base 2.0000 s, change 1.0000 s, ratio 2.000",
        "run_IV_wide, 2 pairs, seed 1, base 0123456789ab change 0123456789ab: "
        "base/change time ratio 2.000 [2.000-2.000], change won 2/2"]
    result = json.loads(lines[-1])
    assert result["times"] == {"base": [2.0, 2.0], "change": [1.0, 1.0]}
    assert result["peak_rss_mb"] is None
    assert all(worker.closed and worker.returncode == 0 for worker in workers.values())
