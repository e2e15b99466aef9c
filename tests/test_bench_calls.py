"""tools/bench_calls.py's worker protocol: timed calls, then the peak RSS after the last one."""

import importlib
import os
import subprocess
import sys

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
