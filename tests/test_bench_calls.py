"""tools/bench_calls.py's worker protocol, its series over several workloads, the minor
page faults it reports, and the pairs it keeps when a call fails."""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def test_a_worker_reports_each_calls_faults_and_its_peak_rss_after_its_last_call(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    # this checkout serves as the tree, as an extracted revision would
    worker = subprocess.Popen(
        [sys.executable, os.path.join(TOOLS, "bench_calls.py"), "--serve", ROOT,
         "--workload", "run_I_single", "--seed", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        # one untimed call, whose training steps are counted, then one timed call
        counts = bench_calls.warm_up({"base": worker}, "base")
        seconds, faults = bench_calls.call({"base": worker}, "base")
        assert seconds > 0.0
        # a first call faults in the pages of everything it builds
        assert type(faults) is int and faults > 0
        peak = bench_calls.finish(worker)
    finally:
        if worker.returncode is None:
            worker.kill()
            worker.wait()
    assert worker.returncode == 0
    # the package, numpy and one call's arrays: tens of MB, not a kilobyte count
    assert 10.0 < peak < 1000.0
    # one client alone: one gradient and one Adam update a step
    assert set(counts) == set(bench_calls.COUNTED)
    assert counts["mlp._backprop"] == counts["mlp.adam_step"] > 0
    # one forward call scores each of the 5 snapshots' symptoms
    assert counts["evaluation.forward"] == 5
    # a scoring pass for each snapshot, and 257 for the 5 rounds' mean_loss of the client
    # of ~13k rows, walked in blocks of 256 to 511 rows
    assert counts["mlp._forward"] == 5 + 257


def test_counted_wraps_each_name_for_one_call_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")

    def backprop(x):
        return 2 * x

    def forward(x):
        return x

    # a tree whose mlp has no adam_step counts it as None
    module = types.SimpleNamespace(_backprop=backprop, _forward=forward)
    evaluation = types.SimpleNamespace(forward=forward)
    package = types.SimpleNamespace(mlp=module, evaluation=evaluation)

    def work():
        assert module._backprop is not backprop and evaluation.forward is not forward
        assert module._forward is not forward
        return (sum(module._backprop(x) for x in range(5)) + evaluation.forward(1)
                + module._forward(2) + module._forward(3))

    result, counts = bench_calls.counted(package, work)
    assert result == 26
    assert counts == {"mlp._backprop": 5, "mlp.adam_step": None, "mlp._forward": 2,
                      "evaluation.forward": 1}
    assert module._backprop is backprop and not hasattr(module, "adam_step")
    assert module._forward is forward and evaluation.forward is forward

    def fails():
        module._backprop(1)
        raise ValueError("call failed")

    with pytest.raises(ValueError, match="call failed"):
        bench_calls.counted(package, fails)
    assert module._backprop is backprop and evaluation.forward is forward
    # a tree without the module counts each of its names as None
    _, counts = bench_calls.counted(types.SimpleNamespace(mlp=module), lambda: None)
    assert counts["evaluation.forward"] is None


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


WORKLOADS = ("run_I_single", "run_IV_wide", "sweep_eps_III")


def fake_extract(tmp_path):
    """Stands in for bench_pairs.extract: two trees whose BENCHMARK.json lists WORKLOADS."""

    def extract(revisions, tmp):
        trees = {side: str(tmp_path / side) for side in revisions}
        for tree in trees.values():
            os.makedirs(tree)
            with open(os.path.join(tree, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
                json.dump({"workloads": [{"name": name} for name in WORKLOADS]}, fh)
        return {side: "0123456789abcdef" for side in revisions}, trees

    return extract


@pytest.mark.parametrize("error", [RuntimeError("change worker exited with 1"),
                                   BrokenPipeError(32, "Broken pipe")],
                         ids=["worker-exited", "broken-pipe"])
def test_a_failed_call_keeps_the_completed_pairs(monkeypatch, tmp_path, capsys, error):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    workers = {}

    def start_worker(tree, workload, seed):
        workers[os.path.basename(tree)] = FakeWorker(isinstance(error, BrokenPipeError))
        return workers[os.path.basename(tree)]

    calls = []

    def warm_up(_workers, side):
        calls.append(side)
        return {"_backprop": 9, "adam_step": 8} if side == "base" else {"_backprop": 4,
                                                                         "adam_step": 6}

    def call(_workers, side):
        calls.append(side)
        # two warm-up calls, two pairs, then pair 3 fails on its second side
        if len(calls) == 8:
            raise error
        return (2.0, 300) if side == "base" else (1.0, 7)

    def finish(worker):
        raise AssertionError("no peak RSS is read after a failed call")

    monkeypatch.setattr(bench_calls, "extract", fake_extract(tmp_path))
    monkeypatch.setattr(bench_calls, "start_worker", start_worker)
    monkeypatch.setattr(bench_calls, "warm_up", warm_up)
    monkeypatch.setattr(bench_calls, "call", call)
    monkeypatch.setattr(bench_calls, "finish", finish)
    assert bench_calls.main(["base", "change", "--workload", "run_IV_wide",
                             "--pairs", "10"]) == 1
    # never retried: the failed call is the last one
    assert calls == ["base", "change", "base", "change", "change", "base", "base", "change"]
    out, err = capsys.readouterr()
    assert err == f"error: run_IV_wide pair 3: {error}\n"
    lines = out.splitlines()
    assert lines[:-1] == [
        "pair 1 run_IV_wide (base first): base 2.0000 s, change 1.0000 s, ratio 2.000",
        "pair 2 run_IV_wide (change first): base 2.0000 s, change 1.0000 s, ratio 2.000",
        "run_IV_wide, 2 pairs, seed 1, base 0123456789ab change 0123456789ab: "
        "base/change time ratio 2.000 [2.000-2.000], change won 2/2",
        "run_IV_wide calls in the untimed call: base _backprop 9, adam_step 8; "
        "change _backprop 4, adam_step 6"]
    result = json.loads(lines[-1])
    assert result["calls"] == {"run_IV_wide": {"base": {"_backprop": 9, "adam_step": 8},
                                               "change": {"_backprop": 4, "adam_step": 6}}}
    assert result["times"] == {"run_IV_wide": {"base": [2.0, 2.0], "change": [1.0, 1.0]}}
    assert result["minor_faults"] == {"run_IV_wide": {"base": [300, 300], "change": [7, 7]}}
    assert result["peak_rss_mb"] == {"run_IV_wide": None}
    assert all(worker.closed and worker.returncode == 0 for worker in workers.values())


class FakeWorkload:
    """Fake workers for a series over several workloads.

    A call's time and faults and a worker's peak RSS depend on its side and
    on the workload it serves; the change side's faults alternate between
    two values, so their median is not one call's. `fail` makes that
    workload's first change call fail.
    """

    def __init__(self, fail=None):
        self.started = []
        self.fail = fail
        self.change_calls = 0

    def start_worker(self, tree, workload, seed):
        side = os.path.basename(tree)
        self.started.append((side, workload, seed))
        worker = FakeWorker(broken=False)
        worker.side, worker.workload = side, workload
        return worker

    def warm_up(self, workers, side):
        workload = workers[side].workload
        if side == "change" and workload == self.fail:
            raise RuntimeError("change worker exited with 1")
        # a tree without adam_step counts it as None
        step = WORKLOADS.index(workload)
        return ({"_backprop": 100 + step, "adam_step": 50 + step} if side == "base"
                else {"_backprop": 10 + step, "adam_step": None})

    def call(self, workers, side):
        workload = workers[side].workload
        step = 1.0 + WORKLOADS.index(workload)
        if side == "base":
            return 2.0 * step, 1000 * int(step)
        self.change_calls += 1
        return step, 10 + self.change_calls % 2

    def finish(self, worker):
        worker.returncode = 0
        return 40.0 + WORKLOADS.index(worker.workload) + (0.5 if worker.side == "change" else 0)


@pytest.mark.parametrize("argument, expected", [("all", WORKLOADS),
                                                ("sweep_eps_III,run_I_single",
                                                 ("sweep_eps_III", "run_I_single"))],
                         ids=["all", "comma-list"])
def test_each_workload_gets_its_own_worker_pair_summary_and_json_key(
        monkeypatch, tmp_path, capsys, argument, expected):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    fake = FakeWorkload()
    monkeypatch.setattr(bench_calls, "extract", fake_extract(tmp_path))
    monkeypatch.setattr(bench_calls, "start_worker", fake.start_worker)
    monkeypatch.setattr(bench_calls, "warm_up", fake.warm_up)
    monkeypatch.setattr(bench_calls, "call", fake.call)
    monkeypatch.setattr(bench_calls, "finish", fake.finish)
    assert bench_calls.main(["base", "change", "--workload", argument, "--pairs", "2",
                             "--seed", "3"]) == 0
    # one base and one change worker per workload, in the order asked for
    assert fake.started == [(side, name, 3) for name in expected for side in ("base", "change")]
    lines = capsys.readouterr().out.splitlines()
    summaries = [line for line in lines if line.startswith(tuple(f"{n}, " for n in expected))]
    assert [line for line in lines if " calls in the untimed call: " in line] == [
        f"{name} calls in the untimed call: "
        f"base _backprop {100 + WORKLOADS.index(name)}, adam_step {50 + WORKLOADS.index(name)}; "
        f"change _backprop {10 + WORKLOADS.index(name)}, adam_step None"
        for name in expected]
    peaks = [line for line in lines if " peak RSS " in line]
    assert [line.split(",")[0] for line in summaries] == list(expected)
    assert all(line.endswith("base/change time ratio 2.000 [2.000-2.000], change won 2/2")
               for line in summaries)
    # the median of the change side's two timed calls, 10 and 11 faults, is 10.5; "{:.0f}"
    # rounds it half to even
    assert peaks == [f"{name} peak RSS after 3 calls a side: "
                     f"base {40 + WORKLOADS.index(name):.2f} MB, "
                     f"change {40.5 + WORKLOADS.index(name):.2f} MB "
                     f"({100 * (0.5 / (40 + WORKLOADS.index(name))):+.2f}%); "
                     f"median minor faults a call: base {1000 * (1 + WORKLOADS.index(name))}, "
                     f"change 10"
                     for name in expected]
    result = json.loads(lines[-1])
    assert result["workloads"] == list(expected)
    assert list(result["times"]) == list(expected) == list(result["peak_rss_mb"])
    assert list(result["minor_faults"]) == list(expected)
    for name in expected:
        step = 1.0 + WORKLOADS.index(name)
        assert result["times"][name] == {"base": [2 * step] * 2, "change": [step] * 2}
        # every timed call's faults, and none of the warm-up's
        assert result["minor_faults"][name]["base"] == [1000 * int(step)] * 2
        assert sorted(result["minor_faults"][name]["change"]) == [10, 11]
        assert result["peak_rss_mb"][name] == {"base": 40 + WORKLOADS.index(name),
                                               "change": 40.5 + WORKLOADS.index(name)}
        # keyed like the times; null for the name the change side's tree lacks
        assert result["calls"][name] == {
            "base": {"_backprop": 100 + WORKLOADS.index(name),
                     "adam_step": 50 + WORKLOADS.index(name)},
            "change": {"_backprop": 10 + WORKLOADS.index(name), "adam_step": None}}


def test_a_failed_workload_ends_the_series(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    fake = FakeWorkload(fail="run_IV_wide")
    monkeypatch.setattr(bench_calls, "extract", fake_extract(tmp_path))
    monkeypatch.setattr(bench_calls, "start_worker", fake.start_worker)
    monkeypatch.setattr(bench_calls, "warm_up", fake.warm_up)
    monkeypatch.setattr(bench_calls, "call", fake.call)
    monkeypatch.setattr(bench_calls, "finish", fake.finish)
    assert bench_calls.main(["base", "change", "--workload", "all", "--pairs", "2"]) == 1
    # the failure comes in run_IV_wide's warm-up; sweep_eps_III never starts
    assert [name for _, name, _ in fake.started] == ["run_I_single"] * 2 + ["run_IV_wide"] * 2
    out, err = capsys.readouterr()
    assert err == "error: run_IV_wide pair 1: change worker exited with 1\n"
    result = json.loads(out.splitlines()[-1])
    assert result["times"]["run_IV_wide"] == {"base": [], "change": []}
    assert result["minor_faults"]["run_IV_wide"] == {"base": [], "change": []}
    assert result["peak_rss_mb"] == {"run_I_single": {"base": 40.0, "change": 40.5},
                                     "run_IV_wide": None}
    # the base side's untimed call completed; the change side's failed
    assert result["calls"]["run_IV_wide"] == {"base": {"_backprop": 101, "adam_step": 51},
                                              "change": None}
    assert "run_IV_wide calls in the untimed call" not in out
    assert "run_IV_wide, 0 pairs, seed 1, base 0123456789ab change 0123456789ab" in out


def test_an_unknown_workload_is_refused_before_any_worker_starts(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    fake = FakeWorkload()
    monkeypatch.setattr(bench_calls, "extract", fake_extract(tmp_path))
    monkeypatch.setattr(bench_calls, "start_worker", fake.start_worker)
    with pytest.raises(SystemExit):
        bench_calls.main(["base", "change", "--workload", "run_IV_wide,run_V", "--pairs", "2"])
    assert fake.started == []
    assert "unknown workload(s) ['run_V']" in capsys.readouterr().err
