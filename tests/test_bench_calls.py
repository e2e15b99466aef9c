"""tools/bench_calls.py's worker protocol, its series over several workloads, the raw wall
time, CPU seconds and minor page faults it reports, and the pairs it keeps when a call
fails."""

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
        measures = bench_calls.call({"base": worker}, "base")
        assert set(measures) == set(bench_calls.MEASURES)
        assert measures["ref_s"] > 0.0 and measures["wall_s"] > 0.0
        # the call's own CPU time; every run_I_single window is one chunk, trained in the
        # worker itself, so no child ran
        assert measures["cpu_self_s"] > 0.0
        assert measures["cpu_children_s"] == 0.0
        # a first call faults in the pages of everything it builds
        assert type(measures["minflt"]) is int and measures["minflt"] > 0
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
    # the client's size is read twice a round: by run_round and by its window
    assert counts["sampling.ClientDataset.__len__"] == 2 * 5


def test_counted_wraps_each_name_for_one_call_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")

    def backprop(x):
        return 2 * x

    def forward(x):
        return x

    class ClientDataset:
        def __len__(self):
            return 4

    length = ClientDataset.__len__
    # a tree whose mlp has no adam_step counts it as None
    module = types.SimpleNamespace(_backprop=backprop, _forward=forward)
    evaluation = types.SimpleNamespace(forward=forward)
    sampling = types.SimpleNamespace(ClientDataset=ClientDataset)
    package = types.SimpleNamespace(mlp=module, evaluation=evaluation, sampling=sampling)

    cpus = os.sched_getaffinity(0)

    def work():
        # the call runs on one CPU
        assert os.sched_getaffinity(0) == {min(cpus)}
        assert module._backprop is not backprop and evaluation.forward is not forward
        assert module._forward is not forward and ClientDataset.__len__ is not length
        # len() of an instance goes through the class's wrapped __len__
        return (sum(module._backprop(x) for x in range(5)) + evaluation.forward(1)
                + module._forward(2) + module._forward(3) + len(ClientDataset())
                + len(ClientDataset()))

    result, counts = bench_calls.counted(package, work)
    assert result == 34
    assert counts == {"mlp._backprop": 5, "mlp.adam_step": None, "mlp._forward": 2,
                      "evaluation.forward": 1, "sampling.ClientDataset.__len__": 2}
    assert module._backprop is backprop and not hasattr(module, "adam_step")
    assert module._forward is forward and evaluation.forward is forward
    assert ClientDataset.__len__ is length and len(ClientDataset()) == 4
    assert os.sched_getaffinity(0) == cpus

    def fails():
        module._backprop(1)
        raise ValueError("call failed")

    with pytest.raises(ValueError, match="call failed"):
        bench_calls.counted(package, fails)
    assert module._backprop is backprop and evaluation.forward is forward
    assert os.sched_getaffinity(0) == cpus
    # a tree without the module, or without the class, counts each of their names as None
    _, counts = bench_calls.counted(types.SimpleNamespace(mlp=module), lambda: None)
    assert counts["evaluation.forward"] is None
    assert counts["sampling.ClientDataset.__len__"] is None
    _, counts = bench_calls.counted(types.SimpleNamespace(sampling=types.SimpleNamespace()),
                                    lambda: None)
    assert counts["sampling.ClientDataset.__len__"] is None


def test_counted_counts_every_chunk_of_a_window_the_package_would_share_out(monkeypatch):
    # twelve clients in chunks of two: on more than one CPU the package trains them in
    # forked processes, whose calls no wrapper here would see; counted runs them on one
    monkeypatch.syspath_prepend(TOOLS)
    bench_calls = importlib.import_module("bench_calls")
    import numpy as np

    import fedsymptoms
    from fedsymptoms import mlp
    from conftest import client_dataset, matrix_phrase_table

    rng = np.random.default_rng(7)
    table = matrix_phrase_table(rng.standard_normal((50, mlp.LAYER_SIZES[0])))
    clients = [client_dataset(table, rng.integers(50, size=n), rng.integers(0, 2, size=n))
               for n in (40, 7, 33, 40, 12, 65, 3, 33, 20, 9, 64, 1)]
    start = mlp.init_params(np.random.default_rng(8))
    monkeypatch.setattr(mlp, "LOCKSTEP_CLIENTS", 2)
    monkeypatch.setattr(mlp, "LOCKSTEP_MAX_CLIENTS", 2)

    def train():
        streams = [np.random.default_rng([9, i]) for i in range(len(clients))]
        return mlp.train_local([start] * len(clients), mlp.Window(clients),
                               mlp.TrainConfig(local_epochs=2), streams)

    block, counts = bench_calls.counted(fedsymptoms, train)
    monkeypatch.setattr(mlp, "train_processes", lambda: 1)
    alone, expected = bench_calls.counted(fedsymptoms, train)
    # 6 chunks of two, one adam_step block a chunk a step, each stepping as long as its
    # largest client: 2 epochs of 3, 2, 2, 1, 1 and 1 steps (65, 40, 33, 20, 9 and 3 rows)
    assert counts["mlp.adam_step"] == 2 * (3 + 2 + 2 + 1 + 1 + 1)
    assert counts == expected
    assert block.tobytes() == alone.tobytes()


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
        if side == "base":
            return {"ref_s": 2.0, "wall_s": 3.0, "cpu_self_s": 2.5, "cpu_children_s": 0.0,
                    "minflt": 300}
        return {"ref_s": 1.0, "wall_s": 2.0, "cpu_self_s": 1.0, "cpu_children_s": 1.5,
                "minflt": 7}

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
        "run_IV_wide raw wall: base/change wall ratio 1.500 [1.500-1.500], change won 2/2; "
        "median CPU s a call: base self 2.500, children 0.000; "
        "change self 1.000, children 1.500",
        "run_IV_wide calls in the untimed call: base _backprop 9, adam_step 8; "
        "change _backprop 4, adam_step 6"]
    result = json.loads(lines[-1])
    assert result["calls"] == {"run_IV_wide": {"base": {"_backprop": 9, "adam_step": 8},
                                               "change": {"_backprop": 4, "adam_step": 6}}}
    assert result["times"] == {"run_IV_wide": {"base": [2.0, 2.0], "change": [1.0, 1.0]}}
    assert result["minor_faults"] == {"run_IV_wide": {"base": [300, 300], "change": [7, 7]}}
    assert result["wall_s"] == {"run_IV_wide": {"base": [3.0, 3.0], "change": [2.0, 2.0]}}
    assert result["cpu_self_s"] == {"run_IV_wide": {"base": [2.5, 2.5], "change": [1.0, 1.0]}}
    assert result["cpu_children_s"] == {"run_IV_wide": {"base": [0.0, 0.0],
                                                        "change": [1.5, 1.5]}}
    assert result["peak_rss_mb"] == {"run_IV_wide": None}
    assert all(worker.closed and worker.returncode == 0 for worker in workers.values())


class FakeWorkload:
    """Fake workers for a series over several workloads.

    A call's measures and a worker's peak RSS depend on its side and on
    the workload it serves; the change side's faults and children's CPU
    seconds alternate between two values, so their median is not one
    call's. The change side's raw wall time is less flattered than its
    reference-speed time. `fail` makes that workload's first change call
    fail.
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
            return {"ref_s": 2.0 * step, "wall_s": 3.0 * step, "cpu_self_s": 2.0 * step,
                    "cpu_children_s": 0.0, "minflt": 1000 * int(step)}
        self.change_calls += 1
        odd = self.change_calls % 2
        return {"ref_s": step, "wall_s": 2.0 * step, "cpu_self_s": step,
                "cpu_children_s": step + odd, "minflt": 10 + odd}

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
    # the children's median of step and step + 1 is step + 0.5
    assert [line for line in lines if " raw wall: " in line] == [
        f"{name} raw wall: base/change wall ratio 1.500 [1.500-1.500], change won 2/2; "
        f"median CPU s a call: base self {2.0 * (1 + WORKLOADS.index(name)):.3f}, "
        f"children 0.000; change self {1.0 + WORKLOADS.index(name):.3f}, "
        f"children {1.5 + WORKLOADS.index(name):.3f}"
        for name in expected]
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
    for key in ("minor_faults", "wall_s", "cpu_self_s", "cpu_children_s"):
        assert list(result[key]) == list(expected)
    for name in expected:
        step = 1.0 + WORKLOADS.index(name)
        assert result["times"][name] == {"base": [2 * step] * 2, "change": [step] * 2}
        assert result["wall_s"][name] == {"base": [3 * step] * 2, "change": [2 * step] * 2}
        assert result["cpu_self_s"][name] == {"base": [2 * step] * 2, "change": [step] * 2}
        assert sorted(result["cpu_children_s"][name]["change"]) == [step, step + 1]
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
    assert result["wall_s"]["run_IV_wide"] == {"base": [], "change": []}
    assert result["cpu_children_s"]["run_IV_wide"] == {"base": [], "change": []}
    assert "run_IV_wide raw wall" not in out and "run_I_single raw wall" in out
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
