"""tools/bench_pairs.py's summary: the gain claim and the no-regression verdict per metric."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"train_examples_per_s": "higher", "peak_rss_mb": "lower"}
BOUNDS = {"train_examples_per_s": 0.2, "peak_rss_mb": 0.1}


def verdicts(base, change):
    """The summary's verdict for train_examples_per_s and for peak_rss_mb.

    `base` and `change` hold one (examples per s, MB) pair a run.
    """
    runs = {side: [{"train_examples_per_s": rate, "peak_rss_mb": mb, "failed_ratio": 0.0}
                   for rate, mb in values]
            for side, values in (("base", base), ("change", change))}
    lines = bench_pairs.summarize(runs, BETTER, BOUNDS)
    found = {}
    for line in lines:
        name = line.split()[0]
        found[name] = line.split(f"/{len(base)}", 1)[1].strip()
    assert found["failed_ratio"] == ""  # no end-to-end metric, no verdict
    return found["train_examples_per_s"], found["peak_rss_mb"]


STEADY = [(100.0 + i % 3, 40.0 + 0.1 * (i % 2)) for i in range(10)]


def test_a_faster_change_is_a_gain_that_held():
    faster = [(rate * 1.3, mb) for rate, mb in STEADY]
    assert verdicts(STEADY, faster) == ("gain, held", "no claim, held")


def test_a_change_within_the_bounds_held():
    slower = [(rate * 0.9, mb * 1.05) for rate, mb in STEADY]
    assert verdicts(STEADY, slower) == ("no claim, held", "no claim, held")


def test_a_change_past_either_bound_is_worse_than_bound():
    slower = [(rate * 0.7, mb) for rate, mb in STEADY]
    assert verdicts(STEADY, slower)[0] == "no claim, worse than bound"
    bigger = [(rate, mb * 1.2) for rate, mb in STEADY]
    assert verdicts(STEADY, bigger)[1] == "no claim, worse than bound"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # an interquartile range of about half the median, past the 20% bound
    noisy = [(rate, 40.0) for rate in (50.0, 150.0, 60.0, 140.0, 100.0,
                                       100.0, 70.0, 130.0, 80.0, 120.0)]
    same = [(100.0, 40.0)] * 10
    assert verdicts(noisy, same)[0] == "no claim, unresolved"
    # unless every change run beats every base run
    beyond = [(160.0 + i, 40.0) for i in range(10)]
    assert verdicts(noisy, beyond)[0] == "gain, held"
    # a median worse by more than the bound stays a regression, however wide the spread
    assert verdicts(noisy, [(70.0, 40.0)] * 10)[0] == "no claim, worse than bound"


@pytest.mark.parametrize("pairs", [1, 5])
def test_under_ten_pairs_no_gain_is_claimed_but_regressions_still_show(pairs):
    faster = [(rate * 1.3, mb * 1.2) for rate, mb in STEADY[:pairs]]
    assert verdicts(STEADY[:pairs], faster) == ("no claim under 10 pairs, held",
                                                "no claim under 10 pairs, worse than bound")


def test_a_failed_run_keeps_the_completed_pairs(monkeypatch, tmp_path, capsys):
    def extract(revisions, tmp):
        trees = {side: str(tmp_path / side) for side in revisions}
        for tree in trees.values():
            os.makedirs(tree)
            with open(os.path.join(tree, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
                json.dump({"workloads": [{"name": "a"}, {"name": "b"}],
                           "end_to_end": [{"name": name, "better": better, "bound": BOUNDS[name]}
                                          for name, better in BETTER.items()]}, fh)
        return {side: "0123456789abcdef" for side in revisions}, trees

    calls = []

    def run_side(tree, workload, seed, seconds):
        calls.append((os.path.basename(tree), workload))
        # pair 3 runs workload a on both sides, then fails on b's second side
        if len(calls) == 12:
            raise RuntimeError("perfbench failed (exit 1)")
        return {"train_examples_per_s": 100.0 + len(calls), "peak_rss_mb": 40.0,
                "failed_ratio": 0.0}

    monkeypatch.setattr(bench_pairs, "extract", extract)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["base", "change", "--workload", "all", "--pairs", "10"]) == 1
    # never retried: the failed call is the last one
    assert len(calls) == 12
    out, err = capsys.readouterr()
    assert err == "error: pair 3: perfbench failed (exit 1)\n"
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("pair ")] == [
        f"pair {i} {name} ({first} first), base/change: "
        f"train_examples_per_s {base:g}/{change:g}  peak_rss_mb 40/40"
        for i, name, first, base, change in (
            (1, "a", "base", 101, 102), (1, "b", "base", 103, 104),
            (2, "a", "change", 106, 105), (2, "b", "change", 108, 107),
            (3, "a", "base", 109, 110))]
    for name in ("a", "b"):
        header = next(i for i, line in enumerate(lines) if line.startswith(f"{name}, "))
        assert lines[header].startswith(f"{name}, 2 pairs, seed 1, ")
        # failed_ratio, peak_rss_mb, then the rate, which grows with each call
        assert lines[header + 3].endswith("change won 1/2  no claim under 10 pairs, held")
    result = json.loads(lines[-1])
    assert {name: {side: len(values) for side, values in sides.items()}
            for name, sides in result["runs"].items()} == {
        "a": {"base": 2, "change": 2}, "b": {"base": 2, "change": 2}}
