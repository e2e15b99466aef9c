"""tools/bench_pairs.py's summary: the gain claim and the no-regression verdict per metric."""

import importlib.util
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
