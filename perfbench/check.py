"""Output check for one workload call: row counts, value ranges, digests.

The digests are sha256 sums of ``predictions.csv`` and ``accuracy.csv``
recorded in ``digests.json`` for a set of seeds. The package promises
byte-identical CSVs for a given seed and config, so a digest that no
longer matches means a change altered the numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
CSV_NAMES = ("predictions.csv", "accuracy.csv")
EVAL_SYMPTOMS = 16


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests_of(out_dir: str) -> dict[str, str]:
    return {name: sha256_of(os.path.join(out_dir, name)) for name in CSV_NAMES}


def load_digests(path: str = DIGESTS_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_digests(table: dict, workload: str, seed: int,
                     numpy_version: str) -> tuple[dict[str, str] | None, str]:
    """The digests recorded for (workload, seed), if any apply here, and a note.

    Digests are recorded under one numpy ``major.minor``; another numpy
    may round differently, so they are not compared there, and the note
    says so.
    """
    recorded_under = table.get("numpy")
    if recorded_under != ".".join(numpy_version.split(".")[:2]):
        return None, (f"skipped: recorded under numpy {recorded_under}, "
                      f"this is numpy {numpy_version}")
    digests = table.get("workloads", {}).get(workload, {}).get(str(seed))
    return digests, "checked" if digests else f"not recorded for seed {seed}"


def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out_dir: str, cells: int, epochs: int,
                  digests: dict[str, str] | None) -> tuple[list[str], float | None]:
    """Problems found in a run or sweep output directory, and final accuracy.

    Final accuracy is the mean accuracy at the last global epoch over the
    directory's runs. An empty problem list means the check passed.
    """
    problems: list[str] = []
    try:
        predictions = _read_rows(os.path.join(out_dir, "predictions.csv"))
        accuracies = _read_rows(os.path.join(out_dir, "accuracy.csv"))
        probs = [float(r["prediction"]) for r in predictions]
        accs = [(int(r["global_epoch"]), float(r["accuracy"])) for r in accuracies]
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None

    if len(predictions) != EVAL_SYMPTOMS * epochs * cells:
        problems.append(f"predictions.csv has {len(predictions)} rows, "
                        f"expected {EVAL_SYMPTOMS * epochs * cells}")
    if len(accuracies) != epochs * cells:
        problems.append(f"accuracy.csv has {len(accuracies)} rows, expected {epochs * cells}")
    if not all(0.0 < p < 1.0 for p in probs):
        problems.append("a prediction lies outside (0, 1)")
    if not all(0.0 <= a <= 1.0 for _, a in accs):
        problems.append("an accuracy lies outside [0, 1]")
    for name, expected in (digests or {}).items():
        actual = sha256_of(os.path.join(out_dir, name))
        if actual != expected:
            problems.append(f"{name} sha256 {actual} differs from recorded {expected}")

    final = None
    if accs:
        last = max(epoch for epoch, _ in accs)
        at_last = [a for epoch, a in accs if epoch == last]
        final = sum(at_last) / len(at_last)
    return problems, final
