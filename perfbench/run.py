"""fedsymptoms benchmark: fixed workloads driven through ``fedsymptoms.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run_IV_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one workload. With ``--trace 0`` it times the set-up of
fresh interpreters, makes one untimed warm-up call that also counts the
training work, then calls the CLI until ``--seconds`` are spent and
reports the end-to-end metrics. With ``--trace 1`` it alternates traced
and untraced calls, reports the per-layer metrics and the tracing
overhead, and writes the spans under ``.perfbench_out/``. Bounded and
per-layer times are in reference-speed seconds (see ``speed.py``).
Every call's CSVs pass the output check in ``check.py``. The metric
names and units come from ``BENCHMARK.json`` at the checkout root. The
last line of standard output is one JSON result; the lines before it
are for people.
``--workload all`` runs each workload in its own child process, one at
a time, and prints their reports.
"""

import os

# Pin every BLAS and OpenMP pool to one thread before numpy is imported,
# here and in the set-up probes, which inherit the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import check  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

EPOCHS = 5  # the CLI's default global epochs, which every workload keeps
SETUP_PROBES = 9
MIN_TIMED_CALLS = 3
MIN_TRACE_PAIRS = 2
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 600

# Per-layer metrics allowed to read 0: no workload is expected to make a
# client with an empty survey, but one may.
MAY_BE_ZERO = {"sampling.empty_clients"}


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int  # independent simulation runs per CLI call
    command: tuple[str, ...]  # CLI arguments; {s}, {s1}, {s2} are seed, seed+1, seed+2
    # Survey only this country of the bundled table, so the seed cannot
    # change which country, and so how much data, a lone client gets.
    country: str | None = None
    # tracer.SITES this command never calls through; every other site
    # must fire on a traced call.
    unused_sites: frozenset[str] = frozenset()

    def argv(self, seed: int, out_dir: str) -> list[str]:
        values = {"s": seed, "s1": seed + 1, "s2": seed + 2}
        argv = [part.format(**values) for part in self.command] + ["--output-dir", out_dir]
        if self.country:
            argv += ["--surveys", one_country_surveys(self.country)]
        return argv


# `run` reaches the simulation and its evaluation through the CLI's
# names, `sweep` through the evaluation module's.
RUN_ONLY = frozenset({"fedsymptoms.cli.run_simulation", "fedsymptoms.cli.record_run"})
SWEEP_ONLY = frozenset({"fedsymptoms.evaluation.run_simulation",
                        "fedsymptoms.evaluation.record_run"})

# Why each workload: see README.md in this directory.
WORKLOADS = {w.name: w for w in (
    Workload("run_I_single", 1, (
        "run", "--seed", "{s}", "--simulation", "I", "--scale", "0.03",
        "--mechanism", "uniform_threshold", "--noise-level", "0.5"),
        country="Germany", unused_sites=SWEEP_ONLY),
    Workload("run_IV_wide", 1, (
        "run", "--seed", "{s}", "--simulation", "IV", "--scale", "0.1",
        "--participation", "0.025", "--mechanism", "uniform_threshold",
        "--noise-level", "0.5"), unused_sites=SWEEP_ONLY),
    Workload("sweep_eps_III", 12, (
        "sweep", "--axis", "epsilon", "--values", "0.5,2,10,100",
        "--seeds", "{s},{s1},{s2}", "--simulation", "III", "--scale", "0.01"),
        unused_sites=RUN_ONLY),
)}


@dataclass
class Outcome:
    wall_s: float
    speed: float  # host speed factor over the call, see speed.py
    problems: list[str]
    final_accuracy: float | None


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import fedsymptoms.cli as cli

    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        raise ImportError(f"fedsymptoms imported from {cli.__file__}, not {SRC}")
    return cli


def one_country_surveys(country: str) -> str:
    """Write the bundled survey's block for one country; return its path."""
    from fedsymptoms import assets
    from fedsymptoms.surveys import load_surveys

    survey = next(s for s in load_surveys(assets.default_surveys_path()) if s.country == country)
    lines = [f"country: {survey.country}", f"total: {survey.total}"]
    lines += [f"{name}: {count}" for name, count in survey.symptom_counts.items()]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"surveys-{country}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def call_cli(cli, workload: Workload, seed: int, digests: dict | None) -> Outcome:
    """One timed ``main`` call, then the output check on what it wrote."""
    out_dir = os.path.join(OUT, f"{workload.name}-out")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(seed, out_dir)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with speed.SpeedSampler() as sampler:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a failed call is counted, not fatal
                code = repr(exc)
            wall = time.perf_counter() - start
    if code != 0:
        return Outcome(wall, sampler.factor(),
                       [f"main returned {code}: {sink.getvalue().strip()[-500:]}"], None)
    problems, final = check.check_outputs(out_dir, workload.cells, EPOCHS, digests)
    return Outcome(wall, sampler.factor(), problems, final)


def probe_setup() -> tuple[float, float]:
    """One fresh interpreter's set-up seconds and the host speed after it."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    seconds, factor = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def _summary(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.4f}, max {max(values):.4f}"


def measure_end_to_end(cli, workload: Workload, seed: int, seconds: float,
                       digests: dict | None) -> tuple[dict, list[Outcome], list[str], list[str]]:
    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    counter = tracer.ExampleCounter()
    with counter.installed():
        warm = call_cli(cli, workload, seed, digests)
    outcomes = [warm]
    timed: list[Outcome] = []
    started = time.perf_counter()
    # stop before a call that would, at the median call time, overrun
    while (len(timed) < MIN_TIMED_CALLS
           or time.perf_counter() - started
           + statistics.median(o.wall_s for o in timed) <= seconds):
        timed.append(call_cli(cli, workload, seed, digests))
    outcomes += timed

    walls = [o.wall_s for o in timed]
    ref_walls = [o.wall_s * o.speed for o in timed]
    ref_setup = [s * f for s, f in probes]
    failed = sum(1 for o in outcomes if o.problems)
    metrics = {
        "train_examples_per_s": counter.train_examples / statistics.median(ref_walls),
        "setup_s": statistics.median(ref_setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(s for s, _ in probes),
        "host_speed": statistics.median(o.speed for o in timed),
        "final_accuracy": warm.final_accuracy if warm.final_accuracy is not None else float("nan"),
        "failed_ratio": failed / len(outcomes),
    }
    notes = [
        f"wall_s (raw): {_summary(walls)} timed calls after one warm-up",
        f"wall at reference speed: {_summary(ref_walls)}",
        f"train_examples_per_s: {counter.train_examples} examples x local epochs per call",
        f"setup_s at reference speed: {_summary(ref_setup)} fresh interpreters",
    ]
    return metrics, outcomes, notes, []


def measure_layers(cli, workload: Workload, seed: int, seconds: float,
                   digests: dict | None, n_params: int,
                   time_names: set[str]) -> tuple[dict, list[Outcome], list[str], list[str]]:
    """Per-layer metrics; those named in time_names at reference speed."""
    outcomes = [call_cli(cli, workload, seed, digests)]  # untimed warm-up
    traced_ref: list[float] = []
    plain_ref: list[float] = []
    samples: list[dict] = []
    counts: list[dict] = []
    spans: list[tuple] = []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        trace = tracer.Tracer()
        trace.run_id = len(samples)
        with trace.installed():
            outcome = call_cli(cli, workload, seed, digests)
        outcomes.append(outcome)
        traced_ref.append(outcome.wall_s * outcome.speed)
        sample = tracer.layer_metrics(trace.spans, trace.counts, outcome.wall_s, n_params)
        samples.append({name: value * outcome.speed if name in time_names else value
                        for name, value in sample.items()})
        counts.append(dict(trace.counts))
        spans.extend(trace.spans)

        outcome = call_cli(cli, workload, seed, digests)
        outcomes.append(outcome)
        plain_ref.append(outcome.wall_s * outcome.speed)
        pair_s = time.perf_counter() - pair_started
        if (len(samples) >= MIN_TRACE_PAIRS
                and time.perf_counter() - started + pair_s > seconds):
            break

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload.name}-seed{seed}-spans.csv")
    tracer.write_spans(spans, spans_path)

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_ref) - statistics.median(plain_ref)
    problems = [f"traced call {i} counts differ from traced call 0"
                for i, c in enumerate(counts) if c != counts[0]]
    problems += [f"{name} is 0: a wrapper never fired"
                 for name, value in metrics.items() if value == 0 and name not in MAY_BE_ZERO]
    problems += [f"no call went through {site}: its wrapper never fired"
                 for site in tracer.unreached_sites(counts[0], workload.unused_sites)]
    notes = [
        f"{len(samples)} traced and {len(plain_ref)} untraced calls after one warm-up",
        f"at reference speed: traced call {statistics.median(traced_ref):.4f} s, "
        f"untraced call {statistics.median(plain_ref):.4f} s",
        f"spans: {len(spans)} written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, outcomes, notes, problems


def run_one(args, spec: dict) -> int:
    cli = _import_package()
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    digests, digest_note = check.recorded_digests(check.load_digests(), workload.name,
                                                  args.seed, env["numpy"])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = {m["name"]: m["unit"] for m in listed}

    if args.trace:
        from fedsymptoms.mlp import LAYER_SIZES

        n_params = sum(a * b + b for a, b in zip(LAYER_SIZES, LAYER_SIZES[1:]))
        time_names = {m["name"] for m in listed if m["unit"] in ("s", "us")}
        metrics, outcomes, notes, problems = measure_layers(
            cli, workload, args.seed, args.seconds, digests, n_params, time_names)
    else:
        metrics, outcomes, notes, problems = measure_end_to_end(
            cli, workload, args.seed, args.seconds, digests)
        # Reported for people, not bounded: raw times swing with the host's
        # load, and the rest are exact per seed (see README.md).
        shown.update({"wall_s": "s", "raw_setup_s": "s", "host_speed": "ratio",
                      "final_accuracy": "ratio", "failed_ratio": "ratio"})

    missing = sorted(set(shown) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json names metrics this benchmark does not make: {missing}",
              file=sys.stderr)
        return 1

    failed = sum(1 for o in outcomes if o.problems)
    for outcome in outcomes:
        for problem in outcome.problems:
            print(f"output check failed: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"digests {digest_note}")
    for note in notes:
        print(f"  {note}")
    for name, unit in shown.items():
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if not (result and result["correct"]):
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "fedsymptoms", "cli.py")):
        print(f"error: no fedsymptoms source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
