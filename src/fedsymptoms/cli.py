"""Command-line entry points: validate, run, sweep, report.

Exit codes: 0 success, 1 domain or validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import FIELD_NAMES, RunConfig, check_seed, given_settings
from .embeddings import load_embeddings
from .evaluation import (
    build_evalset,
    read_accuracy_csv,
    record_run,
    sweep,
    write_accuracy_csv,
    write_predictions_csv,
)
from .federation import SIMULATION_IDS, WEIGHTINGS, run_simulation
from .mlp import LAYER_SIZES, save_checkpoint, train_processes
from .sampling import LAPLACE_DP, MECHANISM_KINDS, NoiseMechanism
from .surveys import integer, load_corpus, load_surveys

EMBEDDING_DIMENSION = LAYER_SIZES[0]


def _load_inputs(config: RunConfig):
    embeddings = load_embeddings(config.embeddings_path, EMBEDDING_DIMENSION)
    surveys = load_surveys(config.surveys_path, embeddings=embeddings)
    corpus = load_corpus(config.corpus_path, embeddings=embeddings)
    return embeddings, surveys, corpus


def _sha256_of(path: str) -> str:
    import hashlib  # here, not at the top: loading it adds ~5 ms to every start-up
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _blas() -> dict[str, str]:
    """numpy's BLAS build, and the kernel its bundled OpenBLAS chose for this CPU.

    The CSVs' bits depend on that kernel (OPENBLAS_CORETYPE can force
    another); the kernel is "unknown" where the library does not name it.
    """
    import ctypes  # here, not at the top, like hashlib in _sha256_of
    from numpy._core import _multiarray_umath
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # dlsym on numpy's extension also searches the libraries it links
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        kernel = "unknown"
    else:
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
    return {"name": build.get("name", "unknown"), "version": build.get("version", "unknown"),
            "kernel": kernel}


def _write_results(command: str, config: RunConfig, spec, result,
                   extra: dict | None = None) -> None:
    """Write both CSVs and manifest.json into the output directory."""
    os.makedirs(config.output_dir, exist_ok=True)
    write_predictions_csv(result.predictions,
                          os.path.join(config.output_dir, "predictions.csv"))
    write_accuracy_csv(result.accuracies, os.path.join(config.output_dir, "accuracy.csv"))
    manifest = {
        "command": command,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas": _blas(),
        # the processes each training window was shared out over, at most one a chunk
        "train_processes": train_processes(),
        "input_sha256": {key: _sha256_of(getattr(config, key))
                         for key in ("embeddings_path", "surveys_path", "corpus_path")},
        "config": asdict(config),
        "resolved_topology": {
            "n_clients": spec.n_clients,
            "size_range": list(spec.size_range),
            "participation_fraction": spec.participation_fraction,
            "global_epochs": spec.global_epochs,
        },
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(config.output_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rounds(config: RunConfig, records) -> None:
    """Write rounds.jsonl into the output directory, one JSON object per record."""
    with open(os.path.join(config.output_dir, "rounds.jsonl"), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)


def cmd_validate(config: RunConfig) -> int:
    embeddings, surveys, corpus = _load_inputs(config)
    evalset = build_evalset(surveys)
    print(f"embeddings: {len(embeddings)} tokens, dimension {EMBEDDING_DIMENSION}")
    print(f"surveys: {len(surveys)} countries, {len(evalset.symptoms)} symptoms, "
          f"all embeddable")
    print(f"corpus: {len(corpus)} terms, all embeddable")
    print(f"display groups: {len(evalset.group_high)} above 10 percent, "
          f"{len(evalset.group_low)} at or below")
    return 0


def cmd_run(config: RunConfig) -> int:
    if config.master_seed is None:
        raise ValueError("master_seed is required (pass --seed or set it in the config file)")
    spec = config.spec()
    target_epoch = config.epoch if config.epoch is not None else spec.global_epochs
    # a run of no rounds reports no epoch, so any --epoch passes there
    if spec.global_epochs and target_epoch > spec.global_epochs:
        raise ValueError(f"epoch {target_epoch} not in run (1..{spec.global_epochs})")
    mechanism = config.noise_mechanism()
    embeddings, surveys, corpus = _load_inputs(config)

    [(snapshots, reports)] = run_simulation(spec, surveys, corpus, embeddings,
                                            [(mechanism, config.master_seed)])
    evalset = build_evalset(surveys)
    result = record_run(spec, snapshots, evalset, embeddings, mechanism,
                        config.master_seed)

    _write_results("run", config, spec, result)
    _write_rounds(config, (asdict(r) for r in reports))
    save_checkpoint(snapshots[-1], os.path.join(config.output_dir, "model_final.npz"))

    if result.accuracies:
        accuracy = next(r.accuracy for r in result.accuracies if r.global_epoch == target_epoch)
        print(f"simulation {spec.id}: {spec.n_clients} clients, "
              f"sizes {spec.size_range[0]}..{spec.size_range[1]}, "
              f"{spec.global_epochs} global epochs")
        print(f"accuracy at epoch {target_epoch}: {accuracy}")
    else:
        print("no training rounds requested; wrote initial checkpoint only")
    print(f"artifacts in {config.output_dir}: predictions.csv, accuracy.csv, "
          f"rounds.jsonl, model_final.npz, manifest.json")
    return 0


def cmd_sweep(config: RunConfig, given: set[str], axis: str, values: list[float],
              seeds: list[int]) -> int:
    """One run per value and seed; `given` names the settings a flag or the file set."""
    # a repeated value would write duplicate rows and count its runs twice in report
    for flag, items in (("--values", values), ("--seeds", seeds)):
        repeated = sorted({x for x in items if items.count(x) > 1})
        if repeated:
            raise ValueError(f"{flag} repeats {', '.join(map(repr, repeated))}")
    for seed in seeds:
        check_seed(seed, "--seeds")
    if (config.mechanism == LAPLACE_DP) != (axis == "epsilon"):
        raise ValueError(f"mechanism {config.mechanism!r} is not swept on --axis {axis}: "
                         "laplace_dp takes --axis epsilon, the other kinds --axis noise")
    # a setting no run reads would be recorded in the manifest as if it had been used
    unused = ("master_seed", "epoch", "epsilon") + (("noise_level",) if axis == "noise" else ())
    for key in unused:
        if key in given:
            source = ("each run's seed comes from --seeds" if key == "master_seed"
                      else f"--{key.replace('_', '-')}")
            raise ValueError(f"sweep --axis {axis} does not use {key} ({source})")
    if axis == "noise":
        mechanisms = [NoiseMechanism(kind=config.mechanism, noise_level=level)
                      for level in values]
    else:
        mechanisms = [NoiseMechanism(kind=LAPLACE_DP, noise_level=config.noise_level,
                                     epsilon=eps) for eps in values]
    spec = config.spec()
    embeddings, surveys, corpus = _load_inputs(config)
    evalset = build_evalset(surveys)
    result = sweep(spec, mechanisms, seeds, surveys, corpus, embeddings, evalset)

    _write_results("sweep", config, spec, result,
                   extra={"axis": axis, "values": values, "seeds": seeds})
    _write_rounds(config, result.rounds)

    print(f"swept {axis} over {len(values)} values x {len(seeds)} seeds "
          f"({len(values) * len(seeds)} runs)")
    print(f"artifacts in {config.output_dir}: predictions.csv, accuracy.csv, "
          f"rounds.jsonl, manifest.json")
    return 0


def cmd_report(input_dir: str, epoch: int | None) -> int:
    rows = read_accuracy_csv(os.path.join(input_dir, "accuracy.csv"))
    if not rows:
        raise ValueError("accuracy.csv has no data rows")
    target = epoch if epoch is not None else max(r.global_epoch for r in rows)
    picked = [r for r in rows if r.global_epoch == target]
    if not picked:
        raise ValueError(f"no rows for epoch {target}")

    grouped: dict[tuple, list[float]] = {}
    for r in picked:
        grouped.setdefault((r.simulation, r.mechanism, r.noise_level, r.epsilon),
                           []).append(r.accuracy)

    print(f"mean accuracy at global epoch {target}")
    print(f"{'simulation':<11}{'mechanism':<18}{'noise_level':<12}"
          f"{'epsilon':<9}{'seeds':<6}accuracy")
    for key in sorted(grouped, key=lambda k: (k[0], k[1], k[2],
                                              k[3] if k[3] is not None else -1.0)):
        sim, mech, level, eps = key
        accs = grouped[key]
        eps_text = "" if eps is None else f"{eps:g}"
        print(f"{sim:<11}{mech:<18}{level:<12g}{eps_text:<9}"
              f"{len(accs):<6}{sum(accs) / len(accs):.4f}")
    return 0


def decimal(text: str) -> float:
    """float() of ASCII text without '_'; float() alone would also read '1_0' and '٠.5'.

    Named for argparse, which reports "invalid decimal value" for a refused flag.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def _comma_list(text: str, flag: str, parse) -> list:
    """Parse each comma-separated entry of a flag; an empty entry is refused, not dropped."""
    items = []
    for part in text.split(","):
        if not part.strip():
            raise ValueError(f"{flag} has an empty entry in {text!r}")
        try:
            # spaces around a comma are allowed: '1, 2'
            items.append(parse(part.strip()))
        except ValueError:
            raise ValueError(f"{flag}: cannot read {part!r}") from None
    return items


def _add_path_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--embeddings", dest="embeddings_path",
                        help="embedding vectors file")
    parser.add_argument("--surveys", dest="surveys_path",
                        help="country survey counts file")
    parser.add_argument("--corpus", dest="corpus_path",
                        help="medical corpus file")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--simulation",
                        help=f"client topology: {', '.join(SIMULATION_IDS)} (default I)")
    parser.add_argument("--mechanism",
                        help=f"noise mechanism kind: {', '.join(MECHANISM_KINDS)}")
    parser.add_argument("--noise-level", dest="noise_level", type=decimal,
                        help="noise level in [0, 1]")
    parser.add_argument("--epsilon", type=decimal,
                        help="privacy parameter for laplace_dp")
    parser.add_argument("--scale", type=decimal,
                        help="topology scale factor in (0, 1]")
    parser.add_argument("--participation", dest="participation_fraction",
                        type=decimal, help="fraction of clients trained per round")
    parser.add_argument("--local-epochs", dest="local_epochs", type=integer)
    parser.add_argument("--global-epochs", dest="global_epochs", type=integer)
    parser.add_argument("--weighting",
                        help=f"aggregation weighting: {', '.join(WEIGHTINGS)}")
    parser.add_argument("--fixed-client-data", dest="fixed_client_data",
                        action="store_true", default=None,
                        help="reuse each client's round-0 data every round")
    parser.add_argument("--epoch", type=integer,
                        help="global epoch to report (default: final)")
    parser.add_argument("--output-dir", dest="output_dir",
                        help="directory for run artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsymptoms",
        description="Deterministic simulator of federated symptom-prevalence "
                    "learning over noisy synthetic surveys.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate",
                                help="check that data files load and embed cleanly")
    _add_path_options(p_validate)

    p_run = sub.add_parser("run", help="run one simulation and write artifacts")
    _add_path_options(p_run)
    _add_run_options(p_run)
    p_run.add_argument("--seed", dest="master_seed", type=integer,
                       help="master seed (required here or in the config file)")

    p_sweep = sub.add_parser("sweep", help="run a noise or epsilon sweep")
    _add_path_options(p_sweep)
    _add_run_options(p_sweep)
    p_sweep.add_argument("--axis", choices=("noise", "epsilon"), required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--seeds", required=True,
                         help="comma-separated master seeds, one run per seed")

    p_report = sub.add_parser("report",
                              help="summarize an accuracy.csv into a mean table")
    p_report.add_argument("--input", required=True,
                          help="directory holding accuracy.csv")
    p_report.add_argument("--epoch", type=integer,
                          help="global epoch to summarize (default: max present)")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "report":
        return cmd_report(args.input, args.epoch)
    given = given_settings(args.config, {key: getattr(args, key, None) for key in FIELD_NAMES})
    if args.command == "validate":
        return cmd_validate(RunConfig(**given))
    if args.command == "run":
        return cmd_run(RunConfig(**given))
    if args.command == "sweep":
        # the privacy sweep runs laplace_dp at the standard level unless set explicitly
        defaults = {"mechanism": LAPLACE_DP, "noise_level": 0.5} if args.axis == "epsilon" else {}
        return cmd_sweep(RunConfig(**{**defaults, **given}), set(given), args.axis,
                         _comma_list(args.values, "--values", decimal),
                         _comma_list(args.seeds, "--seeds", integer))
    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
