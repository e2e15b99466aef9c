"""Command-line entry points: validate, run, sweep, report.

Exit codes: 0 success, 1 domain or validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .config import FIELD_NAMES, RunConfig, resolve_config
from .embeddings import load_embeddings, encode_phrase
from .evaluation import (
    build_evalset,
    read_accuracy_csv,
    record_run,
    sweep,
    write_accuracy_csv,
    write_predictions_csv,
)
from .federation import SIMULATION_IDS, WEIGHTINGS, run_simulation
from .mlp import LAYER_SIZES, save_checkpoint
from .sampling import LAPLACE_DP, MECHANISM_KINDS, NO_NOISE, NoiseMechanism
from .surveys import load_corpus, load_surveys

EMBEDDING_DIMENSION = LAYER_SIZES[0]


def _load_inputs(config: RunConfig):
    table = load_embeddings(config.embeddings_path, EMBEDDING_DIMENSION)
    surveys = load_surveys(config.surveys_path)
    corpus = load_corpus(config.corpus_path, embeddings=table)
    return table, surveys, corpus


def _sha256_of(path: str) -> str:
    import hashlib  # here, not at the top: loading it adds ~5 ms to every start-up
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
        "input_sha256": {key: _sha256_of(getattr(config, key))
                         for key in ("embeddings_path", "surveys_path", "corpus_path")},
        "config": config.manifest_dict(),
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


def cmd_validate(config: RunConfig) -> int:
    table, surveys, corpus = _load_inputs(config)

    bad: list[str] = []
    for survey in surveys:
        for name in survey.symptom_counts:
            try:
                encode_phrase(table, name)
            except ValueError:
                bad.append(f"{survey.country}/{name}")
    if bad:
        raise ValueError(f"unembeddable survey symptoms: {', '.join(bad)}")

    evalset = build_evalset(surveys)
    print(f"embeddings: {len(table)} tokens, dimension {table.dimension}")
    print(f"surveys: {len(surveys)} countries, {len(evalset.symptoms)} symptoms, "
          f"all embeddable")
    print(f"corpus: {len(corpus)} terms, all embeddable")
    print(f"display groups: {len(evalset.group_high)} above 10 percent, "
          f"{len(evalset.group_low)} at or below")
    return 0


def cmd_run(config: RunConfig) -> int:
    spec = config.spec()
    target_epoch = config.epoch if config.epoch is not None else spec.global_epochs
    # a run of no rounds reports no epoch, so any --epoch passes there
    if spec.global_epochs and target_epoch > spec.global_epochs:
        raise ValueError(f"epoch {target_epoch} not in run (1..{spec.global_epochs})")
    mechanism = config.noise_mechanism()
    fed = config.federation(mechanism)
    table, surveys, corpus = _load_inputs(config)

    snapshots, reports = run_simulation(spec, surveys, corpus, table, fed,
                                        config.master_seed)
    evalset = build_evalset(surveys)
    result = record_run(spec, snapshots, evalset, table, mechanism,
                        config.master_seed)
    result.sort(evalset.symptoms)

    _write_results("run", config, spec, result)
    with open(os.path.join(config.output_dir, "rounds.jsonl"), "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps({
                "round": r.round_index,
                "participating_clients": r.participating_clients,
                "skipped_empty_clients": r.skipped_empty_clients,
                "mean_local_loss": r.mean_local_loss,
                "wall_time": r.wall_time,
            }, sort_keys=True) + "\n")
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


def cmd_sweep(config: RunConfig, axis: str, values: list[float],
              seeds: list[int]) -> int:
    if not seeds:
        raise ValueError("at least one seed is required")
    # a repeated value would write duplicate rows and count its runs twice in report
    for flag, items in (("--values", values), ("--seeds", seeds)):
        repeated = sorted({x for x in items if items.count(x) > 1})
        if repeated:
            raise ValueError(f"{flag} repeats {', '.join(f'{x:g}' for x in repeated)}")
    if axis == "noise":
        if config.mechanism == LAPLACE_DP:
            raise ValueError("the noise axis varies the noise level; "
                             "sweep laplace_dp with --axis epsilon")
        mechanisms = [NoiseMechanism(kind=config.mechanism, noise_level=level)
                      for level in values]
    else:
        mechanisms = [NoiseMechanism(kind=LAPLACE_DP, noise_level=config.noise_level,
                                     epsilon=eps) for eps in values]
    spec = config.spec()
    table, surveys, corpus = _load_inputs(config)
    evalset = build_evalset(surveys)
    result = sweep(spec, mechanisms, seeds, surveys, corpus, table,
                   config.federation(NO_NOISE), evalset)

    _write_results("sweep", config, spec, result,
                   extra={"axis": axis, "values": values, "seeds": seeds})

    print(f"swept {axis} over {len(values)} values x {len(seeds)} seeds "
          f"({len(values) * len(seeds)} runs)")
    print(f"artifacts in {config.output_dir}: predictions.csv, accuracy.csv, "
          f"manifest.json")
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


def _comma_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _comma_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _add_path_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--embeddings", dest="embeddings_path",
                        help="embedding vectors file")
    parser.add_argument("--surveys", dest="surveys_path",
                        help="country survey counts file")
    parser.add_argument("--corpus", dest="corpus_path",
                        help="medical corpus file")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--simulation", choices=SIMULATION_IDS,
                        help="client topology (default I)")
    parser.add_argument("--mechanism", choices=MECHANISM_KINDS,
                        help="noise mechanism kind")
    parser.add_argument("--noise-level", dest="noise_level", type=float,
                        help="noise level in [0, 1]")
    parser.add_argument("--epsilon", type=float,
                        help="privacy parameter for laplace_dp")
    parser.add_argument("--scale", type=float,
                        help="topology scale factor in (0, 1]")
    parser.add_argument("--participation", dest="participation_fraction",
                        type=float, help="fraction of clients trained per round")
    parser.add_argument("--local-epochs", dest="local_epochs", type=int)
    parser.add_argument("--global-epochs", dest="global_epochs", type=int)
    parser.add_argument("--weighting", choices=WEIGHTINGS,
                        help="aggregation weighting")
    parser.add_argument("--fixed-client-data", dest="fixed_client_data",
                        action="store_true", default=None,
                        help="reuse each client's round-0 data every round")
    parser.add_argument("--epoch", type=int,
                        help="global epoch to report (default: final)")
    parser.add_argument("--output-dir", dest="output_dir",
                        help="directory for run artifacts")


def _overrides(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key, None) for key in FIELD_NAMES}


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
    p_run.add_argument("--seed", dest="master_seed", type=int,
                       help="master seed (required here or in the config file)")

    p_sweep = sub.add_parser("sweep", help="run a noise or epsilon sweep")
    _add_path_options(p_sweep)
    _add_run_options(p_sweep)
    p_sweep.add_argument("--axis", choices=("noise", "epsilon"), required=True)
    p_sweep.add_argument("--values", type=_comma_floats, required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--seeds", type=_comma_ints, required=True,
                         help="comma-separated master seeds, one run per seed")

    p_report = sub.add_parser("report",
                              help="summarize an accuracy.csv into a mean table")
    p_report.add_argument("--input", required=True,
                          help="directory holding accuracy.csv")
    p_report.add_argument("--epoch", type=int,
                          help="global epoch to summarize (default: max present)")

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        config = resolve_config(args.config, _overrides(args),
                                defaults={"master_seed": 0})
        return cmd_validate(config)
    if args.command == "run":
        config = resolve_config(args.config, _overrides(args))
        return cmd_run(config)
    if args.command == "sweep":
        defaults = {"master_seed": 0}
        if args.axis == "epsilon":
            # standard level for the privacy sweep unless set explicitly
            defaults["noise_level"] = 0.5
        config = resolve_config(args.config, _overrides(args), defaults=defaults)
        return cmd_sweep(config, args.axis, args.values, args.seeds)
    if args.command == "report":
        return cmd_report(args.input, args.epoch)
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
