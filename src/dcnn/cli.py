"""Command-line interface: generate / train / benchmark / evaluate.

Settings come from three layers — built-in defaults, an optional JSON
config file (snake_case keys, every field optional), and command-line
flags — with later layers winning.  The effective merged configuration
is echoed into every JSON report so a run can be reproduced from its
artifacts alone.

Exit codes: 0 success, 1 I/O failure, 2 configuration or validation
error, 3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .benchmark import format_benchmark_table, run_benchmark, write_benchmark_csv
from .errors import DcnnError, TrainingDivergedError, ValidationError
from .genome import (
    SimConfig,
    default_tal1_pwm,
    generate_dataset,
    read_fasta,
    read_pwm,
    write_fasta,
)
from .network import ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import SplitSpec, split
from .training import (
    Dataset,
    EarlyStopConfig,
    TrainConfig,
    evaluate,
    metric_or_null,
    train,
    write_curves_csv,
    write_report_json,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

DEFAULTS = {
    # shared
    "seed": 0,
    "out": "runs",
    # simulation
    "seq_length": 1500,
    "n_positive": 10000,
    "n_negative": 10000,
    "cluster_min": 2,
    "cluster_max": 5,
    "cluster_region_fraction": 0.6,
    # splits
    "train_fraction": 0.70,
    "test_fraction": 0.10,
    "validation_fraction": 0.20,
    # model
    "n_filters": 15,
    "filter_width": 10,
    "pool_window": 35,
    "pool_stride": 35,
    "activation": "relu",
    # training
    "workers": 1,
    "strategy": "allreduce",
    "epochs": 10,
    "batch_per_replica": None,
    "global_batch": None,
    "precision": "f32",
    "learning_rate": 1e-3,
    "shuffle_buffer_size": 100,
    "patience": 5,
    "min_delta": 1e-4,
    "early_stopping": True,
    "gossip_period": 1,
    "backend": "processes",
    # benchmark
    "workers_list": (1, 2, 4),
    # paths
    "pwm": None,
    "dataset": None,
    "checkpoint": None,
    # evaluate
    "split": "test",
}

# the type of each key whose default is None
_NONE_DEFAULT_TYPES = {"batch_per_replica": int, "global_batch": int,
                       "pwm": str, "dataset": str, "checkpoint": str}


def _parse_workers_list(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(
            f"workers list must be comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise ValidationError("workers list must not be empty")
    return values


def _has_type(value, kind) -> bool:
    """isinstance, except that a bool is not a number and an int may
    stand for a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(key, value, path):
    """A config-file value, checked against the type of the key's default;
    ``workers_list`` takes a list of ints or the flag's comma string."""
    if key == "workers_list":
        if isinstance(value, str):
            value = _parse_workers_list(value)
        if isinstance(value, (list, tuple)) and value and all(
                _has_type(v, int) for v in value):
            return tuple(value)
        expected = "a non-empty list of integers or a comma-separated string"
    else:
        kind = _NONE_DEFAULT_TYPES.get(key, type(DEFAULTS[key]))
        if _has_type(value, kind) or (value is None and DEFAULTS[key] is None):
            return value
        expected = f"of type {kind.__name__}"
    raise ValidationError(f"config key {key!r} in {path} must be {expected}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcnn",
        description=(
            "Simulated-DNA motif-cluster CNN: dataset generation, "
            "distributed training, scaling benchmarks, and evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", help="output directory (default: runs)")

    p_gen = sub.add_parser("generate", help="simulate a labeled FASTA dataset")
    shared(p_gen)
    p_gen.add_argument("--pwm", help="PWM file (default: built-in TAL1-style)")
    p_gen.add_argument("--dataset", help="output FASTA path")
    p_gen.add_argument("--seq-length", type=int, dest="seq_length")
    p_gen.add_argument("--n-positive", type=int, dest="n_positive")
    p_gen.add_argument("--n-negative", type=int, dest="n_negative")
    p_gen.add_argument("--cluster-min", type=int, dest="cluster_min")
    p_gen.add_argument("--cluster-max", type=int, dest="cluster_max")

    p_train = sub.add_parser("train", help="train on a FASTA dataset")
    shared(p_train)
    p_train.add_argument("--dataset", help="input FASTA path")
    p_train.add_argument("--workers", type=int, help="number of replicas")
    p_train.add_argument(
        "--strategy", help="allreduce | ps | gossip"
    )
    p_train.add_argument("--epochs", type=int, help="maximum epochs")
    p_train.add_argument(
        "--batch-per-replica", type=int, dest="batch_per_replica"
    )
    p_train.add_argument("--global-batch", type=int, dest="global_batch")
    p_train.add_argument("--precision", help="f32 | f64")
    p_train.add_argument(
        "--learning-rate", type=float, dest="learning_rate"
    )
    p_train.add_argument(
        "--no-early-stopping", action="store_true",
        help="always run the full epoch budget",
    )
    p_train.add_argument("--backend", help="processes | threads")

    p_bench = sub.add_parser(
        "benchmark", help="worker-count scaling sweep (fixed epochs)"
    )
    shared(p_bench)
    p_bench.add_argument("--dataset", help="input FASTA path")
    p_bench.add_argument(
        "--workers-list", dest="workers_list",
        help="comma-separated worker counts, e.g. 1,2,4",
    )
    p_bench.add_argument(
        "--strategy",
        help="strategy or comma-separated sweep, e.g. allreduce,ps,gossip",
    )
    p_bench.add_argument("--epochs", type=int, help="epochs per row")
    p_bench.add_argument("--global-batch", type=int, dest="global_batch")
    p_bench.add_argument("--precision", help="f32 | f64")
    p_bench.add_argument("--backend", help="processes | threads")

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    shared(p_eval)
    p_eval.add_argument("--checkpoint", help="checkpoint path")
    p_eval.add_argument("--dataset", help="input FASTA path")
    p_eval.add_argument(
        "--split", choices=("train", "test", "validation", "all"),
        help="which split of the dataset to score (default: test)",
    )

    return parser


def _merge_settings(args) -> dict:
    """defaults < config file < explicit flags; tracks which keys were
    set explicitly (not by default)."""
    merged = dict(DEFAULTS)
    explicit = set()
    if getattr(args, "config", None):
        path = args.config
        if not os.path.exists(path):
            raise ValidationError(f"config file does not exist: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"config file {path} is not valid JSON: {exc}"
                ) from None
        if not isinstance(loaded, dict):
            raise ValidationError(
                f"config file {path} must hold a JSON object"
            )
        for key, value in loaded.items():
            if key not in DEFAULTS:
                raise ValidationError(f"unknown config key {key!r} in {path}")
            merged[key] = _config_value(key, value, path)
            explicit.add(key)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value
            explicit.add(key)
    if getattr(args, "no_early_stopping", False):
        merged["early_stopping"] = False
        explicit.add("early_stopping")
    if isinstance(merged["workers_list"], str):
        merged["workers_list"] = _parse_workers_list(merged["workers_list"])
    merged["_explicit"] = explicit
    return merged


def _effective_config(settings) -> dict:
    return {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in settings.items()
        if key != "_explicit"
    }


def _require_input(path, what):
    if path is None:
        raise ValidationError(f"missing required {what} path")
    if not os.path.exists(path):
        raise ValidationError(f"{what} file does not exist: {path}")
    return path


def _out_dir(settings) -> str:
    out = settings["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_batch(workers, global_batch, per_replica) -> int:
    """Per-replica batch from (batch_per_replica, global_batch, workers)."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if global_batch is not None:
        if global_batch < 1:
            raise ValidationError(f"global_batch must be >= 1, got {global_batch}")
        if global_batch % workers != 0:
            raise ValidationError(
                f"global batch size {global_batch} must be divisible by the "
                f"number of replicas ({workers})"
            )
        derived = global_batch // workers
        if per_replica is not None and per_replica != derived:
            raise ValidationError(
                f"batch_per_replica {per_replica} conflicts with "
                f"global_batch {global_batch} at {workers} workers"
            )
        return derived
    return per_replica if per_replica is not None else 64


def _train_config(settings, strategy, workers, batch_per_replica) -> TrainConfig:
    """The TrainConfig of the settings: the one place where each settings
    key is mapped to its field, and every value is checked."""
    return TrainConfig(
        n_replicas=workers,
        strategy=strategy,
        epochs_max=settings["epochs"],
        batch_per_replica=batch_per_replica,
        seed=settings["seed"],
        precision=settings["precision"],
        learning_rate=settings["learning_rate"],
        shuffle_buffer_size=settings["shuffle_buffer_size"],
        early_stop=EarlyStopConfig(
            patience=settings["patience"], min_delta=settings["min_delta"]
        ),
        early_stopping=settings["early_stopping"],
        gossip_period=settings["gossip_period"],
        backend=settings["backend"],
    )


def _load_pwm(settings):
    if settings["pwm"] is None:
        return default_tal1_pwm()
    return read_pwm(_require_input(settings["pwm"], "PWM"))


def _read_records(settings):
    path = _require_input(settings["dataset"], "dataset")
    records = read_fasta(path)
    if not records:
        raise ValidationError(f"dataset file {path} holds no records")
    lengths = {len(r.bases) for r in records}
    if len(lengths) > 1:
        raise ValidationError(
            f"dataset file {path} mixes sequence lengths {sorted(lengths)}"
        )
    return records, lengths.pop()


def _model_config(settings, seq_length) -> ModelConfig:
    if "seq_length" in settings["_explicit"] and settings["seq_length"] != seq_length:
        raise ValidationError(
            f"configured sequence length {settings['seq_length']} does not "
            f"match the dataset ({seq_length})"
        )
    return ModelConfig(
        seq_length=seq_length,
        n_filters=settings["n_filters"],
        filter_width=settings["filter_width"],
        pool_window=settings["pool_window"],
        pool_stride=settings["pool_stride"],
        conv_activation=settings["activation"],
    )


def _split_dataset(settings, records) -> Dataset:
    spec = SplitSpec(
        train_fraction=settings["train_fraction"],
        test_fraction=settings["test_fraction"],
        validation_fraction=settings["validation_fraction"],
        seed=settings["seed"],
    )
    train_recs, test_recs, val_recs = split(records, spec)
    return Dataset(train=train_recs, validation=val_recs, test=test_recs)


def _metric_text(value):
    return "undefined" if value is None else f"{value:.4f}"


# ---------------------------------------------------------------------------
# commands


def cmd_generate(settings) -> int:
    sim = SimConfig(
        seq_length=settings["seq_length"],
        n_positive=settings["n_positive"],
        n_negative=settings["n_negative"],
        cluster_min=settings["cluster_min"],
        cluster_max=settings["cluster_max"],
        cluster_region_fraction=settings["cluster_region_fraction"],
        seed=settings["seed"],
    )
    pwm = _load_pwm(settings)
    records = generate_dataset(sim, pwm)
    path = settings["dataset"] or os.path.join(_out_dir(settings), "dataset.fasta")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_fasta(records, path)
    positives = sum(r.label for r in records)
    print(
        f"wrote {len(records)} records "
        f"({positives} positive / {len(records) - positives} negative) "
        f"to {path}"
    )
    return EXIT_OK


def cmd_train(settings) -> int:
    records, seq_length = _read_records(settings)
    model_config = _model_config(settings, seq_length)
    dataset = _split_dataset(settings, records)
    workers = settings["workers"]
    config = _train_config(
        settings, settings["strategy"], workers,
        _resolve_batch(workers, settings["global_batch"], settings["batch_per_replica"]),
    )
    out = _out_dir(settings)
    report_path = os.path.join(out, "report.json")
    curves_path = os.path.join(out, "curves.csv")

    def write_report(report, **extra):
        write_report_json(report, report_path,
                          effective_config=_effective_config(settings), **extra)
        write_curves_csv(report, curves_path)

    try:
        params, report = train(config, model_config, dataset)
    except TrainingDivergedError as exc:
        if exc.partial_report is not None:
            write_report(exc.partial_report)
        print(
            f"training diverged (last good epoch: {exc.last_good_epoch}); "
            f"partial report written to {report_path}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED

    checkpoint_path = settings["checkpoint"] or os.path.join(out, "model.ckpt")
    save_checkpoint(params, model_config, checkpoint_path)
    final = evaluate(
        params, dataset.test or dataset.validation, model_config,
        precision=settings["precision"],
    )
    write_report(report, final_test={key: metric_or_null(value)
                                     for key, value in final.items()})
    print(
        f"trained {len(report.epochs)} epochs ({report.stop_reason}); "
        f"test loss={final['loss']:.4f} acc={_metric_text(final['accuracy'])} "
        f"auroc={_metric_text(final['auroc'])} "
        f"auprc={_metric_text(final['auprc'])}"
    )
    print(f"checkpoint: {checkpoint_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_benchmark(settings) -> int:
    records, seq_length = _read_records(settings)
    model_config = _model_config(settings, seq_length)
    dataset = _split_dataset(settings, records)
    # one config per strategy, at one replica with the whole global batch;
    # every row takes its replica count from the workers list.  Building
    # them all first checks every shared setting before any row trains.
    global_batch = _resolve_batch(
        1, 256 if settings["global_batch"] is None else settings["global_batch"], None
    )
    configs = [_train_config(settings, strategy, 1, global_batch)
               for strategy in settings["strategy"].split(",")]

    def progress(row):
        status = row.error or f"{row.wall_seconds:.2f}s"
        print(f"[{row.strategy} x{row.workers}] {status}", flush=True)

    rows = [row for config in configs
            for row in run_benchmark(config, settings["workers_list"], model_config,
                                     dataset, progress=progress)]
    out = _out_dir(settings)
    csv_path = os.path.join(out, "benchmark.csv")
    write_benchmark_csv(rows, csv_path)
    with open(os.path.join(out, "benchmark.json"), "w", encoding="utf-8") as fh:
        json.dump({"effective_config": _effective_config(settings)}, fh, indent=2)
        fh.write("\n")
    print(format_benchmark_table(rows))
    print(f"benchmark table: {csv_path}")
    if all(row.error is not None for row in rows):
        print("every benchmark row failed", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_evaluate(settings) -> int:
    checkpoint_path = _require_input(settings["checkpoint"], "checkpoint")
    params, model_config = load_checkpoint(checkpoint_path)
    records, seq_length = _read_records(settings)
    if seq_length != model_config.seq_length:
        raise ValidationError(
            f"checkpoint expects sequence length {model_config.seq_length}, "
            f"dataset has {seq_length}"
        )
    which = settings["split"]
    if which == "all":
        chosen = records
    else:
        dataset = _split_dataset(settings, records)
        chosen = {
            "train": dataset.train,
            "test": dataset.test,
            "validation": dataset.validation,
        }[which]
    if not chosen:
        raise ValidationError(
            f"the {which} split of {settings['dataset']} is empty"
        )
    out = evaluate(params, chosen, model_config, precision=settings["precision"])
    payload = {
        "split": which,
        "n_records": len(chosen),
        **{key: metric_or_null(value) for key, value in out.items()},
        "effective_config": _effective_config(settings),
    }
    metrics_path = os.path.join(_out_dir(settings), "metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"{which} split ({len(chosen)} records): loss={out['loss']:.4f} "
        f"acc={_metric_text(out['accuracy'])} "
        f"auroc={_metric_text(out['auroc'])} "
        f"auprc={_metric_text(out['auprc'])}"
    )
    print(f"metrics: {metrics_path}")
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "benchmark": cmd_benchmark,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a subcommand without a flag for a setting (e.g. evaluate has no
    # --precision) takes it from the config file or the defaults
    try:
        settings = _merge_settings(args)
        return COMMANDS[args.command](settings)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DcnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
