"""Command-line interface: generate / train / benchmark / evaluate.

Every setting is stated once, in the table ``SETTINGS``: its default or
the config fields it fills (whose default it takes), its type or
choices, and the commands that give it a flag.  ``DEFAULTS``, the flags,
the config objects (``_build``) and the checks on config-file values
all come from that table, so a config-file value gets the same type and
choice checks as a flag.

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
from dataclasses import asdict
from typing import NamedTuple

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
    per_replica_batch,
    train,
    write_curves_csv,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class Setting(NamedTuple):
    """One row of ``SETTINGS``."""

    key: str
    default: object
    kind: object  # a type, or the tuple of values the setting may take
    commands: tuple  # the commands that give it a flag
    help: str
    fills: tuple  # the (config class, field name) pairs it fills

    @property
    def flag(self) -> str:
        """``--key`` with dashes; a bool setting's flag turns its default of
        True off."""
        return ("--no-" if self.kind is bool else "--") + self.key.replace("_", "-")

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _setting(key, *fills, default=None, kind=None, commands=(), help=None) -> Setting:
    """A setting whose default is its first filled field's, else ``default``,
    and whose type is its default's unless ``kind`` is given; a config
    class in ``fills`` stands for its field named ``key``."""
    fills = tuple((f, key) if isinstance(f, type) else f for f in fills)
    if fills:
        default = getattr(*fills[0])
    return Setting(key, default, kind or type(default), commands, help, fills)


_ALL = ("generate", "train", "benchmark", "evaluate")
_GENERATE, _TRAIN, _FIT = ("generate",), ("train",), ("train", "benchmark")

#: Every setting, in the order of ``effective_config``: its default or the
#: config fields it fills, its type or choices, and the commands with its flag.
SETTINGS = {s.key: s for s in (
    # shared
    _setting("seed", SimConfig, SplitSpec, TrainConfig, commands=_ALL,
             help="master RNG seed"),
    _setting("out", default="runs", commands=_ALL, help="output directory (default: runs)"),
    # simulation
    _setting("seq_length", SimConfig, ModelConfig, commands=_GENERATE),
    _setting("n_positive", SimConfig, commands=_GENERATE),
    _setting("n_negative", SimConfig, commands=_GENERATE),
    _setting("cluster_min", SimConfig, commands=_GENERATE),
    _setting("cluster_max", SimConfig, commands=_GENERATE),
    _setting("cluster_region_fraction", SimConfig),
    # splits
    _setting("train_fraction", SplitSpec),
    _setting("test_fraction", SplitSpec),
    _setting("validation_fraction", SplitSpec),
    # model
    _setting("n_filters", ModelConfig),
    _setting("filter_width", ModelConfig),
    _setting("pool_window", ModelConfig),
    _setting("pool_stride", ModelConfig),
    _setting("activation", (ModelConfig, "conv_activation")),
    # training
    _setting("workers", (TrainConfig, "n_replicas"), commands=_TRAIN,
             help="number of replicas"),
    _setting("strategy", TrainConfig, commands=_FIT,
             help="allreduce | ps | gossip; benchmark sweeps a comma-separated list"),
    _setting("epochs", (TrainConfig, "epochs_max"), commands=_FIT, help="maximum epochs"),
    _setting("batch_per_replica", kind=int, commands=_TRAIN),
    _setting("global_batch", kind=int, commands=_FIT),
    _setting("precision", TrainConfig, commands=_FIT, help="f32 | f64"),
    _setting("learning_rate", TrainConfig, commands=_TRAIN),
    _setting("shuffle_buffer_size", TrainConfig),
    _setting("patience", EarlyStopConfig),
    _setting("min_delta", EarlyStopConfig),
    _setting("early_stopping", TrainConfig, commands=_TRAIN,
             help="always run the full epoch budget"),
    _setting("gossip_period", TrainConfig),
    _setting("backend", TrainConfig, commands=_FIT, help="processes | threads"),
    # benchmark
    _setting("workers_list", default=(1, 2, 4), commands=("benchmark",),
             help="comma-separated worker counts, e.g. 1,2,4"),
    # paths
    _setting("pwm", kind=str, commands=_GENERATE,
             help="PWM file (default: built-in TAL1-style)"),
    _setting("dataset", kind=str, commands=_ALL,
             help="FASTA path: generate writes it, the other commands read it"),
    _setting("checkpoint", kind=str, commands=("evaluate",), help="checkpoint path"),
    # evaluate
    _setting("split", default="test", kind=("train", "test", "validation", "all"),
             commands=("evaluate",), help="which split of the dataset to score (default: test)"),
)}

DEFAULTS = {key: s.default for key, s in SETTINGS.items()}


def _parse_workers_list(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(
            f"workers list must be comma-separated integers, got {text!r}"
        ) from None
    return values


def _has_type(value, kind) -> bool:
    """isinstance, except that a bool is not a number and an int may
    stand for a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(setting, value, path):
    """A config-file value, checked against the setting's type or choices;
    ``workers_list`` takes a list of ints or the flag's comma string."""
    if setting.key == "workers_list":
        if isinstance(value, str):
            value = _parse_workers_list(value)
        if isinstance(value, (list, tuple)) and value and all(
                _has_type(v, int) for v in value):
            return tuple(value)
        expected = "a non-empty list of integers or a comma-separated string"
    elif isinstance(setting.kind, tuple):
        if value in setting.kind:
            return value
        expected = f"one of {setting.kind}"
    else:
        if _has_type(value, setting.kind) or (value is None and setting.default is None):
            return value
        expected = f"of type {setting.kind.__name__}"
    raise ValidationError(
        f"config key {setting.key!r} in {path} must be {expected}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of ``COMMANDS``, with a flag for each
    setting that names the command."""
    parser = argparse.ArgumentParser(
        prog="dcnn",
        description=(
            "Simulated-DNA motif-cluster CNN: dataset generation, "
            "distributed training, scaling benchmarks, and evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for s in SETTINGS.values():
            if command not in s.commands:
                continue
            if s.kind is bool:
                p.add_argument(s.flag, dest=s.dest, action="store_true", help=s.help)
            else:
                p.add_argument(s.flag, dest=s.dest, help=s.help,
                               type=s.kind if s.kind in (int, float) else None,
                               choices=s.kind if isinstance(s.kind, tuple) else None)
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
            if key not in SETTINGS:
                raise ValidationError(f"unknown config key {key!r} in {path}")
            merged[key] = _config_value(SETTINGS[key], value, path)
            explicit.add(key)
    for s in SETTINGS.values():
        value = getattr(args, s.dest, None)
        if s.kind is bool:  # its flag, when given, turns the setting off
            value = False if value else None
        if value is not None:
            merged[s.key] = value
            explicit.add(s.key)
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
        derived = per_replica_batch(global_batch, workers)
        if per_replica is not None and per_replica != derived:
            raise ValidationError(
                f"batch_per_replica {per_replica} conflicts with "
                f"global_batch {global_batch} at {workers} workers"
            )
        return derived
    return per_replica if per_replica is not None else TrainConfig.batch_per_replica


def _build(cls, settings, **given):
    """A ``cls`` whose fields are the settings that fill them, then ``given``;
    the config class checks every value."""
    filled = {name: settings[s.key] for s in SETTINGS.values()
              for owner, name in s.fills if owner is cls}
    return cls(**{**filled, **given})


def _train_config(settings, strategy, workers, batch_per_replica) -> TrainConfig:
    if settings["epochs"] < 1:  # TrainConfig would name its field, epochs_max
        raise ValidationError(f"epochs must be >= 1, got {settings['epochs']}")
    return _build(TrainConfig, settings, n_replicas=workers, strategy=strategy,
                  batch_per_replica=batch_per_replica,
                  early_stop=_build(EarlyStopConfig, settings))


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
    return _build(ModelConfig, settings, seq_length=seq_length)


def _split_dataset(settings, records) -> Dataset:
    train_recs, test_recs, val_recs = split(records, _build(SplitSpec, settings))
    return Dataset(train=train_recs, validation=val_recs, test=test_recs)


def _metric_text(value):
    return "undefined" if value is None else f"{value:.4f}"


def _scores_text(scores) -> str:
    """The scores of ``evaluate`` as the commands print them."""
    return (f"loss={scores['loss']:.4f} acc={_metric_text(scores['accuracy'])} "
            f"auroc={_metric_text(scores['auroc'])} auprc={_metric_text(scores['auprc'])}")


def write_json(path, payload) -> None:
    """``payload`` as indented JSON with a trailing newline: the format of
    report.json, metrics.json and benchmark.json."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(settings) -> int:
    """simulate a labeled FASTA dataset"""
    sim = _build(SimConfig, settings)
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
    """train on a FASTA dataset"""
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
        write_json(report_path, {**asdict(report),
                                 "effective_config": _effective_config(settings), **extra})
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
    write_report(report, final_test=final)
    print(f"trained {len(report.epochs)} epochs ({report.stop_reason}); "
          f"test {_scores_text(final)}")
    print(f"checkpoint: {checkpoint_path}")
    print(f"report: {report_path}")
    return EXIT_OK


def cmd_benchmark(settings) -> int:
    """worker-count scaling sweep (fixed epochs)"""
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
    write_json(os.path.join(out, "benchmark.json"),
               {"effective_config": _effective_config(settings)})
    print(format_benchmark_table(rows))
    print(f"benchmark table: {csv_path}")
    if all(row.error is not None for row in rows):
        print("every benchmark row failed", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def cmd_evaluate(settings) -> int:
    """score a checkpoint on a dataset"""
    checkpoint_path = _require_input(settings["checkpoint"], "checkpoint")
    params, model_config = load_checkpoint(checkpoint_path)
    records, seq_length = _read_records(settings)
    if seq_length != model_config.seq_length:
        raise ValidationError(
            f"checkpoint expects sequence length {model_config.seq_length}, "
            f"dataset has {seq_length}"
        )
    which = settings["split"]
    chosen = records if which == "all" else getattr(_split_dataset(settings, records), which)
    if not chosen:
        raise ValidationError(
            f"the {which} split of {settings['dataset']} is empty"
        )
    out = evaluate(params, chosen, model_config, precision=settings["precision"])
    metrics_path = os.path.join(_out_dir(settings), "metrics.json")
    write_json(metrics_path, {"split": which, "n_records": len(chosen), **out,
                              "effective_config": _effective_config(settings)})
    print(f"{which} split ({len(chosen)} records): {_scores_text(out)}")
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
