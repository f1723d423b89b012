"""Training-time scaling benchmark.

Runs the same fixed-epoch training job (identical seed, dataset, and
global batch) once per (worker count, strategy) pair and tabulates wall
time, throughput, speedup over the single-worker reference, final model
quality, and transport volume.  The global batch stays constant across
worker counts — each worker processes ``global_batch / workers``
sequences per step — so every row performs the same optimizer work and
wall times are directly comparable.

A row that fails (for example a worker count that does not divide the
global batch) records the error and the sweep continues.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import ValidationError
from .training import Dataset, TrainConfig, evaluate, train

CSV_COLUMNS = (
    "workers", "strategy", "wall_s", "speedup", "seq_per_s",
    "final_acc", "final_auroc", "messages", "bytes", "error",
)


@dataclass(frozen=True)
class BenchmarkConfig:
    worker_counts: tuple = (1, 2, 4)
    strategies: tuple = ("allreduce",)
    epochs: int = 2
    global_batch: int = 256
    seed: int = 0
    precision: str = "f32"
    learning_rate: float = 1e-3
    shuffle_buffer_size: int = 100
    gossip_period: int = 1
    backend: str = "processes"

    def __post_init__(self):
        if not self.worker_counts:
            raise ValidationError("worker_counts must not be empty")
        if any(w < 1 for w in self.worker_counts):
            raise ValidationError(
                f"worker counts must be >= 1, got {self.worker_counts}"
            )
        if not self.strategies:
            raise ValidationError("strategies must not be empty")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.global_batch < 1:
            raise ValidationError(
                f"global_batch must be >= 1, got {self.global_batch}"
            )


@dataclass
class BenchmarkRow:
    workers: int
    strategy: str
    wall_seconds: float = None
    speedup: float = None
    sequences_per_second: float = None
    final_accuracy: float = None
    final_auroc: float = None
    messages: int = None
    bytes: int = None
    error: str = None


def _train_config(config: BenchmarkConfig, workers: int, strategy: str):
    if config.global_batch % workers != 0:
        raise ValidationError(
            f"global batch size {config.global_batch} must be divisible by "
            f"the number of replicas ({workers})"
        )
    return TrainConfig(
        n_replicas=workers,
        strategy=strategy,
        epochs_max=config.epochs,
        batch_per_replica=config.global_batch // workers,
        seed=config.seed,
        precision=config.precision,
        learning_rate=config.learning_rate,
        shuffle_buffer_size=config.shuffle_buffer_size,
        gossip_period=config.gossip_period,
        early_stopping=False,
        backend=config.backend,
    )


def run_benchmark(config: BenchmarkConfig, model_config, dataset: Dataset,
                  progress=None) -> list:
    """One row per (strategy, worker count); failures continue the sweep."""
    eval_records = dataset.test if dataset.test else dataset.validation
    rows = []
    for strategy in config.strategies:
        for workers in config.worker_counts:
            row = BenchmarkRow(workers=workers, strategy=strategy)
            try:
                train_config = _train_config(config, workers, strategy)
                params, report = train(train_config, model_config, dataset)
                quality = evaluate(
                    params, eval_records, model_config,
                    precision=config.precision,
                )
                steps = len(dataset.train) // config.global_batch
                row.wall_seconds = report.total_wall_seconds
                row.sequences_per_second = (
                    config.epochs * steps * config.global_batch
                    / report.total_wall_seconds
                    if report.total_wall_seconds > 0
                    else float("inf")
                )
                row.final_accuracy = quality["accuracy"]
                row.final_auroc = quality["auroc"]
                row.messages = report.total_messages
                row.bytes = report.total_bytes
            except Exception as exc:
                row.error = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            if progress is not None:
                progress(row)
    _fill_speedups(rows)
    return rows


def _fill_speedups(rows) -> None:
    """speedup = reference wall time / row wall time, per strategy; the
    reference is the 1-worker row, or the first successful row if no
    1-worker row succeeded."""
    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row.strategy, []).append(row)
    for group in by_strategy.values():
        reference = next(
            (r for r in group if r.workers == 1 and r.error is None), None
        )
        if reference is None:
            reference = next((r for r in group if r.error is None), None)
        if reference is None:
            continue
        for row in group:
            if row.error is None and row.wall_seconds > 0:
                row.speedup = reference.wall_seconds / row.wall_seconds


def _cell(value, fmt):
    return "" if value is None else format(value, fmt)


def _cells(row) -> list:
    """The row's CSV_COLUMNS as text; a missing value is an empty cell."""
    return [
        str(row.workers),
        row.strategy,
        _cell(row.wall_seconds, ".3f"),
        _cell(row.speedup, ".3f"),
        _cell(row.sequences_per_second, ".1f"),
        _cell(row.final_accuracy, ".4f"),
        _cell(row.final_auroc, ".4f"),
        _cell(row.messages, "d"),
        _cell(row.bytes, "d"),
        _cell(row.error, "s"),
    ]


def write_benchmark_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_cells(row) for row in rows)


def format_benchmark_table(rows) -> str:
    """Aligned text table with the same columns as the CSV."""
    header = list(CSV_COLUMNS)
    body = [_cells(row) for row in rows]
    widths = [max(len(cell) for cell in column) for column in zip(header, *body)]
    lines = [header, ["-" * width for width in widths]] + body
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in lines
    )
