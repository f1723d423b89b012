"""Training-time scaling benchmark.

Runs one training job, a TrainConfig, once per worker count and
tabulates wall time, throughput, speedup over the single-worker
reference, final model quality, and transport volume.  Every row keeps
the config's global batch (each worker processes ``global_batch /
workers`` sequences per step) and trains for its full epoch budget, so
every row performs the same optimizer work and wall times are directly
comparable.  A sweep over strategies is one call per strategy.

A row that fails (for example a worker count that does not divide the
global batch) records the error and the sweep continues.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

from .errors import ValidationError
from .training import Dataset, TrainConfig, evaluate, train

CSV_COLUMNS = (
    "workers", "strategy", "wall_s", "speedup", "seq_per_s",
    "final_acc", "final_auroc", "messages", "bytes", "error",
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


def run_benchmark(config: TrainConfig, worker_counts, model_config,
                  dataset: Dataset, progress=None) -> list:
    """One row per worker count, each training ``config`` at its global
    batch without early stopping; failures continue the sweep."""
    if not worker_counts:
        raise ValidationError("worker_counts must not be empty")
    if any(w < 1 for w in worker_counts):
        raise ValidationError(f"worker counts must be >= 1, got {tuple(worker_counts)}")
    global_batch = config.global_batch
    eval_records = dataset.test if dataset.test else dataset.validation
    rows = []
    for workers in worker_counts:
        row = BenchmarkRow(workers=workers, strategy=config.strategy)
        try:
            if global_batch % workers != 0:
                raise ValidationError(
                    f"global batch size {global_batch} must be divisible by "
                    f"the number of replicas ({workers})"
                )
            row_config = replace(config, n_replicas=workers,
                                 batch_per_replica=global_batch // workers,
                                 early_stopping=False)
            params, report = train(row_config, model_config, dataset)
            quality = evaluate(params, eval_records, model_config,
                               precision=config.precision)
            steps = len(dataset.train) // global_batch
            row.wall_seconds = report.total_wall_seconds
            row.sequences_per_second = (
                config.epochs_max * steps * global_batch / report.total_wall_seconds
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
    """speedup = reference wall time / row wall time; the reference is
    the 1-worker row, or the first successful row if no 1-worker row
    succeeded."""
    done = [row for row in rows if row.error is None]
    reference = next((r for r in done if r.workers == 1), done[0] if done else None)
    for row in done:
        if row.wall_seconds > 0:
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
