"""Benchmark sweep: row layout, speedup references, failure capture,
and CSV/table rendering."""

import numpy as np
import pytest

from dcnn.benchmark import (
    CSV_COLUMNS,
    BenchmarkRow,
    _fill_speedups,
    format_benchmark_table,
    run_benchmark,
    write_benchmark_csv,
)
from dcnn.errors import ValidationError
from dcnn.genome import SimConfig, default_tal1_pwm, generate_dataset
from dcnn.network import ModelConfig
from dcnn.pipeline import SplitSpec, split
from dcnn.training import Dataset, EarlyStopConfig, TrainConfig

MODEL = ModelConfig(
    seq_length=200, n_filters=6, filter_width=10, pool_window=10, pool_stride=10
)


def sweep_config(**kw):
    """One job at a global batch of 32, trained for one epoch on threads."""
    kw = {"epochs_max": 1, "batch_per_replica": 32, "backend": "threads", **kw}
    return TrainConfig(**kw)


@pytest.fixture(scope="module")
def dataset():
    sim = SimConfig(seq_length=200, n_positive=300, n_negative=300, seed=7)
    records = generate_dataset(sim, default_tal1_pwm())
    train_recs, test_recs, val_recs = split(records, SplitSpec(seed=3))
    return Dataset(train=train_recs, validation=val_recs, test=test_recs)


def test_config_validation(dataset):
    with pytest.raises(ValidationError):
        run_benchmark(sweep_config(), (), MODEL, dataset)
    with pytest.raises(ValidationError):
        run_benchmark(sweep_config(), (1, 0), MODEL, dataset)
    with pytest.raises(ValidationError):
        TrainConfig(strategy="")
    with pytest.raises(ValidationError):
        sweep_config(epochs_max=0)
    with pytest.raises(ValidationError):
        sweep_config(batch_per_replica=0)


def test_single_worker_sweep_has_unit_speedup(dataset):
    rows = run_benchmark(sweep_config(), (1,), MODEL, dataset)
    assert len(rows) == 1
    assert rows[0].speedup == 1.0
    assert rows[0].error is None
    assert rows[0].messages == 0
    assert rows[0].wall_seconds > 0


def test_sweep_rows_are_strategy_major_and_quality_matches(dataset):
    sweeps = [
        run_benchmark(sweep_config(strategy=strategy, precision="f64"), (1, 2),
                      MODEL, dataset)
        for strategy in ("allreduce", "ps")
    ]
    rows = [row for sweep in sweeps for row in sweep]
    assert [(r.strategy, r.workers) for r in rows] == [
        ("allreduce", 1), ("allreduce", 2), ("ps", 1), ("ps", 2),
    ]
    # fixed global batch: every row performs identical optimizer work,
    # so final quality agrees across worker counts and strategies
    accuracies = {round(r.final_accuracy, 10) for r in rows}
    assert len(accuracies) == 1
    aurocs = [r.final_auroc for r in rows]
    assert np.ptp(aurocs) <= 1e-9
    # speedup reference is per strategy: both 1-worker rows read 1.0
    assert rows[0].speedup == 1.0
    assert rows[2].speedup == 1.0


def test_rows_keep_the_global_batch_and_train_every_epoch(dataset):
    # early stopping with this patience would end the run after 2 epochs
    config = sweep_config(batch_per_replica=16, n_replicas=2, epochs_max=3,
                          early_stop=EarlyStopConfig(patience=1, min_delta=10.0))
    rows = run_benchmark(config, (1, 4), MODEL, dataset)
    assert [r.error for r in rows] == [None, None]
    steps = len(dataset.train) // 32
    for row in rows:
        assert row.sequences_per_second == pytest.approx(
            3 * steps * 32 / row.wall_seconds)
    # four replicas of 8 for all 3 epochs: a ring all-reduce of 2*4*3
    # messages per step, and three halt flags per epoch
    assert rows[1].messages == 3 * (steps * 2 * 4 * 3 + 3)


def test_non_dividing_worker_count_is_recorded_not_fatal(dataset):
    rows = run_benchmark(sweep_config(), (1, 3), MODEL, dataset)
    ok, bad = rows
    assert ok.error is None and ok.speedup == 1.0
    assert "divisible by the number of replicas" in bad.error
    assert bad.wall_seconds is None
    assert bad.speedup is None


def test_progress_callback_sees_every_row(dataset):
    seen = []
    run_benchmark(sweep_config(), (1, 3), MODEL, dataset, progress=seen.append)
    assert [r.workers for r in seen] == [1, 3]


def test_speedup_reference_falls_back_when_one_worker_row_failed():
    rows = [
        BenchmarkRow(workers=1, strategy="allreduce", error="boom"),
        BenchmarkRow(workers=2, strategy="allreduce", wall_seconds=10.0),
        BenchmarkRow(workers=4, strategy="allreduce", wall_seconds=5.0),
    ]
    _fill_speedups(rows)
    assert rows[0].speedup is None
    assert rows[1].speedup == 1.0
    assert rows[2].speedup == 2.0


def test_csv_layout(tmp_path, dataset):
    rows = run_benchmark(sweep_config(), (1, 3), MODEL, dataset)
    path = tmp_path / "bench.csv"
    write_benchmark_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    ok_cells = lines[1].split(",")
    assert ok_cells[0] == "1" and ok_cells[1] == "allreduce"
    assert ok_cells[9] == ""
    bad_cells = lines[2].split(",")
    assert bad_cells[2] == "" and "divisible" in lines[2]


def test_table_rendering(dataset):
    rows = run_benchmark(sweep_config(), (1,), MODEL, dataset)
    table = format_benchmark_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("workers  strategy")
    assert "speedup" in lines[0]
    assert set(lines[1]) <= {"-", " "}
    assert lines[2].startswith("1")
