"""Synchronous data-parallel training with pluggable aggregation.

Every replica runs the same deterministic loop: identical parameter
init, identical per-epoch shuffle (seed derived from (seed, epoch)),
identical global batches, of which each rank consumes its contiguous
shard.  The strategies differ only in how per-step information crosses
workers:

* ``allreduce`` — ring all-reduce sums per-replica mean gradients;
  every rank divides by N and applies an identical Adam step (lockstep:
  parameters stay bit-identical across ranks).
* ``ps`` — a parameter-server context at rank N averages the gradient
  reports, applies the canonical Adam step, and broadcasts parameters.
* ``gossip`` — each rank takes local Adam steps and averages parameters
  with an alternating ring partner every ``gossip_period`` steps;
  consistency is established exactly once by the final averaging.

The per-step scalar train loss rides along with the gradient vector in
the same message, so loss aggregation adds no extra messages.

Rank 0 owns bookkeeping: it evaluates validation metrics each epoch,
decides early stopping, and broadcasts a continue/halt flag.  The
parameter server distinguishes control flags from gradient reports by
message length (a flag is a single element), so one mechanism covers
early stop, normal completion, and divergence aborts.  For N=1 with a
serverless strategy the same worker loop runs inline with no endpoint
and zero messages.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics as metrics_mod
from . import network as nw
from .collective import (
    STRATEGIES,
    gossip_exchange,
    gossip_finalize_exchange,
    mean_ascending,
    ps_server_round,
    ps_worker_round,
    ring_all_reduce,
)
from .errors import DcnnError, TrainingDivergedError, ValidationError
from .kernels import dtype_for
from .pipeline import Batch, encode_batch, shuffled_stream
from .transport import ProcessLinks, ThreadGroup, TransportStats

_HALT = 1.0
_CONTINUE = 0.0


@dataclass(frozen=True)
class EarlyStopConfig:
    patience: int = 5
    min_delta: float = 1e-4

    def __post_init__(self):
        if self.patience < 1:
            raise ValidationError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise ValidationError(f"min_delta must be >= 0, got {self.min_delta}")


@dataclass(frozen=True)
class TrainConfig:
    n_replicas: int = 1
    strategy: str = "allreduce"
    epochs_max: int = 10
    batch_per_replica: int = 64
    seed: int = 0
    precision: str = "f32"
    learning_rate: float = 1e-3
    shuffle_buffer_size: int = 100
    early_stop: EarlyStopConfig = field(default_factory=EarlyStopConfig)
    early_stopping: bool = True
    gossip_period: int = 1
    aggregate_per_epoch: bool = False
    backend: str = "processes"  # processes | threads (threads: tests/debug)
    track_params_hash: bool = False

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValidationError(f"n_replicas must be >= 1, got {self.n_replicas}")
        if self.epochs_max < 1:
            raise ValidationError(f"epochs_max must be >= 1, got {self.epochs_max}")
        if self.batch_per_replica < 1:
            raise ValidationError(
                f"batch_per_replica must be >= 1, got {self.batch_per_replica}"
            )
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.gossip_period < 1:
            raise ValidationError(
                f"gossip_period must be >= 1, got {self.gossip_period}"
            )
        if self.backend not in ("processes", "threads"):
            raise ValidationError(
                f"backend must be 'processes' or 'threads', got {self.backend!r}"
            )
        dtype_for(self.precision)  # validates the precision name

    @property
    def global_batch(self) -> int:
        return self.batch_per_replica * self.n_replicas


@dataclass
class Dataset:
    """Records with split roles; training touches train+validation and
    leaves test strictly for the final held-out evaluation."""

    train: list
    validation: list
    test: list = field(default_factory=list)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    val_auroc: object  # float, or None when undefined (single-class)
    val_auprc: object
    wall_seconds: float
    sequences_per_second: float


@dataclass
class TrainReport:
    config: dict
    epochs: list
    total_wall_seconds: float
    total_messages: int
    total_bytes: int
    stop_reason: str  # converged | max_epochs | diverged
    params_hashes: list = field(default_factory=list)


def epoch_stream_seed(seed: int, epoch: int) -> int:
    """Per-epoch shuffle seed, identical on every rank."""
    state = np.random.SeedSequence([seed, epoch]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)  # keep it inside a signed 64-bit range


def evaluate(params: nw.ModelParams, records, model_config: nw.ModelConfig,
             precision: str = "f32", chunk_size: int = 256) -> dict:
    """Loss/accuracy/auROC/auPRC of ``params`` on a record list, or on the
    Batch that ``encode_batch`` made of one (it keeps its own dtype).

    auROC/auPRC come back as None when the labels contain one class.
    """
    if not records:
        raise ValidationError("cannot evaluate on an empty record list")
    if isinstance(records, Batch):
        batch = records
    else:
        batch = encode_batch(records, dtype=dtype_for(precision))
    probs = np.concatenate([
        nw.forward(params, batch.rows(start, start + chunk_size), model_config)[0]
        for start in range(0, len(batch), chunk_size)
    ])
    labels = batch.labels
    return {
        "loss": nw.bce_loss(probs, labels),
        "accuracy": metrics_mod.accuracy(probs, labels),
        "auroc": metrics_mod.auroc(probs, labels),
        "auprc": metrics_mod.auprc(probs, labels),
    }


class _Diverged(Exception):
    """Internal: carries the last finished epoch out of the loop."""

    def __init__(self, last_good_epoch):
        super().__init__("training diverged")
        self.last_good_epoch = last_good_epoch


def _params_digest(params: nw.ModelParams) -> str:
    return hashlib.sha256(nw.flatten_params(params).tobytes()).hexdigest()[:16]


def _should_stop(val_losses, early: EarlyStopConfig) -> bool:
    """True when the latest loss closes a patience window with no
    improvement greater than min_delta over the best before it."""
    best = float("inf")
    since_best = 0
    for loss in val_losses:
        if loss < best - early.min_delta:
            best = loss
            since_best = 0
        else:
            since_best += 1
    return since_best >= early.patience


def config_to_dict(config: TrainConfig) -> dict:
    out = asdict(config)
    out["global_batch"] = config.global_batch
    return out


# ---------------------------------------------------------------------------
# The worker loop (runs on every rank, any backend)


def _worker_loop(rank, endpoint, config: TrainConfig, model_config, train_set,
                 validation_set, server_rank=None):
    """One replica's whole training run; returns a result dict.

    ``train_set`` and ``validation_set`` are the encoded Batches of the
    dataset's splits.  ``endpoint`` is None only for the inline N=1
    serverless path.
    """
    n = config.n_replicas
    dtype = dtype_for(config.precision)
    params = nw.init_params(model_config, config.seed, dtype=dtype)
    uses_local_adam = config.strategy != "ps" or config.aggregate_per_epoch
    adam = (
        nw.fresh_adam_state(model_config, dtype=dtype, alpha=config.learning_rate)
        if uses_local_adam
        else None
    )
    steps_per_epoch = len(train_set) // config.global_batch
    if steps_per_epoch < 1:
        raise ValidationError(
            f"training split of {len(train_set)} records is smaller than "
            f"one global batch ({config.global_batch})"
        )
    is_root = rank == 0
    epoch_rows = []
    params_hashes = []
    stop_reason = "max_epochs"
    gossip_counter = 0
    last_good_epoch = -1

    def local_adam_step(grads):
        nonlocal params, adam
        try:
            params, adam = nw.adam_step(params, grads, adam, model_config)
        except TrainingDivergedError:
            raise _Diverged(last_good_epoch) from None

    def aggregated_step(flat_grads, local_loss):
        nonlocal params, gossip_counter
        carried = np.concatenate(
            [flat_grads, np.asarray([local_loss], dtype=dtype)]
        )
        if config.strategy == "allreduce":
            summed = carried if n == 1 else ring_all_reduce(carried, endpoint)
            mean_vec = summed / n
            step_loss = float(mean_vec[-1])
            if not np.isfinite(step_loss):
                raise _Diverged(last_good_epoch)
            grads = nw.unflatten_grads(
                mean_vec[:-1].astype(dtype, copy=False), model_config
            )
            local_adam_step(grads)
        elif config.strategy == "ps":
            reply = ps_worker_round(endpoint, server_rank, carried)
            vec, step_loss = reply[:-1], float(reply[-1])
            if not np.isfinite(vec).all() or not np.isfinite(step_loss):
                raise _Diverged(last_good_epoch)
            params = nw.unflatten_params(vec.astype(dtype, copy=False), model_config)
        else:  # gossip: local step, periodic neighbor averaging
            step_loss = float(local_loss)
            if not np.isfinite(step_loss):
                raise _Diverged(last_good_epoch)
            local_adam_step(nw.unflatten_grads(flat_grads, model_config))
            gossip_counter += 1
            if n > 1 and gossip_counter % config.gossip_period == 0:
                round_index = gossip_counter // config.gossip_period - 1
                vec = gossip_exchange(
                    endpoint, round_index, nw.flatten_params(params)
                )
                params = nw.unflatten_params(
                    vec.astype(dtype, copy=False), model_config
                )
        return step_loss

    def per_epoch_average(epoch, epoch_mean_loss):
        """aggregate_per_epoch mode: average parameters across ranks at
        the epoch boundary; Adam stays local everywhere."""
        nonlocal params
        carried = np.concatenate(
            [nw.flatten_params(params), np.asarray([epoch_mean_loss], dtype=dtype)]
        )
        if n == 1 and config.strategy != "ps":
            mean_vec = carried
        elif config.strategy == "allreduce":
            mean_vec = ring_all_reduce(carried, endpoint) / n
        elif config.strategy == "ps":
            mean_vec = ps_worker_round(endpoint, server_rank, carried)
        else:
            mean_vec = gossip_exchange(endpoint, epoch, carried)
        if not np.isfinite(mean_vec).all():
            raise _Diverged(last_good_epoch)
        params = nw.unflatten_params(
            mean_vec[:-1].astype(dtype, copy=False), model_config
        )
        return float(mean_vec[-1])

    def eval_snapshot(epoch_mean_loss):
        """Rank 0 obtains (params-for-eval, global train loss).

        For allreduce/ps the replicas are already identical.  For
        per-step gossip, rank 0 gathers every rank's (params, loss),
        averages, and evaluates the mean without installing it.
        """
        if config.strategy != "gossip" or config.aggregate_per_epoch or n == 1:
            return params, epoch_mean_loss
        carried = np.concatenate(
            [nw.flatten_params(params), np.asarray([epoch_mean_loss], dtype=dtype)]
        )
        if is_root:
            gathered = [carried] + [endpoint.recv(r) for r in range(1, n)]
            mean_vec = mean_ascending(gathered)
            snapshot = nw.unflatten_params(
                mean_vec[:-1].astype(dtype, copy=False), model_config
            )
            return snapshot, float(mean_vec[-1])
        endpoint.send(0, carried)
        return None, None

    def send_server_halt():
        if config.strategy == "ps" and is_root:
            endpoint.send(server_rank, np.asarray([_HALT], dtype=dtype))

    try:
        for epoch in range(config.epochs_max):
            epoch_t0 = time.perf_counter()
            # the epoch's record order; this rank trains on its contiguous
            # share of each global batch (a trailing partial batch is dropped)
            order = np.fromiter(
                shuffled_stream(
                    range(len(train_set)), config.shuffle_buffer_size,
                    epoch_stream_seed(config.seed, epoch),
                ),
                dtype=np.intp, count=len(train_set),
            )
            step_losses = []
            for step in range(steps_per_epoch):
                start = step * config.global_batch + rank * config.batch_per_replica
                mine = order[start : start + config.batch_per_replica]
                micro = Batch(None, train_set.labels[mine], train_set.codes[mine])
                probs, cache = nw.forward(params, micro, model_config)
                local_loss = nw.bce_loss(probs, micro.labels)
                grads = nw.backward(params, cache, micro.labels, model_config)
                if config.aggregate_per_epoch:
                    local_adam_step(grads)
                    step_losses.append(local_loss)
                else:
                    step_losses.append(
                        aggregated_step(nw.flatten_grads(grads), local_loss)
                    )
                if config.track_params_hash and is_root:
                    params_hashes.append(_params_digest(params))
            epoch_mean_loss = float(np.mean(step_losses))
            if config.aggregate_per_epoch:
                epoch_mean_loss = per_epoch_average(epoch, epoch_mean_loss)
            wall = time.perf_counter() - epoch_t0

            eval_params, global_loss = eval_snapshot(epoch_mean_loss)
            halt = _CONTINUE
            if is_root:
                if not np.isfinite(global_loss):
                    raise _Diverged(last_good_epoch)
                val = evaluate(
                    eval_params, validation_set, model_config,
                    precision=config.precision,
                )
                epoch_rows.append(
                    EpochMetrics(
                        epoch=epoch,
                        train_loss=global_loss,
                        val_loss=val["loss"],
                        val_accuracy=val["accuracy"],
                        val_auroc=val["auroc"],
                        val_auprc=val["auprc"],
                        wall_seconds=wall,
                        sequences_per_second=(
                            steps_per_epoch * config.global_batch / wall
                            if wall > 0
                            else float("inf")
                        ),
                    )
                )
                if not np.isfinite(val["loss"]):
                    raise _Diverged(last_good_epoch)
                last_good_epoch = epoch
                if config.early_stopping and _should_stop(
                    [row.val_loss for row in epoch_rows], config.early_stop
                ):
                    halt = _HALT
            # rank 0 decides; the other replicas follow its flag
            if n > 1:
                if is_root:
                    for peer in range(1, n):
                        endpoint.send(peer, np.asarray([halt], dtype=dtype))
                else:
                    halt = float(endpoint.recv(0)[0])
            if halt == _HALT:
                stop_reason = "converged"
                break
    except _Diverged as exc:
        send_server_halt()
        raise TrainingDivergedError(
            "training diverged: non-finite loss or parameters",
            last_good_epoch=exc.last_good_epoch,
            partial_report=TrainReport(
                config=config_to_dict(config),
                epochs=epoch_rows,
                total_wall_seconds=0.0,  # train() times the whole call
                total_messages=endpoint.stats.messages if endpoint else 0,
                total_bytes=endpoint.stats.bytes if endpoint else 0,
                stop_reason="diverged",
                params_hashes=params_hashes,
            ),
        ) from None

    send_server_halt()
    if config.strategy == "gossip" and n > 1:
        vec = gossip_finalize_exchange(endpoint, nw.flatten_params(params))
        params = nw.unflatten_params(vec.astype(dtype, copy=False), model_config)

    return {
        "rank": rank,
        "params_vec": nw.flatten_params(params),
        "epochs": epoch_rows,
        "stop_reason": stop_reason,
        "stats": endpoint.stats if endpoint is not None else TransportStats(),
        "params_hashes": params_hashes,
    }


# ---------------------------------------------------------------------------
# The parameter-server context


def _server_loop(endpoint, config: TrainConfig, model_config):
    """Holds canonical params; one Adam step per synchronous round.

    Rounds run until rank 0 sends a single-element control message
    (reports always carry param_count + 1 elements, so length tells the
    two apart).  On a non-finite update the server broadcasts NaN
    parameters; the workers all observe them and abort identically.
    """
    n = config.n_replicas
    dtype = dtype_for(config.precision)
    params_vec = nw.flatten_params(
        nw.init_params(model_config, config.seed, dtype=dtype)
    )
    adam = nw.fresh_adam_state(model_config, dtype=dtype, alpha=config.learning_rate)

    def step(current_vec, carried_mean):
        nonlocal adam
        if config.aggregate_per_epoch:
            # epoch-boundary averaging: install the mean parameters as-is
            return carried_mean
        try:
            grads = nw.unflatten_grads(
                carried_mean[:-1].astype(dtype, copy=False), model_config
            )
            new_params, adam = nw.adam_step(
                nw.unflatten_params(current_vec, model_config), grads, adam,
                model_config,
            )
            out = nw.flatten_params(new_params)
            loss = carried_mean[-1:]
        except TrainingDivergedError:
            out = np.full_like(current_vec, np.nan)
            loss = np.asarray([np.nan], dtype=dtype)
        return np.concatenate([out, loss])

    while True:
        first = endpoint.recv(0)
        if first.size == 1:
            break  # control flag from rank 0: run is over
        reports = [first] + [endpoint.recv(r) for r in range(1, n)]
        mean = mean_ascending(reports)
        broadcast = step(params_vec, mean)
        params_vec = broadcast[:-1]
        for r in range(n):
            endpoint.send(r, broadcast)
    return {"rank": endpoint.rank, "stats": endpoint.stats}


# ---------------------------------------------------------------------------
# Orchestration


def _spawn_entry(fn, args, sink):
    try:
        sink.send(("ok", fn(*args)))
    except TrainingDivergedError as exc:
        sink.send(
            (
                "diverged",
                {
                    "message": str(exc),
                    "last_good_epoch": exc.last_good_epoch,
                    "partial_report": exc.partial_report,
                },
            )
        )
    except BaseException as exc:  # surfaced in the parent
        sink.send(("error", repr(exc)))
    finally:
        sink.close()


def train(config: TrainConfig, model_config: nw.ModelConfig, dataset: Dataset):
    """Run the full training loop; returns (final params, TrainReport).

    Deterministic given (config, model_config, dataset): metrics and the
    final parameters repeat bit-for-bit; only wall-clock fields vary.
    The report's total_wall_seconds, and that of the partial report of a
    diverged run, time this whole call.
    """
    t0 = time.perf_counter()
    try:
        params, report = _train(config, model_config, dataset)
    except TrainingDivergedError as exc:
        if exc.partial_report is not None:
            exc.partial_report.total_wall_seconds = time.perf_counter() - t0
        raise
    report.total_wall_seconds = time.perf_counter() - t0
    return params, report


def _train(config, model_config, dataset):
    if len(dataset.train) < config.global_batch:
        raise ValidationError(
            f"training split of {len(dataset.train)} records is smaller than "
            f"one global batch ({config.global_batch})"
        )
    if not dataset.validation:
        raise ValidationError("training needs a non-empty validation split")

    # encoded once here, before any fork, and shared by every rank
    dtype = dtype_for(config.precision)
    data = (encode_batch(dataset.train, dtype=dtype),
            encode_batch(dataset.validation, dtype=dtype))
    needs_server = config.strategy == "ps"
    n = config.n_replicas
    group_size = n + 1 if needs_server else n

    if group_size == 1:
        result = _worker_loop(0, None, config, model_config, *data)
        return _finish(config, model_config, [result], [])

    if config.backend == "threads":
        group = ThreadGroup(group_size, timeout=300.0)
        fns = []
        for rank in range(n):
            ep = group.endpoint(rank)
            fns.append(
                lambda rank=rank, ep=ep: _worker_loop(
                    rank, ep, config, model_config, *data,
                    server_rank=n if needs_server else None,
                )
            )
        if needs_server:
            server_ep = group.endpoint(n)
            fns.append(lambda: _server_loop(server_ep, config, model_config))
        results = group.run(fns)
        worker_results = results[:n]
        extra = [results[n]["stats"]] if needs_server else []
        return _finish(config, model_config, worker_results, extra)

    # process backend: fork one child per context, collect results on pipes
    ctx = mp.get_context("fork")
    links = ProcessLinks(group_size, timeout=600.0)
    sinks = []
    procs = []

    def add_child(fn, args):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        procs.append(ctx.Process(target=_spawn_entry, args=(fn, args, child_conn)))
        sinks.append(parent_conn)

    for rank in range(n):
        add_child(
            _worker_loop,
            (rank, links.endpoint(rank), config, model_config, *data,
             n if needs_server else None),
        )
    if needs_server:
        add_child(_server_loop, (links.endpoint(n), config, model_config))
    for proc in procs:
        proc.start()

    payloads = []
    try:
        for conn in sinks:
            if conn.poll(900.0):
                payloads.append(conn.recv())
            else:
                payloads.append(("error", "worker did not report a result"))
    finally:
        for proc in procs:
            proc.join(timeout=60.0)
            if proc.is_alive():
                proc.terminate()
        links.close()

    for status, payload in payloads:
        if status == "diverged":
            raise TrainingDivergedError(
                payload["message"],
                last_good_epoch=payload["last_good_epoch"],
                partial_report=payload["partial_report"],
            )
    failures = [payload for status, payload in payloads if status == "error"]
    if failures:
        raise DcnnError(f"worker failure during training: {failures[0]}")
    results = [payload for _status, payload in payloads]
    worker_results = sorted(
        (r for r in results if "params_vec" in r), key=lambda r: r["rank"]
    )
    extra = [r["stats"] for r in results if "params_vec" not in r]
    return _finish(config, model_config, worker_results, extra)


def _finish(config, model_config, worker_results, extra_stats):
    root = worker_results[0]
    dtype = dtype_for(config.precision)
    params = nw.unflatten_params(
        root["params_vec"].astype(dtype, copy=False), model_config
    )
    stats = TransportStats()
    for result in worker_results:
        stats.merge(result["stats"])
    for other in extra_stats:
        stats.merge(other)
    # every worker must agree exactly on the final parameters
    for result in worker_results[1:]:
        if not np.array_equal(result["params_vec"], root["params_vec"]):
            raise DcnnError(
                f"rank {result['rank']} finished with parameters different "
                f"from rank 0: aggregation is broken"
            )
    report = TrainReport(
        config=config_to_dict(config),
        epochs=root["epochs"],
        total_wall_seconds=0.0,  # train() times the whole call
        total_messages=stats.messages,
        total_bytes=stats.bytes,
        stop_reason=root["stop_reason"],
        params_hashes=root["params_hashes"],
    )
    return params, report


# ---------------------------------------------------------------------------
# Serialization


def _metric_or_null(value):
    return None if value is None else float(value)


def report_to_dict(report: TrainReport) -> dict:
    return {
        "config": report.config,
        "epochs": [
            {
                "epoch": row.epoch,
                "train_loss": float(row.train_loss),
                "val_loss": float(row.val_loss),
                "val_accuracy": float(row.val_accuracy),
                "val_auroc": _metric_or_null(row.val_auroc),
                "val_auprc": _metric_or_null(row.val_auprc),
                "wall_seconds": float(row.wall_seconds),
                "sequences_per_second": float(row.sequences_per_second),
            }
            for row in report.epochs
        ],
        "total_wall_seconds": report.total_wall_seconds,
        "total_messages": report.total_messages,
        "total_bytes": report.total_bytes,
        "stop_reason": report.stop_reason,
    }


def write_report_json(report: TrainReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def write_curves_csv(report: TrainReport, path) -> None:
    """Learning curves: epoch,train_loss,val_loss,val_acc,val_auroc,val_auprc,wall_s"""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "train_loss", "val_loss", "val_acc", "val_auroc",
             "val_auprc", "wall_s"]
        )
        for row in report.epochs:
            writer.writerow(
                [
                    row.epoch,
                    f"{row.train_loss:.6f}",
                    f"{row.val_loss:.6f}",
                    f"{row.val_accuracy:.6f}",
                    "" if row.val_auroc is None else f"{row.val_auroc:.6f}",
                    "" if row.val_auprc is None else f"{row.val_auprc:.6f}",
                    f"{row.wall_seconds:.3f}",
                ]
            )
