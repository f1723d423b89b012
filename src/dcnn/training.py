"""Synchronous data-parallel training with pluggable aggregation.

Every replica runs the same deterministic loop: identical parameter
init, identical per-epoch shuffle (seed derived from (seed, epoch)),
identical global batches, of which each rank consumes its contiguous
shard.  The strategies differ only in how per-step information crosses
workers, and each is one small class with the same hooks:

* ``allreduce`` — ring all-reduce sums per-replica mean gradients;
  every rank divides by N and applies an identical Adam step (lockstep:
  parameters stay bit-identical across ranks).
* ``ps`` — a parameter-server context at rank N averages the gradient
  reports, applies the canonical Adam step, and broadcasts parameters.
* ``gossip`` — each rank takes local Adam steps and averages parameters
  with an alternating ring partner every ``gossip_period`` steps;
  consistency is established exactly once by the final averaging.

The per-step scalar train loss rides along with the gradient vector in
the same message, so loss aggregation adds no extra messages.  Each
rank keeps its parameters, gradient and Adam moments as flat vectors of
the run's dtype (the tensors are views of them) and updates them in
place.  A message is the raw bytes of such a vector, and a received
vector is read-only.  Both backends build the same pipe links and the
same endpoints, and start their ranks through ``transport.run_ranks``,
the one rank runner, which the tests drive too; they differ only in
whether a rank starts as a thread or as a forked child.  Every wait inside a rank
is bounded by the link timeout, and every rank ends by itself, so the
parent waits for each rank's outcome with no cap of its own.

Validation is sharded, and its metrics are not: each epoch every rank
scores its contiguous share (``collective.ring_chunks``) of the
validation split with the same parameters, the mean of all replicas
under ``gossip``, and sends the probabilities to rank 0, which joins
them in rank order and computes loss, accuracy, auROC and auPRC, bit for
bit as one rank scoring the whole split would.  Rank 0 owns the
bookkeeping: it keeps the epoch metrics, decides early stopping and,
only when early stopping is on, sends every rank a continue/halt flag.
Under ``ps`` it also halts the server when its loop ends, on early stop,
normal completion or divergence alike; the rule that tells that halt
from a gradient report lives in ``collective.ps_server_round``.  Rank 0
runs in the calling process, so a group of one (N=1 with a serverless
strategy) starts no process or thread, and its one-rank endpoint has no
links and sends nothing.

Divergence is a replica's result, not an error of the run: a rank that
meets a non-finite loss or parameters, or whose peer ended first,
returns stop reason ``diverged`` with its epochs and transport stats.
``train`` alone builds the report, from every rank's result, the same
way whether the run finished or diverged: rank 0's epochs and the
transport totals of every rank, server included.  It raises
TrainingDivergedError, carrying that report, if any replica diverged.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import metrics as metrics_mod
from . import network as nw
from .collective import (
    STRATEGIES,
    gather_to_root,
    gossip_exchange,
    gossip_finalize_exchange,
    ps_halt,
    ps_server_round,
    ps_worker_round,
    ring_all_reduce,
    ring_chunks,
)
from .errors import (DcnnError, PeerClosed, TrainingDivergedError, ValidationError,
                     require_at_least)
from .kernels import dtype_for
from .pipeline import Batch, encode_batch, shuffled_stream
from .transport import ProcessLinks, TransportStats, run_ranks

_HALT = 1.0
_CONTINUE = 0.0


@dataclass(frozen=True)
class EarlyStopConfig:
    patience: int = 5
    min_delta: float = 1e-4

    def __post_init__(self):
        require_at_least(1, self, "patience")
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
    backend: str = "processes"  # or threads (tests/debug): how ranks start; same pipes

    def __post_init__(self):
        require_at_least(1, self, "n_replicas", "epochs_max", "batch_per_replica",
                         "shuffle_buffer_size", "gossip_period")
        require_at_least(0, self, "seed")
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.backend not in ("processes", "threads"):
            raise ValidationError(
                f"backend must be 'processes' or 'threads', got {self.backend!r}"
            )
        dtype_for(self.precision)  # validates the precision name

    @property
    def global_batch(self) -> int:
        return self.batch_per_replica * self.n_replicas


def per_replica_batch(global_batch: int, n_replicas: int) -> int:
    """Each replica's share of ``global_batch``, which must split evenly."""
    if global_batch % n_replicas != 0:
        raise ValidationError(
            f"global batch size {global_batch} must be divisible by the "
            f"number of replicas ({n_replicas})"
        )
    return global_batch // n_replicas


@dataclass
class Dataset:
    """Records with split roles; training touches train+validation and
    leaves test strictly for the final held-out evaluation."""

    train: list
    validation: list
    test: list = field(default_factory=list)

    def check_trainable(self, global_batch: int) -> None:
        """Raise unless the splits can train at ``global_batch``."""
        if len(self.train) < global_batch:
            raise ValidationError(
                f"training split of {len(self.train)} records is smaller than "
                f"one global batch ({global_batch})"
            )
        if not self.validation:
            raise ValidationError("training needs a non-empty validation split")


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


def epoch_stream_seed(seed: int, epoch: int) -> int:
    """Per-epoch shuffle seed, identical on every rank."""
    state = np.random.SeedSequence([seed, epoch]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)  # keep it inside a signed 64-bit range


#: Bytes of conv output [chunk, T, F] that one scoring chunk fills, so
#: that a chunk's activations stay in a core's L2 cache between layers.
EVAL_CHUNK_BYTES = 512 * 1024


def probabilities(params: nw.ModelParams, batch: Batch,
                  model_config: nw.ModelConfig, chunk_size: int | None = None):
    """The model's probability for each record of ``batch``, in the
    batch's dtype; an empty batch gives an empty vector and runs no
    forward.

    Records are scored ``chunk_size`` at a time, by default as many as
    keep the conv output within EVAL_CHUNK_BYTES; each record's
    probability does not depend on the chunking.
    """
    if chunk_size is None:
        record_bytes = (model_config.conv_out_length * model_config.n_filters
                        * batch.labels.dtype.itemsize)
        chunk_size = max(1, EVAL_CHUNK_BYTES // record_bytes)
    parts = [nw.forward(params, batch.rows(start, start + chunk_size), model_config)[0]
             for start in range(0, len(batch), chunk_size)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=batch.labels.dtype)


def scores(probs, labels) -> dict:
    """Loss, accuracy, auROC and auPRC of the probabilities ``probs`` of
    records with these labels; auROC/auPRC are None when the labels
    contain one class."""
    return {
        "loss": nw.bce_loss(probs, labels),
        "accuracy": metrics_mod.accuracy(probs, labels),
        "auroc": metrics_mod.auroc(probs, labels),
        "auprc": metrics_mod.auprc(probs, labels),
    }


def evaluate(params: nw.ModelParams, records, model_config: nw.ModelConfig,
             precision: str = "f32") -> dict:
    """:func:`scores` of the :func:`probabilities` of ``params`` on a
    record list, encoded at ``precision``."""
    if not records:
        raise ValidationError("cannot evaluate on an empty record list")
    batch = encode_batch(records, dtype=dtype_for(precision))
    return scores(probabilities(params, batch, model_config), batch.labels)


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


# ---------------------------------------------------------------------------
# One replica's side of each strategy


class _Replica:
    """This rank's parameters plus the hooks the worker loop calls:
    ``step`` once per batch, ``snapshot`` once per epoch, ``finish``
    after the last epoch and ``stop`` whenever the loop ends (diverged
    too).  A hook that a strategy does not need does nothing.

    Each rank works on two flat vectors of the run's dtype, each with a
    trailing loss slot, so the loss rides along in the same message:
    ``vec`` holds the parameters ``theta`` (``params`` are views of it)
    and ``carried`` the gradient that ``backward`` writes through the
    views ``grads``.
    """

    def __init__(self, rank, endpoint, config: TrainConfig, model_config):
        self.rank = rank
        self.endpoint = endpoint
        self.n = config.n_replicas
        self.config = config
        self.model_config = model_config
        self.dtype = dtype_for(config.precision)
        size = model_config.param_count + 1
        self.vec = np.empty(size, dtype=self.dtype)
        self.theta = self.vec[:-1]
        self.theta[:] = nw.flatten_params(
            nw.init_params(model_config, config.seed, dtype=self.dtype)
        )
        self.params = nw.unflatten_params(self.theta, model_config)
        self.carried = np.empty(size, dtype=self.dtype)
        self.grads = nw.unflatten_grads(self.carried[:-1], model_config)

    def snapshot(self, epoch_loss):
        """(params to evaluate, global train loss), the same on every rank."""
        return self.params, epoch_loss

    def stop(self):
        pass

    def finish(self):
        pass


class _LocalAdam(_Replica):
    """Parameters with their own Adam state: an allreduce or gossip
    replica, or the parameter server."""

    def __init__(self, *args):
        super().__init__(*args)
        self.adam = nw.fresh_adam_state(
            self.model_config, dtype=self.dtype, alpha=self.config.learning_rate
        )


class _AllReduce(_LocalAdam):
    """Ring all-reduce of (gradient, loss); every rank divides the sum by
    N and takes the same Adam step, so replicas stay bit-identical."""

    def step(self, loss):
        self.carried[-1] = loss
        summed = ring_all_reduce(self.carried, self.endpoint)
        summed /= self.n
        step_loss = float(summed[-1])
        if not np.isfinite(step_loss):
            raise TrainingDivergedError("non-finite loss or parameters")
        nw.adam_step(self.theta, summed[:-1], self.adam)
        return step_loss


class _ParameterServer(_Replica):
    """Reports (gradient, loss) to the server at rank N and installs the
    (parameters, mean loss) it broadcasts; only the server runs Adam."""

    def step(self, loss):
        self.carried[-1] = loss
        reply = ps_worker_round(self.endpoint, self.n, self.carried)
        if not np.isfinite(reply).all():
            raise TrainingDivergedError("non-finite loss or parameters")
        self.vec[:] = reply
        return float(reply[-1])

    def stop(self):
        if self.rank == 0:
            ps_halt(self.endpoint, self.n, self.dtype)


class _Gossip(_LocalAdam):
    """Local Adam steps, and every ``gossip_period`` steps an average with
    this round's ring partner.  Each epoch every rank scores the mean of
    all replicas without installing it; the final consensus installs that
    mean everywhere."""

    def __init__(self, *args):
        super().__init__(*args)
        self.steps = 0

    def step(self, loss):
        if not np.isfinite(loss):
            raise TrainingDivergedError("non-finite loss or parameters")
        nw.adam_step(self.theta, self.carried[:-1], self.adam)
        self.steps += 1
        period = self.config.gossip_period
        if self.steps % period == 0:
            self.theta[:] = gossip_exchange(
                self.endpoint, self.steps // period - 1, self.theta
            )
        return float(loss)

    def snapshot(self, epoch_loss):
        if self.n == 1:  # the loss slot would round the mean to the run dtype
            return self.params, epoch_loss
        self.vec[-1] = epoch_loss
        mean_vec = gossip_finalize_exchange(self.endpoint, self.vec)
        return nw.unflatten_params(mean_vec[:-1], self.model_config), float(mean_vec[-1])

    def finish(self):
        self.theta[:] = gossip_finalize_exchange(self.endpoint, self.theta)


_REPLICAS = {"allreduce": _AllReduce, "ps": _ParameterServer, "gossip": _Gossip}


# ---------------------------------------------------------------------------
# The worker loop (runs on every rank, any backend)


def _worker_loop(rank, endpoint, config: TrainConfig, model_config, train_set,
                 validation_set):
    """One replica's whole training run; returns a result dict.

    ``train_set`` and ``validation_set`` are the encoded Batches of the
    dataset's splits.  A replica that diverges, or whose peer ended
    first, returns its stop reason ``diverged``, its epochs, its last
    good epoch and its transport stats, and no parameters.
    """
    replica = _REPLICAS[config.strategy](rank, endpoint, config, model_config)
    steps_per_epoch = len(train_set) // config.global_batch
    shares = ring_chunks(len(validation_set), config.n_replicas)
    share_sizes = [stop - start for start, stop in shares]
    is_root = rank == 0
    epoch_rows = []
    stop_reason = "max_epochs"
    last_good_epoch = -1
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
                micro = Batch(train_set.codes[mine], train_set.labels[mine])
                probs, cache = nw.forward(replica.params, micro, model_config)
                local_loss = nw.bce_loss(probs, micro.labels)
                nw.backward(replica.params, cache, micro.labels, model_config,
                            out=replica.grads)
                step_losses.append(replica.step(local_loss))
            epoch_mean_loss = float(np.mean(step_losses))
            wall = time.perf_counter() - epoch_t0

            # every rank scores its share of validation with the same
            # parameters; rank 0 joins the shares and computes the metrics
            eval_params, global_loss = replica.snapshot(epoch_mean_loss)
            if not np.isfinite(global_loss):
                raise TrainingDivergedError("non-finite loss or parameters")
            probs = gather_to_root(
                endpoint,
                probabilities(eval_params, validation_set.rows(*shares[rank]), model_config),
                share_sizes,
            )
            halt = _CONTINUE
            if is_root:
                val = scores(probs, validation_set.labels)
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
                    raise TrainingDivergedError("non-finite loss or parameters")
                last_good_epoch = epoch
                if config.early_stopping and _should_stop(
                    [row.val_loss for row in epoch_rows], config.early_stop
                ):
                    halt = _HALT
            if config.early_stopping:  # rank 0 decides; the others follow its flag
                if is_root:
                    for peer in range(1, config.n_replicas):
                        endpoint.send(peer, np.asarray([halt], dtype=replica.dtype))
                else:
                    halt = float(endpoint.recv(0)[0])
            if halt == _HALT:
                stop_reason = "converged"
                break
        replica.finish()
    except (TrainingDivergedError, PeerClosed):  # or a peer ended first, even in finish()
        replica.stop()  # finish() is skipped: it would wait on ranks that have ended
        return {"stop_reason": "diverged", "last_good_epoch": last_good_epoch,
                "epochs": epoch_rows, "stats": endpoint.stats}

    replica.stop()
    return {
        "params_vec": replica.theta,
        "epochs": epoch_rows,
        "stop_reason": stop_reason,
        "stats": endpoint.stats,
    }


# ---------------------------------------------------------------------------
# The parameter-server context


def _server_loop(endpoint, config: TrainConfig, model_config):
    """Holds the canonical params and the run's only Adam state: one Adam
    step per synchronous round, until rank 0 halts the rounds (see
    ``collective.ps_server_round``).

    On a non-finite update the server broadcasts NaN parameters; the
    workers all observe them and abort identically.  A worker that ends
    without halting the rounds (its link closes) ends the server too: the
    workers' results say why.
    """
    server = _LocalAdam(endpoint.rank, endpoint, config, model_config)

    def step(mean_report):
        """(new params, mean loss) from the mean (gradient, loss) report."""
        try:
            nw.adam_step(server.theta, mean_report[:-1], server.adam)
        except TrainingDivergedError:
            return np.full_like(mean_report, np.nan)
        server.vec[-1] = mean_report[-1]
        return server.vec

    try:
        while ps_server_round(endpoint, step) is not None:
            pass
    except PeerClosed:
        pass
    return {"stats": endpoint.stats}


# ---------------------------------------------------------------------------
# Orchestration


def train(config: TrainConfig, model_config: nw.ModelConfig, dataset: Dataset):
    """Run the full training loop; returns (final params, TrainReport).

    Deterministic given (config, model_config, dataset): metrics and the
    final parameters repeat bit-for-bit; only wall-clock fields vary.

    The report holds rank 0's epochs and the transport totals of every
    rank, server included, and its total_wall_seconds times this whole
    call.  If any replica diverged, the same report, with stop reason
    ``diverged``, is the partial report of the TrainingDivergedError
    raised instead.
    """
    t0 = time.perf_counter()
    dataset.check_trainable(config.global_batch)

    # encoded once here, before any fork, and shared by every rank
    dtype = dtype_for(config.precision)
    data = (encode_batch(dataset.train, dtype=dtype),
            encode_batch(dataset.validation, dtype=dtype))
    n = config.n_replicas
    needs_server = config.strategy == "ps"

    # one callable per rank, the parameter server as rank N; the loops are
    # looked up here, at call time, so a wrapper installed by name applies
    links = ProcessLinks(n + 1 if needs_server else n, dtype)
    fns = [partial(_worker_loop, rank, links.endpoint(rank), config, model_config, *data)
           for rank in range(n)]
    if needs_server:
        fns.append(partial(_server_loop, links.endpoint(n), config, model_config))
    results = run_ranks(links, fns, forked=config.backend == "processes")

    # a rank that diverges ends its links, so rank 0 ends diverged too
    root = results[0]
    diverged = root["stop_reason"] == "diverged"
    if not diverged:  # every worker must agree exactly on the final parameters
        for rank in range(1, n):
            if not np.array_equal(results[rank].get("params_vec"), root["params_vec"]):
                raise DcnnError(
                    f"rank {rank} finished with parameters different "
                    f"from rank 0: aggregation is broken"
                )
    stats = TransportStats()
    for result in results:
        stats.merge(result["stats"])
    report = TrainReport(
        config={**asdict(config), "global_batch": config.global_batch},
        epochs=root["epochs"],
        total_wall_seconds=time.perf_counter() - t0,
        total_messages=stats.messages,
        total_bytes=stats.bytes,
        stop_reason=root["stop_reason"],
    )
    if diverged:
        raise TrainingDivergedError(
            "training diverged: non-finite loss or parameters",
            last_good_epoch=root["last_good_epoch"],
            partial_report=report,
        )
    return nw.unflatten_params(root["params_vec"], model_config), report


# ---------------------------------------------------------------------------
# Serialization (report.json is ``dataclasses.asdict`` of the report)


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
