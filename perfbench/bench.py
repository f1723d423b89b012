"""Inputs, set-up, operations and checks of one benchmark invocation.

Imported by ``run.py`` after it has pinned the BLAS thread count.  Set-up
and operations drive the program only through the functions its CLI uses:
``genome.read_fasta``, ``pipeline.split``, ``training.train``,
``network.load_checkpoint`` and ``training.evaluate``.  Inputs are made with
``genome.generate_dataset`` and ``network.save_checkpoint``; the gradient
check calls ``network.forward``/``backward`` once.
"""

from __future__ import annotations

import hashlib
import itertools
import resource
import statistics
import time

import numpy as np

import checks
from dcnn import genome, network, pipeline, training
from tracing import Tracer, per_layer_names, unit_of

#: Set-ups before the warm-up operation; one more precedes every timed
#: operation, so set-up is sampled across the whole window.  setup_s is
#: the median of all of them.
SETUP_REPEATS = 5
#: Model initialisation seed.  It is part of the workload's configuration,
#: not of its inputs: with it fixed, the final loss varies with the data
#: alone (its spread over seeds falls from 10% to 2% on ring-l200-2r).
INIT_SEED = 0
#: Scoring checkpoint: filter 0 holds the TAL1 PWM's log-odds against a
#: uniform background, thresholded by its bias; only its pooled outputs
#: feed the dense layer.  The small weight keeps the probabilities soft,
#: so the loss of 512 records varies little with the seed (auROC ~0.98).
SCORE_THRESHOLD = 5.0
SCORE_WEIGHT = 0.1
SCORE_DENSE_BIAS = -0.5


def flat(params) -> np.ndarray:
    """The parameters as one vector, in the program's canonical order.  Not
    ``network.flatten_params``, so that the benchmark's own bookkeeping does
    not count in the traced ``network.flatten_s``."""
    return np.concatenate([
        np.ravel(params.conv_filters), np.ravel(params.conv_bias),
        np.ravel(params.dense_weights), np.ravel(params.dense_bias),
    ])


def make_inputs(workload, seed: int, work) -> tuple:
    """The workload's FASTA file and, for scoring, its checkpoint."""
    sim = genome.SimConfig(seq_length=workload.seq_length, n_positive=workload.per_class,
                           n_negative=workload.per_class, seed=seed)
    fasta = work / "dataset.fasta"
    genome.write_fasta(genome.generate_dataset(sim, genome.default_tal1_pwm()), fasta)
    if workload.strategy:
        return fasta, None
    model_config = network.ModelConfig(seq_length=workload.seq_length)
    params = network.init_params(model_config, INIT_SEED)
    params.conv_filters[0] = np.log(genome.default_tal1_pwm().matrix / 0.25)
    params.conv_bias[0] = -SCORE_THRESHOLD
    params.dense_weights[:] = 0.0
    params.dense_weights[0 :: model_config.n_filters] = SCORE_WEIGHT  # filter 0, every pool window
    params.dense_bias[...] = SCORE_DENSE_BIAS
    checkpoint = work / "model.ckpt"
    network.save_checkpoint(params, model_config, checkpoint)
    return fasta, checkpoint


def set_up(workload, seed: int, fasta, checkpoint) -> dict:
    """Everything before the first operation, as ``dcnn train`` and
    ``dcnn evaluate`` do it."""
    records = genome.read_fasta(fasta)
    lengths = {len(r.bases) for r in records}
    if lengths != {workload.seq_length}:
        raise ValueError(f"dataset has lengths {sorted(lengths)}")
    if not workload.strategy:
        # the checkpoint is built, not trained, so every record is held out
        _, scored, _ = pipeline.split(records, pipeline.SplitSpec(0.0, 1.0, 0.0, seed=seed))
        params, model_config = network.load_checkpoint(checkpoint)
        return {"params": params, "model_config": model_config, "records": scored}
    train, test, validation = pipeline.split(records, pipeline.SplitSpec(seed=seed))
    config = training.TrainConfig(
        n_replicas=workload.replicas, strategy=workload.strategy,
        epochs_max=workload.epochs, batch_per_replica=workload.batch_per_replica,
        seed=INIT_SEED, precision="f32", early_stopping=False,
    )
    return {
        "config": config,
        "model_config": network.ModelConfig(seq_length=workload.seq_length),
        "dataset": training.Dataset(train=train, validation=validation, test=test),
    }


class Operations:
    """Runs and checks operations; a raising or failing one counts as failed."""

    def __init__(self, workload, setup):
        self.workload = workload
        self.setup = setup
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None  # the first operation's output, for determinism
        self.reference = None  # float64 probabilities of the checked records
        self.log = []  # per successful operation: wall, sequences, report's wall

    def run_one(self) -> bool:
        """One operation; False if it raised or failed a check."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self._train() if self.workload.strategy else self._score()
            wall = time.perf_counter() - t0
            problems = self._check(out)
        except Exception as exc:  # an operation that raises is a failed one
            self.failed += 1
            self.problems.append(f"operation {self.attempted} raised {exc!r}")
            return False
        if problems:
            self.failed += 1
            self.problems.extend(f"operation {self.attempted}: {p}" for p in problems)
            return False
        self.log.append({"wall_s": wall, "sequences": out["sequences"],
                         "report_total_wall_s": out.get("report_total_wall_s")})
        return True

    def _train(self):
        s = self.setup
        params, report = training.train(s["config"], s["model_config"], s["dataset"])
        last = report.epochs[-1]
        steps = len(s["dataset"].train) // s["config"].global_batch
        return {
            "vec": flat(params), "params": params, "epochs": len(report.epochs),
            "messages": report.total_messages, "steps": steps,
            "sequences": steps * s["config"].global_batch * len(report.epochs),
            "scores": {"loss": last.val_loss, "accuracy": last.val_accuracy,
                       "auroc": last.val_auroc},
            "records": s["dataset"].validation,
            "report_total_wall_s": report.total_wall_seconds,
        }

    def _score(self):
        s = self.setup
        scores = training.evaluate(s["params"], s["records"], s["model_config"],
                                   precision="f32")
        return {"vec": np.array([scores[k] for k in ("loss", "accuracy", "auroc", "auprc")]),
                "params": s["params"], "sequences": len(s["records"]),
                "scores": scores, "records": s["records"]}

    def _check(self, out) -> list:
        w = self.workload
        if self.first is None:
            self.first = out
            self.reference = checks.reference_probs(
                out["params"], out["records"], self.setup["model_config"])
        labels = np.array([r.label for r in out["records"]])
        problems = checks.check_identical(out["vec"], self.first["vec"])
        problems += checks.check_scores(out["scores"], self.reference, labels)
        if w.strategy:
            if out["epochs"] != w.epochs:
                problems.append(f"ran {out['epochs']} epochs, configured {w.epochs}")
            problems += checks.check_messages(
                out["messages"],
                checks.expected_messages(w.strategy, w.replicas, w.epochs, out["steps"]))
        return problems

    def check_invocation(self) -> list:
        """Checks made once per invocation: the gradient on the first batch,
        and data-parallel training against one replica."""
        if not self.workload.strategy or self.first is None:
            return []
        s = self.setup
        config, model_config = s["config"], s["model_config"]
        stream = pipeline.shuffled_stream(s["dataset"].train, config.shuffle_buffer_size,
                                          training.epoch_stream_seed(config.seed, 0))
        first_batch = list(itertools.islice(stream, config.global_batch))
        params = network.init_params(model_config, config.seed)
        batch = pipeline.encode_batch(first_batch)
        _, cache = network.forward(params, batch, model_config)
        grads = network.backward(params, cache, batch.labels, model_config)
        problems = checks.check_gradient(
            network.flatten_grads(grads),
            checks.reference_gradient(params, first_batch, model_config), model_config)
        if config.n_replicas > 1:
            single = training.TrainConfig(
                n_replicas=1, strategy="allreduce", epochs_max=config.epochs_max,
                batch_per_replica=config.global_batch, seed=config.seed,
                precision=config.precision, early_stopping=False)
            single_params, _ = training.train(single, model_config, s["dataset"])
            problems += checks.check_equivalent(self.first["vec"], flat(single_params))
        return problems


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(name, workload, seed, seconds, traced, work):
    """One invocation: (result line, detailed record)."""
    fasta, checkpoint = make_inputs(workload, seed, work)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    def timed_setup():
        t0 = time.perf_counter()
        setup = set_up(workload, seed, fasta, checkpoint)
        setup_times.append(time.perf_counter() - t0)
        return setup

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup = timed_setup()
    if tracer:
        per_layer = tracer.setup_metrics(SETUP_REPEATS)
        tracer.reset()

    ops = Operations(workload, setup)
    ops.run_one()  # warm-up: checked, not timed
    warm_ups = len(ops.log)
    if tracer:
        tracer.reset()
    start = time.perf_counter()
    while True:
        if not tracer:
            timed_setup()
        ops.run_one()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (ops.attempted - 1) > seconds:
            break
    peak = peak_rss_mb()
    rates = [op["sequences"] / op["wall_s"] for op in ops.log[warm_ups:]]
    seq_per_s = statistics.median(rates) if rates else 0.0
    if tracer:
        per_layer.update(tracer.rank_metrics(ops.attempted - 1, workload.processes == 1))
        metrics = {m: {"value": per_layer[m], "unit": unit_of(m)} for m in per_layer_names()}
    else:
        loss = ops.first["scores"]["loss"] if ops.first else 0.0
        metrics = {
            "seq_per_s": {"value": seq_per_s, "unit": "seq/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
            "loss": {"value": float(loss), "unit": "nats"},
        }

    try:
        problems = ops.problems + ops.check_invocation()
    except Exception as exc:  # a check that cannot run is a failed check
        problems = ops.problems + [f"invocation check raised {exc!r}"]
    result = {"correct": not problems and bool(rates), "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "result": result,
        "seq_per_s_traced" if traced else "seq_per_s": seq_per_s,
        "setup_times_s": setup_times,
        "operations": ops.log,  # the first is the untimed warm-up
        "params_sha256": hashlib.sha256(ops.first["vec"].tobytes()).hexdigest()
        if ops.first else None,
        "problems": problems,
    }
    return result, record
