"""Per-layer accounting for the traced benchmark run.

``Tracer.install`` wraps the public functions of each dcnn module from
the outside, wherever a module holds a reference to them, before any
worker is forked, so workers and the parameter server inherit the
wrappers.  Each process keeps its own totals per role (``r0``, ``r1``,
``server``, or ``main`` for the benchmark process outside any worker
loop).  A forked process sends its totals to the parent through a queue
when its loop ends.  Times are inclusive: ``network.adam_step_s`` holds
the flatten calls made inside Adam, and those also count in
``network.flatten_s``.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import sys
import time
from collections import defaultdict

# (module, function, metric): time spent in the call, summed
TIMED = (
    ("genome", "read_fasta", "genome.read_fasta_s"),
    ("pipeline", "split", "pipeline.split_s"),
    ("network", "load_checkpoint", "network.load_checkpoint_s"),
    ("kernels", "conv1d_forward", "kernels.conv1d_forward_s"),
    ("kernels", "conv1d_backward", "kernels.conv1d_backward_s"),
    ("kernels", "maxpool1d_forward", "kernels.maxpool_forward_s"),
    ("kernels", "maxpool1d_backward", "kernels.maxpool_backward_s"),
    ("kernels", "dense_forward", "kernels.dense_s"),
    ("kernels", "dense_backward", "kernels.dense_s"),
    ("kernels", "relu", "kernels.activation_s"),
    ("kernels", "relu_grad", "kernels.activation_s"),
    ("kernels", "sigmoid", "kernels.activation_s"),
    ("network", "forward", "network.forward_s"),
    ("network", "backward", "network.backward_s"),
    ("network", "bce_loss", "network.bce_loss_s"),
    ("network", "adam_step", "network.adam_step_s"),
    ("network", "flatten_params", "network.flatten_s"),
    ("network", "flatten_grads", "network.flatten_s"),
    ("network", "unflatten_params", "network.flatten_s"),
    ("network", "unflatten_grads", "network.flatten_s"),
    ("pipeline", "shard", "pipeline.shard_s"),
    ("training", "evaluate", "training.evaluate_s"),
    ("metrics", "auroc", "metrics.auroc_s"),
    ("metrics", "auprc", "metrics.auprc_s"),
    ("metrics", "accuracy", "metrics.accuracy_s"),
    ("collective", "mean_ascending", "collective.server_mean_s"),
)
COLLECTIVES = (
    ("collective", "ring_all_reduce", "collective.ring_all_reduce"),
    ("collective", "ps_worker_round", "collective.ps_worker_round"),
)

#: Metrics measured once per set-up, in the benchmark process.
SETUP_METRICS = ("genome.read_fasta_s", "pipeline.split_s", "network.load_checkpoint_s")
#: Metrics measured per process; each is reported summed over every
#: process and per role as ``<name>.r0``, ``<name>.r1``, ``<name>.server``.
RANK_METRICS = tuple(
    dict.fromkeys(
        [m for _, _, m in TIMED if m not in SETUP_METRICS]
        + ["pipeline.shuffle_s", "pipeline.encode_batch_s", "pipeline.encode_batch_seqs"]
        + [f"{m}{suffix}" for _, _, m in COLLECTIVES for suffix in ("_s", "_calls")]
        + ["transport.messages", "transport.bytes", "transport.send_s",
           "transport.recv_wait_s", "training.halt_sync_s"]
    )
)
ROLES = ("r0", "r1", "server")


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = list(SETUP_METRICS) + ["training.spawn_s"]
    for metric in RANK_METRICS:
        names.append(metric)
        names.extend(f"{metric}.{role}" for role in ROLES)
    return names


def unit_of(metric: str) -> str:
    base = metric.removesuffix(".server").removesuffix(".r0").removesuffix(".r1")
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_seqs", "count"),
                         ("messages", "count"), ("bytes", "B")):
        if base.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")


class Tracer:
    def __init__(self):
        self.parent = os.getpid()
        self.queue = mp.get_context("fork").SimpleQueue()
        self.totals = defaultdict(float)  # (role, metric) -> value
        self.loop_s = {}  # role -> wall of its worker or server loop
        self.role = "main"
        self.in_collective = 0

    def add(self, metric, value):
        self.totals[(self.role, metric)] += value

    # -- wrappers ---------------------------------------------------------

    def _timed(self, fn, metric):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(metric, time.perf_counter() - t0)

        return wrapper

    def _collective(self, fn, metric):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_collective += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(metric + "_s", time.perf_counter() - t0)
                self.add(metric + "_calls", 1)
                self.in_collective -= 1

        return wrapper

    def _encode(self, fn):
        @functools.wraps(fn)
        def wrapper(records, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(records, *args, **kwargs)
            finally:
                self.add("pipeline.encode_batch_s", time.perf_counter() - t0)
                self.add("pipeline.encode_batch_seqs", len(records))

        return wrapper

    def _shuffle(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self.add("pipeline.shuffle_s", time.perf_counter() - t0)
                yield item

        return wrapper

    def _send(self, fn):
        @functools.wraps(fn)
        def wrapper(endpoint, dst, payload):
            t0 = time.perf_counter()
            try:
                return fn(endpoint, dst, payload)
            finally:
                self.add("transport.send_s", time.perf_counter() - t0)
                self.add("transport.messages", 1)
                self.add("transport.bytes", payload.nbytes)

        return wrapper

    def _recv(self, fn):
        @functools.wraps(fn)
        def wrapper(endpoint, src):
            t0 = time.perf_counter()
            try:
                return fn(endpoint, src)
            finally:
                waited = time.perf_counter() - t0
                self.add("transport.recv_wait_s", waited)
                if not self.in_collective and self.role != "server":
                    self.add("training.halt_sync_s", waited)

        return wrapper

    def _loop(self, fn, role_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            role = role_of(args)
            child = os.getpid() != self.parent
            if child:
                self.totals.clear()  # drop what the fork copied from the parent
            outer, self.role = self.role, role
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.role = outer
                if child:
                    self.totals[(role, "loop_s")] = time.perf_counter() - t0
                    self.queue.put(dict(self.totals))
                else:
                    self.loop_s[role] = time.perf_counter() - t0

        return wrapper

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self.collect()
                slowest = max(self.loop_s.values(), default=0.0)
                self.totals[("main", "training.spawn_s")] += wall - slowest
                self.loop_s.clear()

        return wrapper

    # -- installation and read-out ----------------------------------------

    def install(self):
        """Replace each target in every dcnn module that refers to it."""
        from dcnn import transport

        def role_of_worker(args):
            return f"r{args[0]}"

        targets = [(m, f, self._timed, (metric,)) for m, f, metric in TIMED]
        targets += [(m, f, self._collective, (metric,)) for m, f, metric in COLLECTIVES]
        targets += [
            ("pipeline", "encode_batch", self._encode, ()),
            ("pipeline", "shuffled_stream", self._shuffle, ()),
            ("training", "_worker_loop", self._loop, (role_of_worker,)),
            ("training", "_server_loop", self._loop, (lambda args: "server",)),
            ("training", "train", self._train, ()),
        ]
        modules = [mod for name, mod in sys.modules.items()
                   if name == "dcnn" or name.startswith("dcnn.")]
        for module_name, fn_name, make, extra in targets:
            original = getattr(sys.modules[f"dcnn.{module_name}"], fn_name)
            wrapped = make(original, *extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        endpoint = transport.ProcessEndpoint
        endpoint.send = self._send(endpoint.send)
        endpoint.recv = self._recv(endpoint.recv)

    def collect(self):
        """Merge the totals that forked processes sent back."""
        while not self.queue.empty():
            for (role, metric), value in self.queue.get().items():
                if metric == "loop_s":
                    self.loop_s[role] = value
                else:
                    self.totals[(role, metric)] += value

    def reset(self):
        self.collect()
        self.totals.clear()
        self.loop_s.clear()

    def _total(self, metric) -> float:
        return sum(v for (_, m), v in self.totals.items() if m == metric)

    def setup_metrics(self, setups: int) -> dict:
        """Set-up metrics, per set-up."""
        return {metric: self._total(metric) / setups for metric in SETUP_METRICS}

    def rank_metrics(self, ops: int, single_process: bool) -> dict:
        """Per-operation metrics, summed over processes and per role.  In a
        single-process workload all of the process counts as ``r0``; a role
        that did not run reads 0."""
        by_role = defaultdict(float)
        for (role, metric), value in self.totals.items():
            by_role[("r0" if single_process and role == "main" else role, metric)] += value
        out = {"training.spawn_s": self._total("training.spawn_s") / ops}
        for metric in RANK_METRICS:
            out[metric] = self._total(metric) / ops
            for role in ROLES:
                out[f"{metric}.{role}"] = by_role[(role, metric)] / ops
        return out
