#!/usr/bin/env python3
"""Bit-identity sweep: run a fixed list of named training cases on the
``dcnn`` package found on ``PYTHONPATH`` and write down, per case, every
output that must repeat bit for bit.

Run it on two versions of the program on the same machine, then compare:

    PYTHONPATH=../parent/src python3 tools/identity_sweep.py --out parent.json
    PYTHONPATH=src python3 tools/identity_sweep.py --out change.json --against parent.json

For each case the JSON holds the sha256 of the final parameters (null for
a run that diverged), every report field except the wall-clock ones (a
divergence's partial report included, with its last good epoch) and the
transport totals ``total_messages``/``total_bytes``.  ``--against FILE``
prints the id of every case whose entry differs from FILE's, or that only
one of the two files has, and exits 1 if there is any.  A case whose
only differences are the transport totals is printed on a line of its
own and does not fail the comparison: a protocol change moves those
totals on purpose, and the tests pin their closed forms.

The cases are the determinism contract's sweep: strategy x N in {1,2,3} x
backend x precision; early stopping and divergence at learning rate 1e25
for each strategy and backend; gossip period 2 at N = 2 and 3 on both
backends.  Named extra cases inject faults by patching module attributes
by name, with the patches ``tests/test_training.py`` uses: a NaN loss on rank 1 at its 25th step, NaN
validation probabilities in gossip's last epoch, and learning rate 1e19,
at which Adam's second moment overflows.

A committed golden file would not carry over between machines (bits may
differ between NumPy builds), so the two versions run on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np

import dcnn
from dcnn import training
from dcnn.errors import TrainingDivergedError
from dcnn.genome import SimConfig, default_tal1_pwm, generate_dataset
from dcnn.network import ModelConfig, flatten_params
from dcnn.pipeline import SplitSpec, split

STRATEGIES = ("allreduce", "ps", "gossip")
BACKENDS = ("threads", "processes")
WALL_FIELDS = ("wall_seconds", "sequences_per_second")
TRANSPORT_FIELDS = ("total_messages", "total_bytes")

#: 200 records at L = 120: 140 train, 40 validation, 20 test; a replica
#: takes 4 records a step, so N = 2 runs 17 steps an epoch
SIM = SimConfig(seq_length=120, n_positive=100, n_negative=100, seed=3)
MODEL = ModelConfig(seq_length=120)
BASE = dict(batch_per_replica=4, epochs_max=3, early_stopping=False, seed=3)


def nan_loss_at_step(strategy, step, ranks):
    """Patches that make the local loss of ``ranks`` NaN at their
    ``step``-th step (from 1)."""
    replica_class = training._REPLICAS[strategy]
    real_step = replica_class.step

    def step_with_nan(self, loss):
        self.calls = getattr(self, "calls", 0) + 1
        if self.rank in ranks and self.calls == step:
            loss = float("nan")
        return real_step(self, loss)

    return [(replica_class, "step", step_with_nan)]


def nan_scores_in_epoch(epoch):
    """Patches that make rank 0's validation probabilities NaN in
    ``epoch`` (from 0)."""
    real_scores = training.scores
    calls = []

    def scores(probs, labels):
        if len(calls) == epoch:
            probs = np.full_like(probs, np.nan)
        calls.append(None)
        return real_scores(probs, labels)

    return [(training, "scores", scores)]


def _cases() -> dict:
    """case id -> (TrainConfig keyword arguments, patch factory or None)."""
    cases = {}
    for strategy in STRATEGIES:
        for n in (1, 2, 3):
            for backend in BACKENDS:
                for precision in ("f32", "f64"):
                    cases[f"{strategy}-n{n}-{backend}-{precision}"] = (
                        dict(strategy=strategy, n_replicas=n, backend=backend,
                             precision=precision), None)
    for strategy in STRATEGIES:
        for backend in BACKENDS:
            cases[f"{strategy}-early-stop-{backend}"] = (
                dict(strategy=strategy, n_replicas=2, backend=backend, epochs_max=8,
                     learning_rate=0.1, early_stopping=True,
                     early_stop=training.EarlyStopConfig(patience=1, min_delta=0.0)),
                None)
            cases[f"{strategy}-lr1e25-{backend}"] = (
                dict(strategy=strategy, n_replicas=2, backend=backend,
                     learning_rate=1e25), None)
    for n in (2, 3):
        for backend in BACKENDS:
            cases[f"gossip-period2-n{n}-{backend}"] = (
                dict(strategy="gossip", n_replicas=n, backend=backend, gossip_period=2),
                None)
    # the named extra cases
    for strategy in STRATEGIES:
        for backend in BACKENDS:
            cases[f"{strategy}-nan-loss-step25-{backend}"] = (
                dict(strategy=strategy, n_replicas=2, backend=backend),
                lambda strategy=strategy: nan_loss_at_step(strategy, 25, ranks=(1,)))
            cases[f"{strategy}-lr1e19-{backend}"] = (
                dict(strategy=strategy, n_replicas=2, backend=backend,
                     learning_rate=1e19), None)
    for backend in BACKENDS:
        cases[f"gossip-last-epoch-nan-{backend}"] = (
            dict(strategy="gossip", n_replicas=2, backend=backend),
            lambda: nan_scores_in_epoch(2))
    return cases


CASES = _cases()


def dataset() -> training.Dataset:
    train, test, validation = split(generate_dataset(SIM, default_tal1_pwm()),
                                    SplitSpec(seed=3))
    return training.Dataset(train=train, validation=validation, test=test)


def _report_fields(report) -> dict:
    return {
        "config": report.config,
        "epochs": [{k: v for k, v in vars(row).items() if k not in WALL_FIELDS}
                   for row in report.epochs],
        "stop_reason": report.stop_reason,
        "total_messages": report.total_messages,
        "total_bytes": report.total_bytes,
    }


def run_case(case_id: str, data: training.Dataset) -> dict:
    kwargs, make_patches = CASES[case_id]
    config = training.TrainConfig(**{**BASE, **kwargs})
    # silence the overflow warnings that diverging cases raise on every rank
    with warnings.catch_warnings(), ExitStack() as patches:
        warnings.simplefilter("ignore", RuntimeWarning)
        for obj, name, value in make_patches() if make_patches else []:
            patches.enter_context(mock.patch.object(obj, name, value))
        try:
            params, report = training.train(config, MODEL, data)
        except TrainingDivergedError as exc:
            return {"params_sha256": None, "last_good_epoch": exc.last_good_epoch,
                    **_report_fields(exc.partial_report)}
    digest = hashlib.sha256(flatten_params(params).tobytes()).hexdigest()
    return {"params_sha256": digest, **_report_fields(report)}


def sweep(case_ids) -> dict:
    data = dataset()
    return {case_id: run_case(case_id, data) for case_id in case_ids}


def dumps(results: dict) -> str:
    return json.dumps(results, indent=1, sort_keys=True) + "\n"


def differing(results: dict, other: dict, ignore=()) -> list:
    """Ids of the cases whose entries differ in a field not in ``ignore``,
    or that one side lacks; entries compare as JSON text, so NaN equals
    NaN."""
    def text(entry):
        if entry is not None:
            entry = {k: v for k, v in entry.items() if k not in ignore}
        return json.dumps(entry, sort_keys=True)

    ids = list(results) + [case_id for case_id in other if case_id not in results]
    return [case_id for case_id in ids
            if text(results.get(case_id)) != text(other.get(case_id))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--against", help="an earlier output to compare with")
    args = parser.parse_args(argv)
    results = sweep(CASES)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps(results))
    print(f"{len(results)} cases of {dcnn.__file__} written to {args.out}")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        other = json.load(fh)
    changed = differing(results, other, ignore=TRANSPORT_FIELDS)
    for case_id in changed:
        print(f"differs: {case_id}")
    for case_id in differing(results, other):
        if case_id not in changed:
            print(f"transport totals differ (not a failure): {case_id}")
    print(f"{len(changed)} of {len(set(results) | set(other))} cases differ "
          f"from {args.against}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
