"""The traced benchmark (``perfbench/tracing.py``) wraps dcnn functions by
module and name.  A renamed or deleted target would break only a traced
benchmark run, so every name it wraps is checked here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
# the targets Tracer.install wraps besides TIMED and COLLECTIVES
LOOP_TARGETS = (
    ("pipeline", "encode_batch"),
    ("pipeline", "shuffled_stream"),
    ("training", "_worker_loop"),
    ("training", "_server_loop"),
    ("training", "train"),
)
TARGETS = sorted(
    {(module, name) for module, name, _metric in tracing.TIMED + tracing.COLLECTIVES}
    | set(LOOP_TARGETS)
)


@pytest.mark.parametrize("module,name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_resolves(module, name):
    target = getattr(importlib.import_module(f"dcnn.{module}"), name, None)
    assert callable(target), f"dcnn.{module}.{name} is wrapped by the tracer but missing"


def test_worker_loop_takes_the_rank_first():
    # the tracer names a worker's role after its first positional argument
    from dcnn.training import _worker_loop

    assert next(iter(inspect.signature(_worker_loop).parameters)) == "rank"


def test_train_runs_the_loops_it_finds_by_name_at_call_time(monkeypatch):
    # the tracer replaces training._worker_loop and _server_loop by name
    # after import; train() must start its ranks through the replacements
    from dcnn import training
    from dcnn.genome import SimConfig, default_tal1_pwm, generate_dataset
    from dcnn.network import ModelConfig

    roles = []

    def recording(fn, role_of):
        def wrapper(*args, **kwargs):
            roles.append(role_of(args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "_worker_loop",
                        recording(training._worker_loop, lambda args: f"r{args[0]}"))
    monkeypatch.setattr(training, "_server_loop",
                        recording(training._server_loop, lambda args: "server"))
    records = generate_dataset(SimConfig(seq_length=200, n_positive=20, n_negative=20,
                                         seed=1), default_tal1_pwm())
    training.train(
        training.TrainConfig(n_replicas=2, strategy="ps", epochs_max=1,
                             batch_per_replica=4, backend="threads"),
        ModelConfig(seq_length=200, n_filters=2, filter_width=10, pool_window=10,
                    pool_stride=10),
        training.Dataset(train=records[:30], validation=records[30:]),
    )
    assert sorted(roles) == ["r0", "r1", "server"]


def test_tracer_patches_the_class_that_links_hand_out():
    # Tracer.install wraps send/recv on transport.ProcessEndpoint itself
    import numpy as np

    from dcnn import transport

    for method in ("send", "recv"):
        assert callable(getattr(transport.ProcessEndpoint, method, None))
    links = transport.ProcessLinks(2, np.float32)
    try:
        assert type(links.endpoint(0)) is transport.ProcessEndpoint
    finally:
        links.close()
