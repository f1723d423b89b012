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
