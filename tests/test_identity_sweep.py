"""The bit-identity sweep tool (``tools/identity_sweep.py``): its output
repeats byte for byte, and its case list is exactly the named one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import identity_sweep


@pytest.fixture(scope="module")
def tool():
    return identity_sweep()


def named_cases() -> list:
    strategies, backends = ("allreduce", "ps", "gossip"), ("threads", "processes")
    ids = [f"{s}-n{n}-{b}-{p}" for s in strategies for n in (1, 2, 3) for b in backends
           for p in ("f32", "f64")]
    ids += [f"{s}-{kind}-{b}" for s in strategies for b in backends
            for kind in ("early-stop", "lr1e25")]
    ids += [f"gossip-period2-n{n}-{b}" for n in (2, 3) for b in backends]
    assert len(ids) == 52
    ids += [f"{s}-{kind}-{b}" for s in strategies for b in backends
            for kind in ("nan-loss-step25", "lr1e19")]
    ids += [f"gossip-last-epoch-nan-{b}" for b in backends]
    ids += ["allreduce-n2-batch1-processes", "allreduce-n1-batch7-threads"]
    ids += [f"allreduce-n2-l200-pool{pool}-processes-{p}"
            for pool in ("35s35", "10s4", "9s12") for p in ("f32", "f64")]
    return ids


def test_the_case_list_is_the_named_one(tool):
    assert list(tool.CASES) == named_cases()


def test_the_output_repeats_byte_for_byte(tool):
    # a plain case, a diverging one on forked ranks, and a patched one
    cases = ["allreduce-n2-threads-f64", "ps-lr1e25-processes",
             "gossip-nan-loss-step25-threads"]
    first, second = tool.dumps(tool.sweep(cases)), tool.dumps(tool.sweep(cases))
    assert first == second
    output = json.loads(first)
    assert output["environment"]["numpy"] == np.__version__
    assert output["environment"]["cpu_features"]
    results = output["cases"]
    assert list(results) == sorted(cases)
    assert results["allreduce-n2-threads-f64"]["params_sha256"]
    assert results["ps-lr1e25-processes"]["stop_reason"] == "diverged"
    assert results["gossip-nan-loss-step25-threads"]["last_good_epoch"] == 0


def test_against_lists_the_cases_that_differ(tool):
    results = {"a": {"loss": float("nan")}, "b": {"loss": 1.0}}
    other = {"a": {"loss": float("nan")}, "b": {"loss": 2.0}, "c": {}}
    assert tool.differing(results, other) == ["b", "c"]


def test_against_fails_on_a_metric_but_not_on_transport_totals_alone(
        tool, tmp_path, monkeypatch, capsys):
    entry = {"params_sha256": "00", "total_messages": 10, "total_bytes": 80}
    environment = {"numpy": "2.0", "cpu_features": {"AVX2": True}}
    earlier = {"environment": environment, "cases": {"a": entry, "b": entry}}
    now = {"a": {**entry, "total_messages": 5, "total_bytes": 40}, "b": entry}
    (tmp_path / "earlier.json").write_text(json.dumps(earlier))
    monkeypatch.setattr(tool, "sweep",
                        lambda case_ids: {"environment": environment, "cases": now})
    against = ["--out", str(tmp_path / "now.json"), "--against", str(tmp_path / "earlier.json")]
    assert tool.main(against) == 0
    assert "transport totals differ (not a failure): a" in capsys.readouterr().out
    now["b"] = {**entry, "params_sha256": "01"}
    assert tool.main(against) == 1
    assert "differs: b" in capsys.readouterr().out


def test_against_reads_a_file_that_holds_only_cases(tool, tmp_path, monkeypatch, capsys):
    entry = {"params_sha256": "00"}
    (tmp_path / "earlier.json").write_text(json.dumps({"a": entry}))
    monkeypatch.setattr(tool, "sweep", lambda case_ids: {
        "environment": {"numpy": "2.0", "cpu_features": {}}, "cases": {"a": entry}})
    assert tool.main(["--out", str(tmp_path / "now.json"),
                      "--against", str(tmp_path / "earlier.json")]) == 0
    assert "0 of 1 cases differ" in capsys.readouterr().out


def test_an_environment_that_differs_is_named_but_not_a_failure(tool, tmp_path, monkeypatch,
                                                                capsys):
    cases = {"a": {"params_sha256": "00"}}
    earlier = {"environment": {"numpy": "2.0", "cpu_features": {"AVX2": True}},
               "cases": cases}
    (tmp_path / "earlier.json").write_text(json.dumps(earlier))
    monkeypatch.setattr(tool, "sweep", lambda case_ids: {
        "environment": {"numpy": "2.0", "cpu_features": {"AVX2": False}}, "cases": cases})
    assert tool.main(["--out", str(tmp_path / "now.json"),
                      "--against", str(tmp_path / "earlier.json")]) == 0
    out = capsys.readouterr().out
    assert "environment differs (not a failure): cpu_features" in out
    assert "numpy" not in out.replace(str(tmp_path), "")


def test_the_batch7_case_ends_its_epochs_inside_a_plan_block(tool):
    # training plans training.PLAN_BYTES of steps at a time; this case's
    # epoch must take more than one block and end inside the last
    from dcnn import network, training

    kwargs, _patches, model = tool.CASES["allreduce-n1-batch7-threads"]
    block = training.PLAN_BYTES // network.plan_nbytes(model, kwargs["batch_per_replica"])
    steps = len(tool.dataset(model.seq_length).train) // kwargs["batch_per_replica"]
    assert 1 < block < steps and steps % block


#: Sweep cases at f32 that run the planned conv's gather and scatter on
#: threads and on forked ranks, with the default pool and an overlapping one
SIMD_CASES = ["allreduce-n2-threads-f32", "ps-n2-processes-f32", "gossip-n3-threads-f32",
              "allreduce-n2-l200-pool10s4-processes-f32"]


def _sweep_in_subprocess(tool, env):
    code = ("import sys; sys.path.insert(0, {tests!r}); from helpers import identity_sweep; "
            "tool = identity_sweep(); print(tool.dumps(tool.sweep({cases!r})))")
    code = code.format(tests=str(Path(__file__).resolve().parent), cases=SIMD_CASES)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_f32_cases_keep_their_bits_without_avx512(tool):
    # NumPy picks its SIMD loops at run time; NPY_DISABLE_CPU_FEATURES turns
    # the AVX-512 ones off for one process.  The planned gather (take and
    # add.reduce over the tap axis) and the scatter (add.at) must give the
    # same f32 bits either way.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [name for name, on in __cpu_features__.items()
              if on and (name.startswith("AVX512") or name == "X86_V4")]
    targets = set(avx512) & set(__cpu_dispatch__)
    if not targets:
        pytest.skip("NumPy dispatches to no AVX-512 target on this CPU")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    with_avx512 = json.loads(_sweep_in_subprocess(tool, env))
    without = json.loads(_sweep_in_subprocess(
        tool, {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}))
    # the switch took effect: NumPy dispatches to no AVX-512 target
    assert not any(without["environment"]["cpu_features"][t] for t in targets)
    assert with_avx512["cases"] == without["cases"]
    assert set(without["cases"]) == set(SIMD_CASES)
