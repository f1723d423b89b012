"""The bit-identity sweep tool (``tools/identity_sweep.py``): its output
repeats byte for byte, and its case list is exactly the named one."""

import json

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
    results = json.loads(first)
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
    earlier = {"a": entry, "b": entry}
    now = {"a": {**entry, "total_messages": 5, "total_bytes": 40}, "b": entry}
    (tmp_path / "earlier.json").write_text(json.dumps(earlier))
    monkeypatch.setattr(tool, "sweep", lambda case_ids: now)
    against = ["--out", str(tmp_path / "now.json"), "--against", str(tmp_path / "earlier.json")]
    assert tool.main(against) == 0
    assert "transport totals differ (not a failure): a" in capsys.readouterr().out
    now["b"] = {**entry, "params_sha256": "01"}
    assert tool.main(against) == 1
    assert "differs: b" in capsys.readouterr().out
