"""Command-line behavior: artifact layout, config merging, exit codes,
and the error messages the interface promises."""

import json
import struct
from dataclasses import asdict, fields

import pytest

from dcnn import cli
from dcnn.cli import _merge_settings, _resolve_batch, build_parser, main
from dcnn.errors import ValidationError
from dcnn.genome import SimConfig, read_fasta
from dcnn.network import ModelConfig
from dcnn.pipeline import SplitSpec
from dcnn.training import EarlyStopConfig, TrainConfig
from helpers import BAD_MATRIX_PWMS

TINY_MODEL = {
    "n_filters": 6,
    "filter_width": 10,
    "pool_window": 10,
    "pool_stride": 10,
}


def write_config(tmp_path, **extra):
    payload = dict(TINY_MODEL)
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    config = write_config(
        root, epochs=2, early_stopping=False, shuffle_buffer_size=50
    )
    assert (
        main(
            [
                "generate", "--out", str(out), "--seq-length", "200",
                "--n-positive", "200", "--n-negative", "200", "--seed", "5",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train", "--config", config, "--dataset",
                str(out / "dataset.fasta"), "--out", str(out), "--seed", "5",
            ]
        )
        == 0
    )
    return {"out": out, "config": config, "root": root}


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_counted_records(tmp_path, capsys):
    out = tmp_path / "g"
    code = main(
        [
            "generate", "--out", str(out), "--seq-length", "150",
            "--n-positive", "2", "--n-negative", "2", "--seed", "1",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "4 records" in stdout
    assert "2 positive / 2 negative" in stdout
    records = read_fasta(out / "dataset.fasta")
    assert len(records) == 4
    assert sum(r.label for r in records) == 2


def test_generate_missing_pwm_names_the_path(tmp_path, capsys):
    code = main(
        ["generate", "--out", str(tmp_path), "--pwm", "/nope/absent.pwm"]
    )
    assert code == 2
    assert "/nope/absent.pwm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_artifacts_and_report_contents(workspace):
    out = workspace["out"]
    for name in ("model.ckpt", "report.json", "curves.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "max_epochs"
    assert len(report["epochs"]) == 2
    # the effective merged configuration rides inside the report
    eff = report["effective_config"]
    assert eff["n_filters"] == 6
    assert eff["epochs"] == 2
    assert eff["seed"] == 5
    assert "final_test" in report
    curves = (out / "curves.csv").read_text().strip().splitlines()
    assert len(curves) == 3


def test_report_json_is_the_report_dataclass(workspace, tmp_path, monkeypatch):
    reports = []
    real_train = cli.train

    def recording_train(*args):
        params, report = real_train(*args)
        reports.append(report)
        return params, report

    monkeypatch.setattr(cli, "train", recording_train)
    out = tmp_path / "run"
    assert main(["train", "--config", workspace["config"], "--dataset",
                 str(workspace["out"] / "dataset.fasta"), "--out", str(out),
                 "--workers", "2", "--global-batch", "32", "--backend", "threads"]) == 0
    loaded = json.loads((out / "report.json").read_text())
    fields = asdict(reports[0])
    assert list(loaded) == list(fields) + ["effective_config", "final_test"]
    assert {key: loaded[key] for key in fields} == json.loads(json.dumps(fields))


def test_evaluate_after_train_matches_report(workspace, capsys):
    out = workspace["out"]
    code = main(
        [
            "evaluate", "--config", workspace["config"], "--checkpoint",
            str(out / "model.ckpt"), "--dataset", str(out / "dataset.fasta"),
            "--out", str(out), "--seed", "5",
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("loss", "accuracy", "auroc", "auprc"):
        assert metrics[key] == report["final_test"][key], key
    assert metrics["split"] == "test"


def test_indivisible_global_batch_is_a_config_error(workspace, capsys):
    code = main(
        [
            "train", "--dataset", str(workspace["out"] / "dataset.fasta"),
            "--workers", "3", "--global-batch", "64",
        ]
    )
    assert code == 2
    assert "divisible by the number of replicas" in capsys.readouterr().err


def test_resolve_batch_rules():
    assert _resolve_batch(3, 192, None) == 64
    assert _resolve_batch(3, 192, 64) == 64
    with pytest.raises(Exception, match="conflicts"):
        _resolve_batch(3, 192, 32)
    assert _resolve_batch(3, None, None) == 64  # default per-replica batch
    with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
        _resolve_batch(0, 8, None)
    with pytest.raises(ValidationError, match="global_batch must be >= 1, got 0"):
        _resolve_batch(2, 0, None)


def test_train_workers_zero_is_a_config_error(workspace, capsys):
    code = main(
        [
            "train", "--dataset", str(workspace["out"] / "dataset.fasta"),
            "--workers", "0", "--global-batch", "8",
        ]
    )
    assert code == 2
    assert "workers must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("key, value", [
    ("learning_rate", -1.0), ("learning_rate", 0), ("learning_rate", float("nan")),
    ("shuffle_buffer_size", 0),
])
def test_bad_optimizer_settings_are_config_errors(workspace, tmp_path, capsys,
                                                  command, key, value):
    config = write_config(tmp_path, **{key: value})
    argv = [command, "--config", config, "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(tmp_path),
            "--epochs", "1", "--global-batch", "32", "--backend", "threads"]
    if command == "train":
        argv += ["--workers", "2"]
    else:
        argv += ["--workers-list", "1,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # named by the config, before any rank or benchmark row starts
    assert captured.err.startswith(f"error: {key} must be")
    assert "[" not in captured.out
    assert not (tmp_path / "benchmark.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["train", "benchmark"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_epochs_zero_names_the_epochs_key(workspace, tmp_path, capsys, command, source):
    config = write_config(tmp_path, **({"epochs": 0} if source == "config" else {}))
    argv = [command, "--config", config, "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(tmp_path),
            "--global-batch", "32", "--backend", "threads"]
    if source == "flag":
        argv += ["--epochs", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # the key the user set, not the TrainConfig field (epochs_max)
    assert captured.err == "error: epochs must be >= 1, got 0\n"
    assert "[" not in captured.out
    assert not (tmp_path / "benchmark.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_3_with_partial_report(workspace, tmp_path, capsys):
    out = tmp_path / "div"
    code = main(
        [
            "train", "--config", workspace["config"], "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--learning-rate", "1e25",
        ]
    )
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["stop_reason"] == "diverged"
    assert not (out / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_writes_table_and_rows(workspace, tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(
        [
            "benchmark", "--config", workspace["config"], "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--workers-list", "1,2", "--epochs", "1", "--global-batch", "32",
            "--backend", "threads", "--seed", "5",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "speedup" in stdout
    rows = (out / "benchmark.csv").read_text().strip().splitlines()
    assert rows[0].startswith("workers,strategy,wall_s,speedup")
    assert len(rows) == 3
    assert json.loads((out / "benchmark.json").read_text())[
        "effective_config"
    ]["global_batch"] == 32


def test_benchmark_exit_0_when_any_row_survives(workspace, tmp_path, capsys):
    out = tmp_path / "bench2"
    code = main(
        [
            "benchmark", "--config", workspace["config"], "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--workers-list", "1,5", "--epochs", "1", "--global-batch", "32",
            "--backend", "threads", "--seed", "5",
        ]
    )
    assert code == 0
    assert "divisible" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, named", [
    ("--precision", "f16", "'f16'"),
    ("--strategy", "allreduce,pss", "'pss'"),  # not even the allreduce rows train
])
def test_benchmark_bad_setting_trains_no_row(workspace, tmp_path, capsys,
                                             flag, value, named):
    out = tmp_path / "bad"
    code = main(
        [
            "benchmark", "--config", workspace["config"], "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--workers-list", "1,2", "--epochs", "1", "--global-batch", "32",
            "--backend", "threads", flag, value,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "[" not in captured.out  # no row was trained
    assert not (out / "benchmark.csv").exists()


def test_benchmark_split_smaller_than_global_batch_fails_once(workspace, tmp_path,
                                                               capsys):
    out = tmp_path / "small"
    code = main(
        [
            "benchmark", "--config", workspace["config"], "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--workers-list", "1,2", "--strategy", "allreduce,ps", "--epochs", "1",
            "--global-batch", "512", "--backend", "threads",
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    # one error line, before the first row of the first strategy
    assert captured.err == (
        "error: training split of 280 records is smaller than one global batch (512)\n"
    )
    assert captured.out == ""
    assert not (out / "benchmark.csv").exists()


def test_benchmark_bad_workers_list(workspace, capsys):
    code = main(
        [
            "benchmark", "--dataset", str(workspace["out"] / "dataset.fasta"),
            "--workers-list", "1,x",
        ]
    )
    assert code == 2
    assert "comma-separated integers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_rejects_mismatched_sequence_length(workspace, tmp_path, capsys):
    other = tmp_path / "short"
    assert (
        main(
            [
                "generate", "--out", str(other), "--seq-length", "150",
                "--n-positive", "20", "--n-negative", "20", "--seed", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        [
            "evaluate", "--checkpoint", str(workspace["out"] / "model.ckpt"),
            "--dataset", str(other / "dataset.fasta"), "--out", str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "200" in err and "150" in err


def test_evaluate_single_class_prints_undefined(workspace, tmp_path, capsys):
    neg = tmp_path / "neg"
    assert (
        main(
            [
                "generate", "--out", str(neg), "--seq-length", "200",
                "--n-positive", "0", "--n-negative", "60", "--seed", "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = main(
        [
            "evaluate", "--config", workspace["config"], "--checkpoint",
            str(workspace["out"] / "model.ckpt"), "--dataset",
            str(neg / "dataset.fasta"), "--out", str(neg), "--split", "all",
        ]
    )
    assert code == 0
    assert "auroc=undefined" in capsys.readouterr().out
    metrics = json.loads((neg / "metrics.json").read_text())
    assert metrics["auroc"] is None and metrics["auprc"] is None


@pytest.mark.parametrize("command", ["generate", "train", "benchmark", "evaluate"])
def test_negative_seed_is_a_config_error(workspace, tmp_path, capsys, command):
    dataset = str(workspace["out"] / "dataset.fasta")
    argv = {
        "generate": ["--seq-length", "150", "--n-positive", "2", "--n-negative", "2"],
        "train": ["--config", workspace["config"], "--dataset", dataset,
                  "--workers", "2", "--backend", "threads"],
        "benchmark": ["--config", workspace["config"], "--dataset", dataset,
                      "--workers-list", "1,2", "--global-batch", "32",
                      "--backend", "threads"],
        "evaluate": ["--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--dataset", dataset],
    }[command]
    assert main([command, *argv, "--out", str(tmp_path), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""  # no rank or benchmark row started
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blob, line", [
    (">seq_0 label=0 motifs=none\nACGTé\n".encode("utf-8"), 2),  # in a body
    (b">seq_\xff label=0 motifs=none\nACGT\n", 1),  # in a header's id
])
def test_fasta_bytes_outside_ascii_are_a_parse_error(tmp_path, capsys, blob, line):
    path = tmp_path / "bad.fasta"
    path.write_bytes(blob)
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}: ")


def test_fasta_motif_position_past_the_int_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "long.fasta"
    path.write_bytes(b">a label=1 motifs=" + b"1" * 5000 + b"\nACGT\n")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:1: motif position has too many digits to read\n")


def test_pwm_bytes_outside_ascii_are_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.pwm"
    path.write_bytes(b"#PWM TAL1\xff 1\n0.25 0.25 0.25 0.25\n")
    assert main(["generate", "--pwm", str(path), "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: byte outside ASCII\n"


@pytest.mark.parametrize("text,line,message", BAD_MATRIX_PWMS)
def test_a_pwm_matrix_at_fault_exits_2_naming_its_line(tmp_path, capsys, text, line,
                                                        message):
    path = tmp_path / "bad.pwm"
    path.write_text(text)
    assert main(["generate", "--pwm", str(path), "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


def test_undecodable_checkpoint_tensor_name_is_a_checkpoint_error(workspace, tmp_path,
                                                                   capsys):
    blob = bytearray((workspace["out"] / "model.ckpt").read_bytes())
    blob[10] = 0xFF  # the first tensor name's first byte: after magic, version, length
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    code = main(["evaluate", "--checkpoint", str(bad), "--dataset",
                 str(workspace["out"] / "dataset.fasta"), "--out", str(tmp_path / "e")])
    assert code == 2
    assert capsys.readouterr().err == "error: tensor name at byte 10 is not UTF-8\n"


def test_a_nan_in_the_checkpoints_model_config_exits_2(workspace, tmp_path, capsys):
    blob = bytearray((workspace["out"] / "model.ckpt").read_bytes())
    # n_filters, the model_config tensor's first entry: after magic,
    # version, name length, "model_config", rank and one dim
    blob[27:31] = struct.pack("<f", float("nan"))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    code = main(["evaluate", "--checkpoint", str(bad), "--dataset",
                 str(workspace["out"] / "dataset.fasta"), "--out", str(tmp_path / "e")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: model_config field n_filters is nan, not an integer\n")


def test_corrupted_checkpoint_message(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"this is not the right file at all")
    code = main(
        [
            "evaluate", "--checkpoint", str(bad), "--dataset",
            str(workspace["out"] / "dataset.fasta"),
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    assert "not a checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config file handling and argparse behavior

@pytest.mark.parametrize("key", sorted(k for k, s in cli.SETTINGS.items() if s.fills))
def test_defaults_equal_the_dataclass_defaults_they_restate(key):
    # a setting takes its first filled field's default, so the others
    # (seed's, seq_length's) must agree with it, and each field's type
    # is the one the config file checks
    setting = cli.SETTINGS[key]
    for cls, name in setting.fills:
        field = {f.name: f for f in fields(cls)}[name]
        assert setting.default == field.default, (key, cls.__name__, name)
        assert type(field.default) is setting.kind, (key, cls.__name__, name)
        assert field.type in (setting.kind, setting.kind.__name__), (key, cls.__name__, name)


def test_every_config_field_is_filled_by_a_setting_or_given(tmp_path, monkeypatch):
    given = {}
    real_build = cli._build

    def recording_build(cls, settings, **kwargs):
        given.setdefault(cls, set()).update(kwargs)
        return real_build(cls, settings, **kwargs)

    monkeypatch.setattr(cli, "_build", recording_build)
    settings = {**cli.DEFAULTS, "_explicit": set(), "out": str(tmp_path),
                "seq_length": 100, "n_positive": 1, "n_negative": 1}
    assert cli.cmd_generate(settings) == 0
    cli._model_config(settings, 100)
    cli._split_dataset(settings, read_fasta(tmp_path / "dataset.fasta"))
    cli._train_config(settings, "ps", 2, 8)
    filled = {pair for s in cli.SETTINGS.values() for pair in s.fills}
    for cls in (SimConfig, SplitSpec, ModelConfig, EarlyStopConfig, TrainConfig):
        assert cls in given, cls.__name__  # each is built through _build
        missing = [f.name for f in fields(cls)
                   if (cls, f.name) not in filled and f.name not in given[cls]]
        assert not missing, (cls.__name__, missing)


def test_flags_override_config_file(workspace, tmp_path):
    out = tmp_path / "override"
    config = write_config(
        tmp_path, epochs=9, early_stopping=False, shuffle_buffer_size=50
    )
    code = main(
        [
            "train", "--config", config, "--dataset",
            str(workspace["out"] / "dataset.fasta"), "--out", str(out),
            "--epochs", "1", "--seed", "5",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["effective_config"]["epochs"] == 1
    assert len(report["epochs"]) == 1


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rat": 0.1}))
    code = main(
        [
            "train", "--config", str(bad), "--dataset",
            str(workspace["out"] / "dataset.fasta"),
        ]
    )
    assert code == 2
    assert "learning_rat" in capsys.readouterr().err
    # a known key with a value of the wrong type is a config error too
    for key, value in [("workers_list", 4),
                       ("workers_list", [1, True]), ("epochs", "3"), ("epochs", True),
                       ("strategy", ["ps"]), ("global_batch", 32.0),
                       ("learning_rate", "0.1"), ("early_stopping", 1),
                       ("split", "bogus")]:
        bad.write_text(json.dumps({key: value}))
        code = main(
            [
                "benchmark", "--config", str(bad), "--dataset",
                str(workspace["out"] / "dataset.fasta"), "--out", str(tmp_path),
            ]
        )
        assert code == 2, (key, value)
        assert f"config key '{key}'" in capsys.readouterr().err, (key, value)


def test_config_values_of_the_default_type_are_accepted(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({
        "workers_list": [1, 2], "epochs": 3, "learning_rate": 1, "global_batch": None,
        "dataset": "d.fasta", "early_stopping": False,
    }))
    settings = _merge_settings(build_parser().parse_args(
        ["benchmark", "--config", str(path)]))
    assert settings["workers_list"] == (1, 2)
    assert settings["learning_rate"] == 1 and settings["global_batch"] is None
    path.write_text(json.dumps({"workers_list": "1,2"}))  # the flag's comma string
    settings = _merge_settings(build_parser().parse_args(
        ["benchmark", "--config", str(path)]))
    assert settings["workers_list"] == (1, 2)


def test_benchmark_global_batch_zero_is_a_config_error(workspace, tmp_path, capsys):
    dataset = str(workspace["out"] / "dataset.fasta")
    code = main(["benchmark", "--dataset", dataset, "--out", str(tmp_path),
                 "--workers-list", "1", "--global-batch", "0"])
    assert code == 2
    assert "global_batch must be >= 1, got 0" in capsys.readouterr().err
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({"global_batch": 0}))
    code = main(["benchmark", "--config", str(config), "--dataset", dataset,
                 "--out", str(tmp_path), "--workers-list", "1"])
    assert code == 2
    assert "global_batch must be >= 1, got 0" in capsys.readouterr().err


def test_config_file_must_be_json(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("epochs: 3")
    code = main(
        [
            "train", "--config", str(bad), "--dataset",
            str(workspace["out"] / "dataset.fasta"),
        ]
    )
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--definitely-not-a-flag"])
    assert excinfo.value.code == 2


def test_help_exits_0():
    for command in ("generate", "train", "benchmark", "evaluate"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0


def test_missing_dataset_is_config_error(capsys):
    code = main(["train", "--dataset", "/nope/missing.fasta"])
    assert code == 2
    assert "/nope/missing.fasta" in capsys.readouterr().err
