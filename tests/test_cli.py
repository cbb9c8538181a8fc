"""Command-line interface: flags, key=value output, and exit codes."""

import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import wavemlp
from wavemlp.cli import _build_parser, _train_config, main
from wavemlp.errors import NumericError
from wavemlp.model import arch_config_to_dict, preset
from wavemlp.selftest import load_pilot
from wavemlp.train import TrainConfig


def _parse_kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_superpose_opposite_phases(capsys):
    code = main(["superpose", "--a1", "1", "--a2", "1", "--t1", "0", "--t2", "3.14159265"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["seed"] == "0"
    assert abs(float(out["amplitude"])) < 1e-8
    assert abs(float(out["oracle_amplitude"])) < 1e-8


def test_superpose_general_case_agrees_with_oracle(capsys):
    code = main(["superpose", "--a1", "2", "--a2", "1", "--t1", "0.3", "--t2", "1.8"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert float(out["amplitude_abs_err"]) < 1e-12
    assert float(out["phase_circular_err"]) < 1e-12


def test_count_preset_t_passes_reference(capsys):
    code = main(["count", "--preset", "T", "--res", "224"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["params_within_10pct"] == "PASS"
    assert out["flops_within_10pct"] == "PASS"
    assert int(out["params"]) == 16077800


def test_count_tiny_has_no_reference_row(capsys):
    code = main(["count", "--preset", "tiny", "--res", "32"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert "params_within_10pct" not in out
    assert int(out["params"]) == 29380


def test_count_with_config_file(tmp_path, capsys):
    doc = {
        "stages": [
            {"dim": 8, "depth": 1, "expansion": 2},
            {"dim": 16, "depth": 1, "expansion": 2},
            {"dim": 24, "depth": 1, "expansion": 2},
            {"dim": 32, "depth": 1, "expansion": 2},
        ],
        "num_classes": 4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["count", "--config", str(path), "--res", "8"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert int(out["flops"]) == 32928


_TINY_STAGES = [{"dim": d, "depth": 1, "expansion": 2} for d in (8, 16, 24, 32)]


@pytest.mark.parametrize(
    "content",
    [
        '{"stages": 5}',
        json.dumps({"stages": [{**_TINY_STAGES[0], "width": 3}] + _TINY_STAGES[1:]}),
        None,  # no such file
        '{"stages": [',
        json.dumps({"stages": _TINY_STAGES, "window": True}),
        json.dumps({"stages": _TINY_STAGES, "window": 3.0}),
        '{"stages": ' + "[" * 50_000 + "]" * 50_000 + "}",
    ],
    ids=[
        "stages-not-a-list",
        "unknown-stage-key",
        "missing-file",
        "malformed-json",
        "bool-window",
        "float-window",
        "deep-nesting",
    ],
)
def test_count_malformed_config_is_a_typed_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code = main(["count", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error=ConfigurationError")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "res", ["0", "-5", "1" + "0" * 400], ids=["res-zero", "res-negative", "res-401-digits"]
)
def test_count_bad_resolution_is_a_typed_error(capsys, res):
    code = main(["count", "--preset", "T", "--res", res])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ConfigurationError")
    assert "Traceback" not in captured.err
    assert "flops=" not in captured.out


@pytest.mark.parametrize("res", ["1", "3"])
def test_count_below_the_minimum_input_size_is_a_typed_error(capsys, res):
    code = main(["count", "--preset", "T", "--res", res])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ConfigurationError")
    assert "flops=" not in captured.out


def _committed_train_config(**changes) -> TrainConfig:
    doc = load_pilot()["train"]
    return replace(TrainConfig(**{**doc, "betas": tuple(doc["betas"])}), **changes)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_config_without_flags_is_the_committed_recipe(command):
    argv = [command, "--seed", "7"] + (["--axis", "window"] if command == "ablate" else [])
    tc = _train_config(_build_parser().parse_args(argv))
    assert tc == _committed_train_config(seed=7)


def test_train_config_applies_only_the_flags_set():
    args = _build_parser().parse_args(["train", "--lr", "0.01", "--batch", "16"])
    assert _train_config(args) == _committed_train_config(lr=0.01, batch_size=16)


def test_check_grads_config_with_static_phase(tmp_path, capsys):
    doc = {
        "stages": [{"dim": d, "depth": 1, "expansion": 1} for d in (1, 2, 3, 4)],
        "window": 1,
        "phase_mode": "static",
        "num_classes": 2,
        "input_size": [4, 4],
    }
    path = tmp_path / "static.json"
    path.write_text(json.dumps(doc))
    code = main(["check-grads", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "grad_config_model=PASS" in out
    assert "all_grads=PASS" in out


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--nonsense", "1"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_main_runs_repeatedly_in_one_process(tmp_path, capsys):
    """Errors in between leave later calls in the same process unchanged."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["count", "--preset", "T*"]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["count", "--preset", "nonsense"])
    assert exc.value.code == 2
    assert main(["count", "--config", str(bad)]) == 1
    capsys.readouterr()
    assert main(["count", "--preset", "T*"]) == 0
    assert capsys.readouterr().out == first


def test_train_writes_history(tmp_path, capsys):
    code = main(
        ["train", "--preset", "tiny", "--task", "interference", "--epochs", "1", "--out", str(tmp_path)]
    )
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert (tmp_path / "losses.csv").exists()
    assert (tmp_path / "accuracy.csv").exists()
    assert 0.0 <= float(out["final_val_acc"]) <= 1.0
    assert int(out["steps"]) == 8


def test_train_numeric_failure_is_reported_on_stderr(tmp_path, capsys):
    code = main(["train", "--lr", "1e300", "--epochs", "1", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=NumericError")
    assert "error=" not in captured.out


@pytest.mark.parametrize(
    "flags",
    [["--lr", "nan"], ["--lr", "inf"], ["--wd", "nan"], ["--epochs", "1" + "0" * 400]],
    ids=["lr-nan", "lr-inf", "wd-nan", "epochs-401-digits"],
)
def test_train_non_finite_flag_is_a_typed_error(tmp_path, capsys, flags):
    code = main(["train", "--epochs", "1", "--out", str(tmp_path)] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ConfigurationError")
    assert not (tmp_path / "losses.csv").exists()


@pytest.mark.parametrize(
    "command",
    [["train"], ["check-grads"], ["selftest"], ["phase-map"], ["ablate", "--axis", "window"]],
    ids=lambda c: c[0],
)
def test_negative_seed_is_a_typed_error(capsys, command):
    code = main(command + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ConfigurationError")
    assert captured.out == ""


def test_a_seed_too_large_for_a_float_is_a_typed_error(capsys):
    code = main(["count", "--preset", "tiny", "--seed", "1" + "0" * 400])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error=ConfigurationError: --seed must fit in a float\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "check-grads"])
def test_a_config_too_large_for_memory_is_a_typed_error(tmp_path, capsys, command):
    """Stage dims of 10**7 make 5.6e15 parameters: one error line, not numpy's allocation error."""
    doc = arch_config_to_dict(preset("tiny"))
    for k, stage in enumerate(doc["stages"]):
        stage["dim"] = 10**7 + k
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")] if command == "train" else []
    code = main([command, "--config", str(config), *out])
    err = capsys.readouterr().err
    assert code == 1
    message = r"the model needs \d+ bytes of parameters, more than physical memory"
    assert re.fullmatch(rf"error=ConfigurationError: {message}\n", err)


def test_check_grads_non_finite_tolerance_is_a_typed_error(capsys):
    code = main(["check-grads", "--tol", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ContractError")


@pytest.mark.parametrize(
    "flags",
    [["--lr", "1e300", "--epochs", "1"], ["--seed", "-1"]],
    ids=["diverging", "negative-seed"],
)
def test_module_entry_point_reports_one_error_line(tmp_path, flags):
    """``python -m wavemlp``, run as a user would: stderr is the one error= line,
    with no traceback and no numpy warning ahead of it."""
    src = os.path.dirname(os.path.dirname(wavemlp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "wavemlp", "train", "--out", str(tmp_path)] + flags,
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error="), proc.stderr


@pytest.mark.parametrize("a1, t2", [("nan", "0"), ("1", "inf")], ids=["a1-nan", "t2-inf"])
def test_superpose_non_finite_input_is_a_domain_error(capsys, a1, t2):
    code = main(["superpose", "--a1", a1, "--a2", "1", "--t1", "0", "--t2", t2])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=DomainError")
    assert "amplitude=" not in captured.out


def test_phase_map_command(tmp_path, capsys):
    code = main(["phase-map", "--stage", "4", "--epochs", "1", "--out", str(tmp_path)])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    vals = np.loadtxt(out["csv"], delimiter=",", ndmin=2)
    assert vals.min() >= -1.0 and vals.max() <= 1.0
    assert (tmp_path / "phase_map_stage4.pgm").exists()


@pytest.mark.parametrize("window", ["0", "4", "9", str(10**30 + 1)])
def test_phase_map_checks_window_before_training(tmp_path, capsys, monkeypatch, window):
    def no_training(*args):
        raise AssertionError("phase-map trained before checking --window")

    monkeypatch.setattr("wavemlp.cli.train", no_training)
    code = main(["phase-map", "--window", window, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error=ConfigurationError")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    [["train"], ["ablate", "--axis", "window"], ["phase-map"]],
    ids=lambda c: c[0],
)
def test_unwritable_out_is_a_typed_error_before_training(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr("wavemlp.cli.train", no_work)
    monkeypatch.setattr("wavemlp.cli.ablate", no_work)
    (tmp_path / "ro.txt").write_text("")  # a file, used as a directory below
    code = main(command + ["--out", str(tmp_path / "ro.txt" / "x")])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=OutputError"), captured.err
    assert captured.out == ""


def test_a_failing_write_is_a_typed_error(tmp_path, capsys, monkeypatch):
    class History:
        loss, train_acc, val_acc = [1.0], [0.5], [0.5]

        def save(self, out):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr("wavemlp.cli.train", lambda *args: (None, History()))
    code = main(["train", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=OutputError"), captured.err


def test_phase_map_trains_the_pilot_recipe_with_seed_and_epochs(monkeypatch):
    configs = []

    def record(arch, task, tc):
        configs.append(tc)
        raise NumericError("stop before training")

    monkeypatch.setattr("wavemlp.cli.train", record)
    assert main(["phase-map", "--seed", "7", "--epochs", "2"]) == 1
    assert configs == [_committed_train_config(seed=7, epochs=2)]


def test_check_grads_command(capsys):
    code = main(["check-grads"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all_grads=PASS" in out
    assert "grad_two_block_model=PASS" in out
    assert "grad_stem_ragged=PASS" in out


def test_check_grads_fails_with_impossible_tolerance(capsys):
    code = main(["check-grads", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "all_grads=FAIL" in out


def test_selftest_exits_zero_on_correct_build(capsys):
    code = main(["selftest"])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["selftest"] == "PASS"
    assert int(out["failed"]) == 0


def test_ablate_command(tmp_path, capsys):
    code = main(["ablate", "--axis", "estimator", "--epochs", "1", "--out", str(tmp_path)])
    out = _parse_kv(capsys.readouterr().out)
    assert code == 0
    table = (tmp_path / "ablation_estimator.csv").read_text().splitlines()
    assert table[0] == "setting,params,flops,mean_val_acc,sd_val_acc,per_seed_val_acc"
    assert [row.split(",")[0] for row in table[1:]] == ["Identity", "DepthWise", "ChannelFC"]
    assert "row_ChannelFC_mean_val_acc" in out


@pytest.mark.parametrize("num_seeds, code", [(-1, 1), (2, 1), (3, 0), (100, 0), (101, 1)])
def test_ablate_takes_3_to_100_seeds_checked_before_training(tmp_path, capsys, monkeypatch, num_seeds, code):
    """A seed count outside 3 to 100 is one ConfigurationError line: no cell trains and no
    seed list prints. ``train`` is stubbed, so the accepted counts run in no time."""
    calls = []

    def stub(cfg, task, tc):
        calls.append(tc.seed)
        return None, SimpleNamespace(val_acc=[0.5])

    monkeypatch.setattr(importlib.import_module("wavemlp.train"), "train", stub)
    argv = ["ablate", "--axis", "window", "--num-seeds", str(num_seeds), "--out", str(tmp_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert calls == [] and "seeds=" not in captured.out
        assert re.fullmatch(r"error=ConfigurationError: .+\n", captured.err), captured.err
    else:
        assert calls == list(range(num_seeds)) * 4 and captured.err == ""
        out = _parse_kv(captured.out)
        assert out["seeds"] == ";".join(map(str, range(num_seeds)))
        assert list(out)[:3] == ["seed", "axis", "seeds"]
