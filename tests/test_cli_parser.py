"""The command-line parser: the interface each subcommand declares, and the
rule that any token ``float()`` accepts is an option's value."""

import argparse
import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavemlp import errors
from wavemlp.cli import _build_parser, main
from wavemlp.selftest import CheckResult
from wavemlp.tensor import Tensor, grad_check, mul, reduce_sum

_PRESETS = ("T*", "T", "S", "M", "B", "tiny")
_TASKS = ("interference", "blobs")
_SEED = ("seed", int, 0, None, False)
_OUT = ("out", None, "out", None, False)

# subcommand -> option strings -> (dest, type, default, choices, required)
_INTERFACE = {
    "superpose": {
        ("--a1",): ("a1", float, None, None, True),
        ("--a2",): ("a2", float, None, None, True),
        ("--t1",): ("t1", float, None, None, True),
        ("--t2",): ("t2", float, None, None, True),
        ("--seed",): _SEED,
    },
    "count": {
        ("--preset",): ("preset", None, "T", _PRESETS, False),
        ("--config",): ("config", None, None, None, False),
        ("--res",): ("res", int, 224, None, False),
        ("--seed",): _SEED,
    },
    "check-grads": {
        ("--config",): ("config", None, None, None, False),
        ("--tol",): ("tol", float, 1e-4, None, False),
        ("--seed",): _SEED,
    },
    "train": {
        ("--preset",): ("preset", None, "tiny", _PRESETS, False),
        ("--config",): ("config", None, None, None, False),
        ("--task",): ("task", None, "interference", _TASKS, False),
        ("--epochs",): ("epochs", int, None, None, False),
        ("--batch",): ("batch_size", int, None, None, False),
        ("--lr",): ("lr", float, None, None, False),
        ("--wd",): ("weight_decay", float, None, None, False),
        ("--precision",): ("precision", None, None, ("f32", "f64"), False),
        ("--seed",): _SEED,
        ("--out",): _OUT,
    },
    "ablate": {
        ("--axis",): ("axis", None, None, ("estimator", "phase_mode", "window"), True),
        ("--task",): ("task", None, "interference", _TASKS, False),
        ("--epochs",): ("epochs", int, None, None, False),
        ("--num-seeds",): ("num_seeds", int, 3, None, False),
        ("--seed",): _SEED,
        ("--out",): _OUT,
    },
    "phase-map": {
        ("--stage",): ("stage", int, 4, (3, 4), False),
        ("--epochs",): ("epochs", int, 4, None, False),
        ("--window",): ("window", int, None, None, False),
        ("--seed",): _SEED,
        ("--out",): _OUT,
    },
    "selftest": {
        ("--full",): ("full", None, False, None, False),
        ("--seed",): _SEED,
    },
}


def test_each_subcommand_keeps_its_interface():
    """Option strings, dest, type, default, choices and required, per subcommand."""
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    subparsers = sub.choices
    assert list(subparsers) == list(_INTERFACE)
    for name, sub in subparsers.items():
        declared = {
            tuple(a.option_strings): (
                a.dest, a.type, a.default, None if a.choices is None else tuple(a.choices), a.required
            )
            for a in sub._actions
            if a.dest != "help"
        }
        assert declared == _INTERFACE[name], name
    (full,) = [a for a in subparsers["selftest"]._actions if a.dest == "full"]
    assert isinstance(full, argparse._StoreTrueAction)


_SUPERPOSE = ["superpose", "--a1", "1", "--a2", "1", "--t1", "0"]


def _run(argv):
    """``main(argv)`` with stdout and stderr captured; a usage error fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            pytest.fail(f"usage error (exit {exc.code}) for {argv}: {err.getvalue()}")
    return code, out.getvalue(), err.getvalue()


def test_negative_exponent_value_is_read_as_a_value():
    assert _run(_SUPERPOSE + ["--t2", "-1e2"]) == _run(_SUPERPOSE + ["--t2=-1e2"])
    assert _run(_SUPERPOSE + ["--t2", "-1e2"])[0] == 0


def test_negative_infinity_value_is_a_domain_error():
    code, out, err = _run(_SUPERPOSE + ["--t2", "-inf"])
    assert code == 1 and out == "seed=0\n"
    assert len(err.splitlines()) == 1 and err.startswith("error=DomainError: "), err


@pytest.mark.parametrize("seed", ["1e2", "-1e2", "-inf", "1.5"])
def test_non_integer_seed_is_a_usage_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(_SUPERPOSE + ["--t2", "0", "--seed", seed])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


_FLOAT_OPTIONS = {
    "superpose": ("--a1", "--a2", "--t1", "--t2"),
    "check-grads": ("--tol",),
    "train": ("--lr", "--wd"),
}

# Float literals in every form float() reads: exponent, leading dot, trailing
# dot, signs, inf, nan, and the extremes of float64.
_LITERALS = st.one_of(
    st.from_regex(r"[-+]?([0-9]{1,4}\.?[0-9]{0,4}|\.[0-9]{1,4})([eE][-+]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(["inf", "-inf", "+inf", "-Infinity", "nan", "-nan", "NaN", "1e308", "-1e308", "-0.0"]),
    st.floats().map(repr),
)


@st.composite
def _float_argvs(draw):
    command = draw(st.sampled_from(sorted(_FLOAT_OPTIONS)))
    argv = [command]
    for flag in _FLOAT_OPTIONS[command]:
        argv += [flag, draw(_LITERALS)]
    return argv


class _History:
    loss = train_acc = val_acc = [0.5]

    def save(self, out):
        return f"{out}/losses.csv", f"{out}/accuracy.csv"


def _check_gradients(seed, tol):
    """``check_gradients``' tolerance contract on a derivative that is exactly 0."""
    zero = Tensor(np.zeros(2))
    rep = grad_check(lambda t: reduce_sum(mul(t, zero)), Tensor(np.ones(2)), tol=tol)
    return [CheckResult("grad_stub", rep.passed)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_float_argvs())
@example(_SUPERPOSE + ["--t2", "-1e2"])
@example(["superpose", "--a1", "-.5e-3", "--a2", "1.", "--t1", "-5.", "--t2", "-nan"])
@example(["check-grads", "--tol", "-1e-3"])
@example(["train", "--lr", "-inf", "--wd", "-1E+2"])
def test_every_float_literal_is_an_options_value(argv):
    """Exit 0 or 1, never a usage error or a traceback; 1 is one ``error=`` line."""
    for token in argv[2::2]:
        float(token)  # the generator makes float literals only
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr("wavemlp.cli.train", lambda *args: (None, _History()))
        mp.setattr("wavemlp.cli.check_gradients", _check_gradients)
        code, stdout, stderr = _run(argv + (["--out", out] if argv[0] == "train" else []))
    assert code in (0, 1)
    if code == 0:
        assert stderr == ""
        assert all("=" in line for line in stdout.splitlines()), stdout
    else:
        match = re.fullmatch(r"error=(\w+): .+\n", stderr)
        assert match, stderr
        assert issubclass(getattr(errors, match[1]), errors.WaveMlpError), stderr
