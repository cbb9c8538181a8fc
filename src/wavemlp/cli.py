"""Command-line entry point.

Subcommands: superpose, check-grads, count, train, ablate, phase-map,
selftest. Output is machine-parsable key=value lines; the seed in effect is
always printed. ``count`` computes parameters and MACs from the config alone
and builds no model, so its ``--seed`` is only printed. ``check-grads
--config`` runs ``selftest.check_config_model`` on the given config. Exit
codes: 0 success, 1 a check failed, training aborted or an input (config
file, flag value such as a negative ``--seed``, environment variable) was
malformed, 2 usage error (argparse's convention). The WAVEMLP_THREADS
environment variable caps ablation worker processes (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import model as M
from . import wave
from .errors import ConfigurationError, WaveMlpError
from .selftest import (
    check_config_model,
    check_gradients,
    pilot_task_config,
    run_selftest,
)
from .synth import GENERATORS, SynthTask, make_dataset
from .train import ABLATION_AXES, TrainConfig, ablate, train

FLOP_CONVENTION = "1 MAC = 1 FLOP over matmuls, windowed mixing, and stems; elementwise excluded"


def _kv(key, value):
    print(f"{key}={value}")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", default="out", help="output directory for files")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavemlp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("superpose", help="superpose two waves; closed forms vs oracle")
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("count", help="parameter/FLOP accounting for a preset or config")
    p.add_argument("--preset", choices=M.PRESETS, default="T")
    p.add_argument("--config", help="JSON ArchConfig (overrides --preset)")
    p.add_argument("--res", type=int, default=224, help="square input resolution")
    p.add_argument("--seed", type=int, default=0, help="printed only; counting builds no model")

    p = sub.add_parser("check-grads", help="finite-difference gradient suite")
    p.add_argument("--config", help="also grad-check a model built from this JSON config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("train", help="train a model on a synthetic task")
    p.add_argument("--preset", choices=M.PRESETS, default="tiny")
    p.add_argument("--config", help="JSON ArchConfig (overrides --preset)")
    p.add_argument("--task", choices=GENERATORS, default="interference")
    p.add_argument("--epochs", type=int, default=None, help="default: committed pilot value")
    p.add_argument("--batch", type=int, default=None, dest="batch_size")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--wd", type=float, default=None, dest="weight_decay")
    p.add_argument("--precision", choices=["f32", "f64"], default=None)
    _add_common(p)

    p = sub.add_parser("ablate", help="run one ablation axis, emit its CSV table")
    p.add_argument("--axis", choices=sorted(ABLATION_AXES), required=True)
    p.add_argument("--task", choices=GENERATORS, default="interference")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--num-seeds", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("phase-map", help="train briefly, export a phase-difference map")
    p.add_argument("--stage", type=int, choices=[3, 4], default=4)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--window", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("selftest", help="run the invariant suite; exit 0 iff all pass")
    p.add_argument("--full", action="store_true", help="include the committed pilot training run")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_superpose(args) -> int:
    _kv("seed", args.seed)
    amp = float(wave.superpose_amplitude(args.a1, args.a2, args.t1, args.t2))
    ora = wave.oracle_superpose(args.a1, args.a2, args.t1, args.t2)
    _kv("amplitude", repr(amp))
    _kv("oracle_amplitude", repr(float(ora.amplitude)))
    if amp >= wave.ZERO_AMPLITUDE:
        phase = float(wave.superpose_phase(args.a1, args.a2, args.t1, args.t2))
        _kv("phase", repr(phase))
        _kv("oracle_phase", repr(float(ora.phase)))
        circ = float(abs(wave.canonicalize_phase(phase - float(ora.phase))))
        _kv("phase_circular_err", repr(circ))
    else:
        _kv("phase", "undefined (amplitude ~ 0; amplitudes compared only)")
    _kv("amplitude_abs_err", repr(abs(amp - float(ora.amplitude))))
    return 0


def _load_cfg(args):
    if getattr(args, "config", None):
        return M.load_arch_config(args.config)
    return M.preset(args.preset)


def _cmd_count(args) -> int:
    _kv("seed", args.seed)
    cfg = _load_cfg(args)
    n_params = M.count_params(cfg)
    n_flops = M.count_flops(cfg, args.res, args.res)
    if args.config:
        _kv("config", args.config)
    else:
        _kv("preset", args.preset)
    _kv("res", args.res)
    _kv("params", n_params)
    _kv("flops", n_flops)
    _kv("flop_convention", FLOP_CONVENTION)
    if args.config or args.preset not in M.REFERENCE_BUDGETS or args.res != 224:
        return 0
    refs = M.REFERENCE_BUDGETS[args.preset]
    oks = [M.within_budget(n, ref) for n, ref in zip((n_params, n_flops), refs)]
    for key, ref, ok in zip(("params", "flops"), refs, oks):
        _kv(f"{key}_ref", int(ref))
        _kv(f"{key}_within_10pct", "PASS" if ok else "FAIL")
    return 0 if all(oks) else 1


def _cmd_check_grads(args) -> int:
    _kv("seed", args.seed)
    cfg = M.load_arch_config(args.config) if args.config else None
    results = check_gradients(seed=args.seed, tol=args.tol)
    if cfg is not None:
        results.append(check_config_model(cfg, seed=args.seed, tol=args.tol))
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    _kv("all_grads", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _train_config(args) -> TrainConfig:
    """The committed pilot recipe with ``--seed`` and only the flags the user set."""
    names = ("epochs", "batch_size", "lr", "weight_decay", "precision")
    flags = {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}
    return dataclasses.replace(pilot_task_config()[1], seed=args.seed, **flags)


def _cmd_train(args) -> int:
    _kv("seed", args.seed)
    cfg = _load_cfg(args)
    task = SynthTask(name=args.task, num_classes=cfg.num_classes if cfg.num_classes in (2, 4) else 4)
    if cfg.num_classes != task.num_classes:
        cfg = dataclasses.replace(cfg, num_classes=task.num_classes)
    tc = _train_config(args)
    _kv("task", task.name)
    _kv("epochs", tc.epochs)
    _kv("lr", repr(tc.lr))
    _model, hist = train(cfg, task, tc)
    _kv("steps", len(hist.loss))
    _kv("final_loss", repr(hist.loss[-1]))
    _kv("final_train_acc", repr(hist.train_acc[-1]))
    _kv("final_val_acc", repr(hist.val_acc[-1]))
    losses, accs = hist.save(args.out)
    _kv("losses_csv", losses)
    _kv("accuracy_csv", accs)
    return 0


def _cmd_ablate(args) -> int:
    _kv("seed", args.seed)
    task = SynthTask(name=args.task)
    tc = _train_config(args)
    seeds = tuple(range(args.seed, args.seed + args.num_seeds))
    _kv("axis", args.axis)
    _kv("seeds", ";".join(str(s) for s in seeds))
    table = ablate(args.axis, task, tc, seeds=seeds)
    path = table.save(args.out)
    for row in table.rows:
        _kv(f"row_{row.setting}_mean_val_acc", repr(row.mean))
        _kv(f"row_{row.setting}_sd_val_acc", repr(row.sd))
    _kv("table_csv", path)
    return 0


def _cmd_phase_map(args) -> int:
    from .phasemap import check_window, export_phase_map

    _kv("seed", args.seed)
    if args.window is not None:
        check_window(args.window)  # before training, not after it
    task = pilot_task_config()[0]
    model, hist = train(M.preset("tiny"), task, _train_config(args))
    _kv("final_val_acc", repr(hist.val_acc[-1]))
    image = make_dataset(task)[0][0]
    csv_path, pgm_path = export_phase_map(model, image, args.stage, args.out, window=args.window)
    _kv("stage", args.stage)
    _kv("csv", csv_path)
    _kv("pgm", pgm_path)
    return 0


def _cmd_selftest(args) -> int:
    _kv("seed", args.seed)
    results = run_selftest(full=args.full, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    _kv("checks", len(results))
    _kv("failed", len(failed))
    _kv("selftest", "PASS" if not failed else "FAIL")
    return 0 if not failed else 1


_HANDLERS = {
    "superpose": _cmd_superpose,
    "count": _cmd_count,
    "check-grads": _cmd_check_grads,
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "phase-map": _cmd_phase_map,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand has --seed; numpy seeds are >= 0
            raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
        return _HANDLERS[args.command](args)
    except WaveMlpError as exc:
        print(f"error={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
