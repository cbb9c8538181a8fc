"""Wave-like token representation and phase-aware token mixing for vision MLPs.

Layered bottom-up: a numpy-backed tensor core with a reverse-mode tape
(:mod:`wavemlp.tensor`), scalar/grid phasor algebra with an independent
complex oracle (:mod:`wavemlp.wave`), the phase-aware token mixing module
(:mod:`wavemlp.patm`), composite blocks and stems (:mod:`wavemlp.blocks`),
full hierarchical models with parameter/FLOP accounting
(:mod:`wavemlp.model`), and a toy training/ablation harness
(:mod:`wavemlp.train`, :mod:`wavemlp.synth`, :mod:`wavemlp.phasemap`).
"""

from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    DomainError,
    NumericError,
    UndefinedPhaseError,
    UnsupportedModeError,
    WaveMlpError,
)
from .model import ArchConfig, build, count_flops, count_params, forward, load_arch_config, preset
from .patm import PhaseMode
from .synth import SynthTask
from .tensor import Tape, Tensor, grad_check
from .train import TrainConfig, ablate, cosine_lr, train
from .wave import (
    Phasor,
    canonicalize_phase,
    oracle_superpose,
    superpose_amplitude,
    superpose_phase,
)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "ConfigurationError",
    "ContractError",
    "DimensionError",
    "DomainError",
    "NumericError",
    "Phasor",
    "PhaseMode",
    "SynthTask",
    "Tape",
    "Tensor",
    "TrainConfig",
    "UndefinedPhaseError",
    "UnsupportedModeError",
    "WaveMlpError",
    "ablate",
    "build",
    "canonicalize_phase",
    "cosine_lr",
    "count_flops",
    "count_params",
    "forward",
    "grad_check",
    "load_arch_config",
    "oracle_superpose",
    "preset",
    "superpose_amplitude",
    "superpose_phase",
    "train",
]
