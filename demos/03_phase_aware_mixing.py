"""What the phase term buys: the same weights, different interference.

A windowed token-FC with zero phases is the classical fixed-weight mixer.
Give the tokens phases and the same fixed weights produce input-dependent
aggregation: tokens with close phases reinforce, mismatched ones cancel.

Run: python demos/03_phase_aware_mixing.py
"""

import numpy as np

from wavemlp.patm import PhaseMode, aggregate_tokens, estimate_phase, init_patm, patm_forward
from wavemlp.tensor import Tensor

rng = np.random.default_rng(0)

# five tokens on a line, one channel; uniform mixing weights
amp = Tensor(np.ones((1, 5, 1, 1)))
wt = Tensor(np.ones((3, 1)))
wi = Tensor(np.zeros((3, 1)))

flat = aggregate_tokens(amp, Tensor(np.zeros((1, 5, 1, 1))), wt, wi, "height")
print("zero phases (classical token-FC), interior sums of 3 ones:")
print(" ", flat.data[0, :, 0, 0])

alternating = np.pi * np.arange(5).reshape(1, 5, 1, 1) % (2 * np.pi)
waved = aggregate_tokens(amp, Tensor(alternating), wt, wi, "height")
print("alternating 0/pi phases, same weights -- neighbours now cancel:")
print(" ", waved.data[0, :, 0, 0])
print()

# phases in {0, pi} are exactly a sign pattern: the classical special case
signed = amp.data * np.cos(alternating)
print("equivalent signed amplitudes:", signed[0, :, 0, 0])
print()

# a full module: amplitude channel-FC, phase estimator, mixing, output FC
p = init_patm(d=4, window=3, phase_mode=PhaseMode.CHANNEL_FC, rng=np.random.default_rng(1))
x = Tensor(rng.normal(size=(2, 3, 6, 4)))
theta = estimate_phase(x, p.phase_mode, p.wtheta, "width")
out = patm_forward(x, p, "width")
print("dynamic phases are input-dependent: theta[0,0,0] =", np.round(theta.data[0, 0, 0], 3))
print("module preserves shape:", x.shape, "->", out.shape)

# same parameters serve any grid size (relative-offset weight sharing)
for h, w in [(1, 9), (5, 2), (7, 7)]:
    y = patm_forward(Tensor(rng.normal(size=(1, h, w, 4))), p, "width")
    assert y.shape == (1, h, w, 4)
print("one parameter set ran grids (1,9), (5,2), (7,7) unchanged")
