"""The tensor core: record ops on a tape, replay it backwards, trust nothing.

Every building block in this package is differentiated by a hand-written
backward rule; grad_check compares each against central finite differences.

Run: python demos/02_autodiff_gradcheck.py
"""

import numpy as np

from wavemlp import Tape, Tensor, grad_check
from wavemlp.tensor import gelu, linear, mul, reduce_mean, reduce_sum

rng = np.random.default_rng(0)

# forward under a tape, then backpropagate; linear(x, w) is x @ w.T
w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
with Tape() as tape:
    loss = reduce_mean(mul(gelu(linear(x, w)), gelu(linear(x, w))))
tape.backward(loss)
print("loss:", float(loss.data))
print("dL/dw row 0:", w.grad[0])

# grad_check perturbs every input element twice and compares
report = grad_check(lambda ts: reduce_mean(mul(gelu(linear(x, w)), gelu(linear(x, w)))), [w, x])
print("finite-difference check:", report)

# a quadratic has gradient 2x; the tape agrees to ~1e-12
v = Tensor(rng.normal(size=8), requires_grad=True)
report = grad_check(lambda t: reduce_sum(mul(t, t)), v, tol=1e-10)
print("sum(x^2) check:", report)
print("analytic 2x[0] =", 2 * v.data[0], " tape grad[0] =", v.grad[0])
