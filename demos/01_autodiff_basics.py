"""Tour of the tensor core: forward ops, the tape, and gradient checking.

Run with: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from ckl.tensor import (
    Tape,
    Tensor,
    layer_norm,
    matmul,
    sigmoid,
    softmax_lastdim,
    sum_all,
)

print("== forward ops ==")
a = Tensor([[1.0, 2.0], [3.0, 4.0]])
b = Tensor([[5.0, 6.0], [7.0, 8.0]])
print("a @ b =\n", matmul(a, b).data)
print("softmax([log 2, 0]) =", softmax_lastdim(Tensor([np.log(2.0), 0.0])).data)
print("sigmoid(log 3) =", sigmoid(Tensor(np.log(3.0))).item())
gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
print("layer_norm([1, 3]) =", layer_norm(Tensor([1.0, 3.0]), gamma, beta).data)

print("\n== tape and backward ==")
x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
with Tape() as tape:
    y = sum_all(sigmoid(x) * sigmoid(x))
    grads = tape.backward(y)
print("d/dx sum(sigmoid(x)^2) =", grads[x.node_id])
print("tape recorded", len(tape.records), "ops")

print("\n== gradient vs central differences ==")
h = 1e-5
fd = np.zeros(3)
base = x.data.copy()
for i in range(3):
    for sign, slot in ((+1, 0), (-1, 1)):
        probe = base.copy()
        probe[i] += sign * h
        val = sum_all(sigmoid(Tensor(probe)) * sigmoid(Tensor(probe))).item()
        fd[i] += sign * val / (2 * h)
print("finite differences      =", fd)
print("max abs deviation       =", np.max(np.abs(fd - grads[x.node_id])))
