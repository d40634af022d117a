"""Tour of the tensor core: forward ops, the tape, and gradient checking.

Run with: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from ckl.tensor import (
    Tape,
    Tensor,
    add_norm,
    cross_entropy,
    linear,
    sigmoid,
)

print("== forward ops ==")
a = Tensor([[1.0, 2.0], [3.0, 4.0]])
b = Tensor([[5.0, 6.0], [7.0, 8.0]])
print("linear(a, b) = a @ b, with no bias =\n", linear(a, b).data)
print("linear(a, b, [1, -1]) adds the bias to each row =\n", linear(a, b, Tensor([1.0, -1.0])).data)
nll = cross_entropy(Tensor([[np.log(2.0), 0.0], [0.0, 0.0]]), [0, 1])
print("cross_entropy([[log 2, 0], [0, 0]], targets [0, 1]) = -log(2/3) - log(1/2) =", nll.item())
print("sigmoid(log 3) =", sigmoid(Tensor(np.log(3.0))).item())
gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
residual = add_norm(Tensor([1.0, 3.0]), Tensor([0.0, 2.0]), gamma, beta)
print("add_norm([1, 3], [0, 2]) = layer norm of [1, 5] =", residual.data)

print("\n== tape and backward ==")
x = Tensor([[0.5, -1.0, 2.0]], requires_grad=True)  # one row of three logits, squashed by sigmoid
with Tape() as tape:
    y = cross_entropy(sigmoid(x), [2])
    grads = tape.backward(y)
print("d/dx -log softmax(sigmoid(x))[2] =", grads[x.node_id])
print("tape recorded", len(tape.records), "ops:", [record[0] for record in tape.records])

print("\n== gradient vs central differences ==")
h = 1e-5
fd = np.zeros(3)
base = x.data.copy()
for i in range(3):
    for sign in (+1, -1):
        probe = base.copy()
        probe[0, i] += sign * h
        fd[i] += sign * cross_entropy(sigmoid(Tensor(probe)), [2]).item() / (2 * h)
print("finite differences              =", fd)
print("max abs deviation               =", np.max(np.abs(fd - grads[x.node_id][0])))
