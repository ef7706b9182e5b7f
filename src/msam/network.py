"""Feed-forward classifier head: ReLU hidden layers, softmax output, CE loss."""

from dataclasses import dataclass, field
from typing import List

import numpy as np

CE_PROB_FLOOR = 1e-30
HIDDEN_DIMS = (512,) * 4  # the paper's head: four ReLU layers of 512 units


@dataclass
class DnnHead:
    """Affine hidden layers with ReLU, then an affine softmax output layer.

    Weight matrices are (out_dim, in_dim); the hidden list may be empty
    (input wired straight to the output layer).
    """

    hidden_weights: List[np.ndarray] = field(default_factory=list)
    hidden_biases: List[np.ndarray] = field(default_factory=list)
    output_weight: np.ndarray = None
    output_bias: np.ndarray = None

    @property
    def input_dim(self) -> int:
        first = self.hidden_weights[0] if self.hidden_weights else self.output_weight
        return first.shape[1]

    @property
    def num_classes(self) -> int:
        return self.output_weight.shape[0]

    @property
    def num_hidden(self) -> int:
        return len(self.hidden_weights)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-logit subtraction)."""
    logits = np.asarray(logits)
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def head_forward_batch(head: DnnHead, x: np.ndarray):
    """Probabilities and per-layer activations for a (B, D) batch."""
    activations = [x]
    h = x
    for w, b in zip(head.hidden_weights, head.hidden_biases):
        h = h @ w.T
        h += b
        np.maximum(h, 0, out=h)
        activations.append(h)
    logits = h @ head.output_weight.T
    logits += head.output_bias
    return softmax(logits), activations


def cross_entropy_batch(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean CE over a batch of probability rows."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, CE_PROB_FLOOR)).mean())


def head_backward_batch(head: DnnHead, activations, dlogits: np.ndarray,
                        input_grads: bool = True):
    """Backprop through the head.

    `dlogits` is the gradient of the loss w.r.t. the output logits, shape
    (B, C).  Returns (grads, dinput) where grads maps head parameter names
    to gradients and dinput has shape (B, input_dim).  With
    `input_grads=False` (an input that is data) dinput is not computed and
    None takes its place.
    """
    grads = {}
    last = activations[-1]
    grads["head.output.weight"] = dlogits.T @ last
    grads["head.output.bias"] = dlogits.sum(axis=0)
    dh, weight = dlogits, head.output_weight
    for j in range(head.num_hidden - 1, -1, -1):
        dh = dh @ weight
        dh *= activations[j + 1] > 0
        grads[f"head.hidden{j}.weight"] = dh.T @ activations[j]
        grads[f"head.hidden{j}.bias"] = dh.sum(axis=0)
        weight = head.hidden_weights[j]
    return grads, (dh @ weight if input_grads else None)


def head_params(head: DnnHead) -> dict:
    params = {}
    for j, (w, b) in enumerate(zip(head.hidden_weights, head.hidden_biases)):
        params[f"head.hidden{j}.weight"] = w
        params[f"head.hidden{j}.bias"] = b
    params["head.output.weight"] = head.output_weight
    params["head.output.bias"] = head.output_bias
    return params
