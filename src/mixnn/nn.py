"""Dense neural-network kernel: forward ops, analytic gradients, SGD with momentum.

Everything is float32 and deterministic: the same inputs and parameter state
produce bitwise-identical outputs, which is what allows a cascade of layer
servers to be compared exactly against a single-process run.
"""

import numpy as np

DTYPE = np.float32

LINEAR = "linear"
RELU = "relu"
LOGSOFTMAX = "logsoftmax"
NLLLOSS = "nllloss"
IDENTITY = "identity"

# the order fixes each kind's wire code in an INIT record (1 = linear, ...),
# so a new kind goes at the end
PRIMITIVE_KINDS = (LINEAR, RELU, LOGSOFTMAX, NLLLOSS, IDENTITY)


class ShapeError(ValueError):
    pass


class ProtocolOrderError(RuntimeError):
    """An operation arrived out of order (e.g. backward without a cached forward)."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a C-contiguous float32 2-D array."""
    m = np.ascontiguousarray(a, dtype=DTYPE)
    if m.ndim != 2:
        raise ShapeError(f"expected 2-D matrix, got shape {m.shape}")
    return m


class PrimitiveOp:
    """One step of a layer's operation chain.

    kind is one of PRIMITIVE_KINDS; in_dim/out_dim are only meaningful for
    linear ops (other kinds keep them as 0).
    """

    __slots__ = ("kind", "in_dim", "out_dim")

    def __init__(self, kind: str, in_dim: int = 0, out_dim: int = 0):
        if kind not in PRIMITIVE_KINDS:
            raise ValueError(f"unknown primitive kind {kind!r}")
        if kind == LINEAR and (in_dim < 1 or out_dim < 1):
            raise ValueError(f"linear requires positive dims, got {in_dim}x{out_dim}")
        self.kind = kind
        self.in_dim = in_dim
        self.out_dim = out_dim

    def __repr__(self):
        if self.kind == LINEAR:
            return f"PrimitiveOp(linear, {self.in_dim}->{self.out_dim})"
        return f"PrimitiveOp({self.kind})"

    def __eq__(self, other):
        return (
            isinstance(other, PrimitiveOp)
            and (self.kind, self.in_dim, self.out_dim)
            == (other.kind, other.in_dim, other.out_dim)
        )


def linear(in_dim: int, out_dim: int) -> PrimitiveOp:
    return PrimitiveOp(LINEAR, in_dim, out_dim)


def relu() -> PrimitiveOp:
    return PrimitiveOp(RELU)


def logsoftmax() -> PrimitiveOp:
    return PrimitiveOp(LOGSOFTMAX)


def nllloss() -> PrimitiveOp:
    return PrimitiveOp(NLLLOSS)


def identity() -> PrimitiveOp:
    return PrimitiveOp(IDENTITY)


class LayerSpec:
    """A layer's primitive chain plus the seed its parameters are drawn from."""

    __slots__ = ("chain", "seed")

    def __init__(self, chain, seed: int = 0):
        self.chain = list(chain)
        if not self.chain:
            raise ValueError("empty primitive chain")
        for op in self.chain[:-1]:
            if op.kind == NLLLOSS:
                raise ValueError("nllloss may only be the final primitive")
        self.seed = int(seed)

    def ends_in_loss(self) -> bool:
        return self.chain[-1].kind == NLLLOSS

    def __repr__(self):
        return f"LayerSpec({self.chain}, seed={self.seed})"


def make_layer_specs(chains, seed: int):
    """Assign a derived parameter seed to every layer of a model.

    Both the cascade initialization and the single-process baseline call this
    with the same model/seed, so parameters match bitwise. Raises ShapeError
    when a linear op does not take the width that reaches it.
    """
    linears = [(i, op) for i, chain in enumerate(chains) for op in chain if op.kind == LINEAR]
    for (_, a), (i, b) in zip(linears, linears[1:]):
        if b.in_dim != a.out_dim:
            raise ShapeError(f"layer {i + 1} takes width {b.in_dim} but gets {a.out_dim}")
    specs = []
    for i, chain in enumerate(chains):
        layer_seed = int(np.random.SeedSequence([int(seed), i]).generate_state(1, np.uint64)[0])
        specs.append(LayerSpec(chain, seed=layer_seed))
    return specs


def init_layer_params(spec: LayerSpec):
    """Allocate parameters for a chain: [(W, b) or None] aligned with the chain.

    Linear weights and biases are uniform over [-1/sqrt(in), 1/sqrt(in)],
    drawn from a generator derived from (layer seed, primitive index).
    """
    params = []
    for j, op in enumerate(spec.chain):
        if op.kind != LINEAR:
            params.append(None)
            continue
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, j]))
        bound = 1.0 / np.sqrt(op.in_dim)
        w = rng.uniform(-bound, bound, size=(op.out_dim, op.in_dim)).astype(DTYPE)
        b = rng.uniform(-bound, bound, size=(1, op.out_dim)).astype(DTYPE)
        params.append((w, b))
    return params


class OptimizerState:
    """SGD-with-momentum state: one velocity buffer per parameter matrix, and
    one float32 scratch buffer the size of the largest weight, which each
    linear's backward step writes its weight gradient and then its update
    into. The scratch is made at the first backward, so building the state
    at set-up allocates no more than the velocities. Each optimizer has its
    own: layers in one process may run backward at once."""

    def __init__(self, params, learning_rate: float = 0.01, momentum: float = 0.9):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = [
            None if p is None else (np.zeros_like(p[0]), np.zeros_like(p[1]))
            for p in params
        ]
        self._scratch = None

    def scratch(self, shape) -> np.ndarray:
        """A C-contiguous float32 view of the scratch buffer with this shape."""
        if self._scratch is None:
            size = max(v[0].size for v in self.velocity if v is not None)
            self._scratch = np.empty(size, dtype=DTYPE)
        return self._scratch[:int(np.prod(shape))].reshape(shape)


def linear_forward(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear input {x.shape} does not match weight {w.shape}")
    return x @ w.T + b


def linear_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, dw_out=None,
                    input_grad: bool = True):
    """Gradients of y = x @ w.T + b: returns (dw, db, dx). dw is written into
    dw_out when given; dx is None when input_grad is false."""
    if x is None:
        raise ProtocolOrderError("linear backward without cached forward input")
    if dy.shape[0] != x.shape[0] or dy.shape[1] != w.shape[0]:
        raise ShapeError(f"gradient {dy.shape} does not match x {x.shape}, w {w.shape}")
    dw = np.matmul(dy.T, x, out=dw_out)
    db = dy.sum(axis=0, keepdims=True)
    dx = dy @ w if input_grad else None
    return dw, db, dx


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, DTYPE(0))


def relu_backward(pre_activation: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # derivative at exactly 0 is defined as 0
    if pre_activation.shape != dy.shape:
        raise ShapeError(f"relu shapes differ: {pre_activation.shape} vs {dy.shape}")
    return np.where(pre_activation > 0, dy, DTYPE(0))


def logsoftmax_forward(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def logsoftmax_backward(output: np.ndarray, dy: np.ndarray) -> np.ndarray:
    if output.shape != dy.shape:
        raise ShapeError(f"logsoftmax shapes differ: {output.shape} vs {dy.shape}")
    return dy - np.exp(output) * dy.sum(axis=1, keepdims=True)


def nll_loss(logp: np.ndarray, targets: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. logp.

    The 1/batch averaging lives here and nowhere else.
    """
    targets = np.asarray(targets)
    batch, k = logp.shape
    if batch < 1:
        raise ShapeError("nll_loss requires a non-empty batch")
    if targets.shape != (batch,):
        raise ShapeError(f"targets shape {targets.shape} does not match batch {batch}")
    if targets.min() < 0 or targets.max() >= k:
        raise IndexError(f"target out of range [0, {k})")
    picked = logp[np.arange(batch), targets]
    loss = DTYPE(-(picked.sum(dtype=DTYPE) / DTYPE(batch)))
    dlogp = np.zeros_like(logp)
    dlogp[np.arange(batch), targets] = DTYPE(-1.0) / DTYPE(batch)
    return loss, dlogp


def sgd_momentum_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
                      learning_rate: float, momentum: float, step_out=None) -> None:
    """In place: v <- momentum*v + grad; param <- param - lr*v. The step lr*v
    is written into step_out when given, which may be grad itself: grad is
    read before the step is written."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, velocity {velocity.shape} differ"
        )
    velocity *= DTYPE(momentum)
    velocity += grad
    param -= np.multiply(DTYPE(learning_rate), velocity, out=step_out)


class LayerCache:
    """Forward-pass values one backward pass will consume."""

    __slots__ = ("saved",)

    def __init__(self, saved):
        self.saved = saved  # one entry per primitive, kind-specific


def layer_forward(spec: LayerSpec, params, x: np.ndarray, labels=None, train: bool = True):
    """Apply the chain to x. Returns (output, cache); cache is None when train=False.

    A chain ending in nllloss needs labels and returns a scalar float32 loss
    in train mode; in test mode the loss step passes log-probabilities
    through unchanged.
    """
    saved = []
    out = x
    for op, p in zip(spec.chain, params):
        if op.kind == LINEAR:
            saved.append(out)
            out = linear_forward(p[0], p[1], out)
        elif op.kind == RELU:
            saved.append(out)
            out = relu_forward(out)
        elif op.kind == LOGSOFTMAX:
            out = logsoftmax_forward(out)
            saved.append(out)
        elif op.kind == NLLLOSS:
            if not train:
                saved.append(None)
                continue
            if labels is None:
                raise ProtocolOrderError("loss layer reached without labels")
            loss, dlogp = nll_loss(out, labels)
            saved.append(dlogp)
            out = loss
        else:  # identity
            saved.append(None)
    return out, (LayerCache(saved) if train else None)


def layer_backward(spec: LayerSpec, params, opt: OptimizerState, cache: LayerCache,
                   dy=None, input_grad: bool = True) -> np.ndarray | None:
    """Backward through the chain, updating parameters in place.

    dy is the incoming gradient w.r.t. the layer output; it must be None for
    a chain ending in nllloss (the loss gradient is taken from the cache).
    Returns the gradient w.r.t. the layer input. With input_grad false it
    returns None and stops at the chain's first linear, whose input gradient
    and everything below it no one reads; the parameter updates are the same.
    """
    if cache is None:
        raise ProtocolOrderError("backward without a cached forward pass")
    g = dy
    for j in range(len(spec.chain) - 1, -1, -1):
        op = spec.chain[j]
        if op.kind == NLLLOSS:
            if g is not None:
                raise ProtocolOrderError("loss layer received an upstream gradient")
            g = cache.saved[j]
        elif op.kind == LINEAR:
            w, b = params[j]
            needed = input_grad or any(o.kind == LINEAR for o in spec.chain[:j])
            dw, db, dx = linear_backward(cache.saved[j], w, g, dw_out=opt.scratch(w.shape),
                                         input_grad=needed)
            vw, vb = opt.velocity[j]
            # velocity += dw has read dw before the step overwrites it
            sgd_momentum_step(w, dw, vw, opt.learning_rate, opt.momentum, step_out=dw)
            sgd_momentum_step(b, db, vb, opt.learning_rate, opt.momentum)
            if dx is None:
                return None
            g = dx
        elif op.kind == RELU:
            g = relu_backward(cache.saved[j], g)
        elif op.kind == LOGSOFTMAX:
            g = logsoftmax_backward(cache.saved[j], g)
        # identity: gradient passes through
    return g if input_grad else None


def batch_indices(n: int, batch_size: int, shuffle: bool, seed: int, epoch: int):
    """Deterministic mini-batch index arrays for one epoch."""
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch), 0x5ba7c]))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]
