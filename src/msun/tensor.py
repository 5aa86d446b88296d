"""Dense tensors with reverse-mode automatic differentiation.

Values are float32 N-d arrays recorded define-by-run on a dynamic tape.
Scalar reductions (sum, mean and the fused losses built on them) return
zero-dim float64 tensors so loss arithmetic never quantizes to float32;
everything with rank >= 1 is stored float32.

Backward walks the recorded graph once in reverse topological order and
sums gradients whenever a tensor feeds several consumers. The tape keeps only
what a backward rule reads: a node holds its parents' nodes, the leaf
tensors that require grad and its output dtype, never an input tensor, and
each rule captures arrays, shapes and flags. Backward frees each node's rule
and parents once the rule has run, so a graph runs backward once.

A rule may read an op's input arrays when backward runs: conv keeps its
input, not its im2col columns, and rebuilds the columns for the weight
gradient. So nothing may write into an op's input array between the
forward and its backward, and no op writes into an array it did not
allocate; such a write would silently corrupt the gradients. The in-place
writes that remain are batch norm's running statistics, which no rule
reads, and the optimizer's parameter update, which runs after the backward.

Importing this module sets glibc's allocator policy for the process: freed
heap stays in the process instead of going back to the kernel. A training
step allocates and frees a few hundred MB of transient arrays (batch-norm
temporaries, gradient buffers, blocks of im2col columns); by default glibc
maps the large ones fresh and returns them when freed, so every step faults
the same pages in again (about 5,000 minor faults per desk ``msun`` step).
Off glibc nothing is set.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional, Sequence

import numpy as np

DTYPE = np.float32

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Serve allocations below 1 GiB from heap and never trim it.

    Both thresholds are set: setting either one switches off glibc's dynamic
    mmap threshold, so setting only the trim threshold would pin the mmap
    threshold at its 128 KiB default and map every large array fresh (about
    36,000 faults per desk ``msun`` step). So where glibc rejects the mmap
    threshold (releases that cap it at 32 MiB), the trim threshold is left
    alone too.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):   # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 1 << 30):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_heap()


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class FieldError(ValueError):
    """A spec field holds a value outside its range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class NonFiniteError(ArithmeticError):
    """A NaN or infinity appeared where finite values are required."""


class TapeNode:
    """One recorded operation: op kind, parents, output dtype, backward rule.

    ``parents`` has one entry per input of the op: the input's own node, the
    input itself when it is a leaf that requires grad (a parameter), or None
    for an input that needs no gradient. Input tensors are not kept, so an
    activation no backward rule reads is freed as soon as its caller drops it.
    ``grad_fn`` maps the gradient w.r.t. the node's output to a tuple of
    gradients w.r.t. each input (None for inputs that need none); it captures
    arrays, shapes and flags, not tensors. ``conv2d`` and ``linear`` return
    None for an input that does not require grad and skip the arithmetic that
    would have produced its gradient. ``backward`` clears ``grad_fn`` and
    ``parents`` once the rule has run.
    """

    __slots__ = ("op", "parents", "dtype", "grad_fn")

    def __init__(self, op: str, parents: tuple, dtype: np.dtype, grad_fn: Callable):
        self.op = op
        self.parents = parents
        self.dtype = dtype
        self.grad_fn = grad_fn


_grad_enabled = True
_branch_sink: Optional[list] = None


class no_grad:
    """Disables tape recording inside the context (evaluation fast path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class record_branches:
    """Collects the branch pattern of every nonsmooth op run in the context.

    ReLU records its sign mask, max-pooling its argmax indices, the scalar
    clamp which side it took. Two forward passes with identical patterns
    evaluated the same smooth piece of the function, which is what makes a
    finite-difference comparison against the analytic gradient valid.
    """

    def __enter__(self):
        global _branch_sink
        self._prev = _branch_sink
        _branch_sink = []
        self.patterns = _branch_sink
        return self

    def __exit__(self, *exc):
        global _branch_sink
        _branch_sink = self._prev
        return False

    def fingerprint(self) -> bytes:
        return b"".join(self.patterns)


def _note_branch(payload: bytes) -> None:
    if _branch_sink is not None:
        _branch_sink.append(payload)


def _coerce(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim == 0:
        if arr.dtype != np.float64:
            arr = arr.astype(np.float64)
    elif arr.dtype not in (DTYPE, np.float64):
        arr = arr.astype(DTYPE)
    return arr


class Tensor:
    """Immutable-by-convention dense array with optional gradient tracking.

    Only the optimizer mutates ``data`` (in-place parameter updates between
    steps); everything else treats tensors as values.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[TapeNode] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    # arithmetic sugar over the primitive set
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def relu(self):
        return relu(self)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def records(inputs) -> bool:
    """Whether an op over ``inputs`` records a tape node: gradients are on
    and some input requires grad. Buffers that only a backward reads (max-pool
    masks) are built only when it holds, and an eval-mode conv-BN pair runs as
    one folded convolution only when it does not."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def from_op(data: np.ndarray, op: str, inputs: tuple, grad_fn: Callable) -> Tensor:
    """Wrap an op result, recording a tape node when ``records(inputs)``."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.node = None
    out.requires_grad = False
    if records(inputs):
        out.requires_grad = True
        out.node = TapeNode(op, tuple(_parent(t) for t in inputs), data.dtype, grad_fn)
    return out


def _parent(t: Tensor):
    """What a node keeps of input ``t``: its node, ``t`` itself when it is a
    leaf that requires grad, or None."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _as_operands(a, b, op: str):
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match "
                         "(equal shapes or a scalar operand required)")
    return a, b


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # gradient for a scalar operand that was broadcast against an array
    if tuple(shape) == ():
        return np.asarray(g, dtype=np.float64).sum()
    return g


def add(a, b) -> Tensor:
    a, b = _as_operands(a, b, "add")
    sa, sb = a.shape, b.shape
    return from_op(a.data + b.data, "add", (a, b),
                   lambda g: (_reduce_to(g, sa), _reduce_to(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_operands(a, b, "sub")
    sa, sb = a.shape, b.shape
    return from_op(a.data - b.data, "sub", (a, b),
                   lambda g: (_reduce_to(g, sa), _reduce_to(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_operands(a, b, "mul")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return (_reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape))

    return from_op(ad * bd, "mul", (a, b), grad_fn)


def relu(a: Tensor) -> Tensor:
    """max(a, 0). A pass that neither records nor notes branches builds no
    mask; its negatives come out +0.0 where the masked product gives -0.0."""
    if not records((a,)) and _branch_sink is None:
        return from_op(np.maximum(a.data, 0), "relu", (a,), None)
    mask = a.data > 0
    if _branch_sink is not None:
        _note_branch(np.packbits(mask.reshape(-1)).tobytes())

    def grad_fn(g):
        return (g * mask,)

    return from_op(a.data * mask, "relu", (a,), grad_fn)


def tsum(a: Tensor) -> Tensor:
    val = np.asarray(a.data.sum(dtype=np.float64))
    shape, dt = a.shape, a.data.dtype
    return from_op(val, "sum", (a,),
                   lambda g: (np.full(shape, g, dtype=dt),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    val = np.asarray(a.data.mean(dtype=np.float64))
    shape, dt = a.shape, a.data.dtype
    return from_op(val, "mean", (a,),
                   lambda g: (np.full(shape, g / n, dtype=dt),))


def maximum_scalar(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) for scalar a, with subgradient 0 on the floor branch."""
    if a.size != 1:
        raise ShapeError(f"maximum_scalar expects a scalar, got shape {a.shape}")
    floor = float(floor)
    ad = a.data
    taken = bool(ad > floor)
    _note_branch(b"\x01" if taken else b"\x00")

    def grad_fn(g):
        return (g if taken else np.zeros_like(ad),)

    return from_op(np.asarray(max(float(a.data), floor)), "max_scalar", (a,), grad_fn)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` of every leaf that requires grad reachable from loss.

    Gradients accumulate into existing buffers, so call ``zero_grad`` on the
    parameters first; a tensor used twice receives the sum of both paths.
    A gradient a ``grad_fn`` still returns for an input that does not
    require grad is dropped here.

    A graph runs backward once: each node's rule and parents are freed as
    soon as the rule has run, so the buffers of layers already
    differentiated (conv inputs, normalized inputs) are released while the
    rest of the graph runs. A second backward through a node already run
    raises ``RuntimeError`` naming its op, before any gradient is written.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = _parent(loss)
    if root is None:
        return

    # iterative reverse topological order over the recorded graph, whose
    # vertices are nodes and the leaf tensors that require grad
    order: list = []
    visited: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order.append(v)
            continue
        if id(v) in visited:
            continue
        visited.add(id(v))
        stack.append((v, True))
        if type(v) is TapeNode:
            if v.grad_fn is None:
                raise RuntimeError(f"backward through {v.op} a second time: a graph runs "
                                   "backward once, and the first backward freed its rules")
            for parent in v.parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

    # gradient buffers are borrowed from the grad_fns and only copied once a
    # second consumer needs to accumulate into them
    grads: dict[int, list] = {id(root): [np.ones_like(loss.data), True]}
    for v in reversed(order):
        entry = grads.pop(id(v), None)
        if entry is None:
            continue
        g = entry[0]
        if type(v) is not TapeNode:
            _accumulate(v, g)
            continue
        for parent, pg in zip(v.parents, v.grad_fn(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            cur = grads.get(key)
            if cur is None:
                grads[key] = [pg, False]
            elif cur[1]:
                cur[0] += pg
            else:
                cur[0] = cur[0].astype(parent.dtype, copy=True)
                cur[1] = True
                cur[0] += pg
        v.grad_fn = v.parents = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g.astype(t.data.dtype, copy=False)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-3,
               skip_nonsmooth: bool = False, sample: Optional[Sequence[int]] = None,
               precise: bool = True) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic scalar-valued function of ``x``. The error
    per element is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    The analytic side runs exactly as production does; with ``precise`` the
    numeric oracle feeds float64 copies through the (dtype-polymorphic) ops
    so difference quotients are not drowned by float32 rounding.

    With ``skip_nonsmooth`` the branch pattern (ReLU signs, pool argmaxes,
    clamp sides) of the two perturbed evaluations is compared and elements
    whose pattern differs are excluded: finite differences are only a valid
    oracle on an interval where the function is smooth. ``sample`` restricts
    the check to the given flat indices.
    """
    xt = Tensor(np.array(x.data, copy=True), requires_grad=True)
    loss = f(xt)
    if loss.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    xt.zero_grad()
    backward(loss)
    analytic = xt.grad.astype(np.float64).reshape(-1)
    if not np.all(np.isfinite(analytic)) or not np.isfinite(float(loss.data)):
        raise NonFiniteError("non-finite value in analytic gradient or loss")

    eval_dtype = np.float64 if precise else x.data.dtype
    flat = x.data.astype(eval_dtype).reshape(-1)
    indices = range(flat.size) if sample is None else sample
    worst = 0.0
    with no_grad():
        for idx in indices:
            probe = np.array(flat, copy=True)
            probe[idx] = flat[idx] + h
            xp = probe.reshape(x.shape).astype(eval_dtype)
            probe[idx] = flat[idx] - h
            xm = probe.reshape(x.shape).astype(eval_dtype)
            with record_branches() as rp:
                fp = float(f(Tensor(xp)).data)
            with record_branches() as rm:
                fm = float(f(Tensor(xm)).data)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError(f"non-finite function value at element {idx}")
            if skip_nonsmooth and rp.fingerprint() != rm.fingerprint():
                continue
            # use the step the storage dtype actually realized
            h_eff = float(xp.reshape(-1)[idx]) - float(xm.reshape(-1)[idx])
            if h_eff == 0.0:
                continue
            numeric = (fp - fm) / h_eff
            err = abs(analytic[idx] - numeric) / max(1e-8, abs(analytic[idx]) + abs(numeric))
            if err > worst:
                worst = err
    return worst
