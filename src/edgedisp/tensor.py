"""Dense tensors with reverse-mode automatic differentiation.

Everything in this package (feature extraction, cost aggregation, losses)
is expressed through :class:`Tensor`. Forward results are computed eagerly
with numpy. Every operation, here and in :mod:`edgedisp.ops`, returns
``make_op(result, parents, backward)``: when any parent needs gradients
the result records its parents and the ``backward`` closure, and
``backward()`` on a scalar loss replays the records in exact reverse
execution order. Closures add their gradients with ``accumulate_grad``
and skip parents for which ``needs_grad`` is false.

Backward consumes the tape it replays. Once a recorded node's closure has
run (or the replay finds the node unreached), the node drops its closure,
its parents and its cotangent, so each intermediate's activations and
cotangent are freed as soon as no node still to be replayed needs them.
Leaves keep their gradients. A consumed node keeps its value but not the
graph behind it: a second ``backward()`` that reaches it raises
``RuntimeError``.

Inside ``with no_grad():`` ``make_op`` records nothing, whatever the
parents: results are plain values with no parents and no closure, so a
pass with frozen weights (inference, validation, batch-norm
recalibration) keeps no tape alive. The context nests and restores the
previous state on exit, also when the body raises.

All arithmetic is float64 with a fixed (row-major) summation order, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

_ids = itertools.count()
_recording = True   # False inside no_grad()


class Tensor:
    """N-dimensional float64 array, optionally tracked for autodiff.

    ``_parents`` and ``_backward`` are filled in by the op that produced
    the tensor; leaves have neither. ``backward()`` empties ``_parents``
    and sets ``_backward`` to ``_consumed`` on every node it replays.
    ``_id`` is a global creation counter used to replay the tape in
    reverse execution order.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._id = next(_ids)

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad})"

    # -- autodiff core --------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf,
        consuming the recorded graph behind it."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        # Records were appended in execution order; _id sorting restores it
        # exactly even when the graph was built from several subexpressions.
        # Popping from the end replays the highest _id first and leaves the
        # list holding no node already replayed.
        order = sorted(_collect_tape(self), key=lambda t: t._id)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue   # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _consumed, (), None

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other)

        def bwd(g):
            accumulate_grad(a, _unbroadcast(g, a.data.shape))
            accumulate_grad(b, _unbroadcast(g, b.data.shape))

        return make_op(np.add(a.data, b.data), (a, b), bwd)

    __radd__ = __add__

    def __neg__(self):
        return make_op(-self.data, (self,), lambda g: accumulate_grad(self, -g))

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        a, b = self, _as_tensor(other)

        def bwd(g):
            if needs_grad(a):
                accumulate_grad(a, _unbroadcast(g * b.data, a.data.shape))
            if needs_grad(b):
                accumulate_grad(b, _unbroadcast(g * a.data, b.data.shape))

        return make_op(np.multiply(a.data, b.data), (a, b), bwd)

    __rmul__ = __mul__

    # -- nonlinearities -------------------------------------------------------
    # Masks and signs that only the gradient needs are built inside the
    # closure, so an untaped forward does not compute them.

    def relu(self):
        return make_op(np.maximum(self.data, 0.0), (self,),
                       lambda g: accumulate_grad(self, g * (self.data > 0)))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return make_op(y, (self,), lambda g: accumulate_grad(self, g * y * (1.0 - y)))

    def log(self):
        return make_op(np.log(self.data), (self,),
                       lambda g: accumulate_grad(self, g / self.data))

    def abs(self):
        return make_op(np.abs(self.data), (self,),
                       lambda g: accumulate_grad(self, g * np.sign(self.data)))

    def clamp(self, lo: float, hi: float):
        """Clip values; gradient passes through only inside [lo, hi]."""
        def bwd(g):
            accumulate_grad(self, g * ((self.data >= lo) & (self.data <= hi)))

        return make_op(np.clip(self.data, lo, hi), (self,), bwd)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            accumulate_grad(self, np.broadcast_to(g, self.data.shape))

        return make_op(self.data.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def max(self, axis: int, keepdims: bool = False):
        """Max along one axis; ties send the gradient to the first maximum."""
        y = self.data.max(axis=axis, keepdims=True)

        def bwd(g):
            idx = np.expand_dims(self.data.argmax(axis=axis), axis)
            gg = g if keepdims else np.expand_dims(g, axis)
            gx = np.zeros_like(self.data)
            np.put_along_axis(gx, idx, np.take_along_axis(gx, idx, axis) + gg, axis)
            accumulate_grad(self, gx)

        return make_op(y if keepdims else np.squeeze(y, axis=axis), (self,), bwd)

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return make_op(self.data.reshape(shape), (self,),
                       lambda g: accumulate_grad(self, g.reshape(self.data.shape)))

    def __getitem__(self, key):
        def bwd(g):
            gx = np.zeros(self.data.shape)
            gx[key] += g
            accumulate_grad(self, gx)

        return make_op(self.data[key], (self,), bwd)


# -- helpers ------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Record no op in the body: every result is an untracked value."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def make_op(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result; records ``parents`` and the ``backward`` closure
    (cotangent of the output -> gradients accumulated into the parents)
    only when some parent needs gradients and no ``no_grad`` is open."""
    out = Tensor(data)
    if _recording and any(needs_grad(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = True
    return out


def _consumed(g: np.ndarray) -> None:
    """The closure of a node whose graph an earlier ``backward()`` freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() "
                       "already consumed; build the graph again")


def needs_grad(t: Tensor) -> bool:
    """True for a leaf that requires gradients and for any recorded op."""
    return t.requires_grad or t._backward is not None


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Sum gradients across fan-out; ``g`` must have the shape of ``t``."""
    if not t.requires_grad:
        return
    if np.shape(g) != t.data.shape:
        raise ValueError(f"gradient shape {np.shape(g)} != tensor shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Invert numpy broadcasting by summing over expanded axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _collect_tape(root: Tensor) -> list:
    """All recorded ops reachable from ``root`` (iterative DFS)."""
    seen = set()
    tape = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tape.append(node)
        stack.extend(node._parents)
    return tape
