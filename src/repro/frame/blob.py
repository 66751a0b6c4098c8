"""Blob: Caffe's named tensor with paired data and gradient storage.

Storage is lazy: a blob created during net construction knows its shape but
allocates no memory until data or diff is touched, so pricing a 1024-node
ResNet-50 run does not allocate gigabytes of activations.

Learnable parameters are deferred the same way. A layer registers each
weight as a shape-known blob plus a pending fill (:meth:`Blob.defer`), so
``shape``, ``count``, ``nbytes`` and ``Net.param_bytes()`` are exact while
nothing is drawn: pricing, partitioning, serving and tracing a net never
allocate its weights.

Draw order is preserved exactly. Fills that draw from a generator wait in
that generator's queue, in build order. The whole queue is drawn, in order,
before the first read or write of any of its blobs' ``data`` and before any
layer draws from the generator itself (:func:`settle`, used by dropout).
So every weight, and every later draw, gets the numbers an eager build
gave, even when several nets share one generator. A caller that draws from
the generator between building and the first touch would shift every
weight; the flush raises :class:`~repro.errors.OutOfBandDrawError` instead.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from repro.errors import OutOfBandDrawError, ShapeError

#: ``fill(rng)`` returns a parameter's initial value (``rng`` is None for
#: fills that draw nothing).
Fill = Callable[[np.random.Generator | None], np.ndarray]


class _FillQueue:
    """Pending fills on one generator, drawn together in enqueue order."""

    def __init__(self, rng: np.random.Generator | None) -> None:
        self.rng = rng
        self.fills: list[tuple[Blob, Fill]] = []
        self.state: dict | None = None

    def push(self, blob: "Blob", fill: Fill) -> None:
        if not self.fills and self.rng is not None:
            self.state = self.rng.bit_generator.state
        self.fills.append((blob, fill))
        blob._pending = self

    def flush(self) -> None:
        if self.fills and self.rng is not None and self.rng.bit_generator.state != self.state:
            raise OutOfBandDrawError(
                f"generator drawn from before its {len(self.fills)} pending "
                f"parameter fill(s) (first: {self.fills[0][0].name!r}); draw "
                "only after touching a weight, or use a separate generator"
            )
        fills, self.fills = self.fills, []
        for blob, fill in fills:
            blob._pending = None
            blob._data = np.asarray(fill(self.rng), dtype=blob.dtype)


#: Live queues by ``id(rng)``. Generators cannot be weak-referenced, so the
#: queue holds its generator: an id cannot be reused while its entry lives.
_QUEUES: weakref.WeakValueDictionary[int, _FillQueue] = weakref.WeakValueDictionary()


def settle(rng: np.random.Generator) -> np.random.Generator:
    """Draw every fill pending on ``rng``, then return it for a draw of its own."""
    queue = _QUEUES.get(id(rng))
    if queue is not None:
        queue.flush()
    return rng


class Blob:
    """A named tensor with ``data`` and ``diff`` arrays of the same shape."""

    def __init__(self, name: str, shape: tuple[int, ...] = (), dtype=np.float32) -> None:
        self.name = name
        self.dtype = np.dtype(dtype)
        self._shape: tuple[int, ...] = tuple(int(s) for s in shape)
        self._data: np.ndarray | None = None
        self._diff: np.ndarray | None = None
        self._pending: _FillQueue | None = None
        #: Per-blob learning-rate and weight-decay multipliers (Caffe's
        #: ``lr_mult`` / ``decay_mult``), honored by the solver.
        self.lr_mult: float = 1.0
        self.decay_mult: float = 1.0

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Current logical shape."""
        return self._shape

    @property
    def count(self) -> int:
        """Total number of elements."""
        n = 1
        for s in self._shape:
            n *= s
        return n if self._shape else 0

    @property
    def nbytes(self) -> int:
        """Payload size of the data array in bytes."""
        return self.count * self.dtype.itemsize

    def reshape(self, shape: tuple[int, ...]) -> None:
        """Change the logical shape; storage is re-allocated lazily."""
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ShapeError(f"blob {self.name!r}: non-positive shape {shape}")
        if shape != self._shape:
            self._shape = shape
            self._data = None
            self._diff = None

    def defer(self, fill: Fill, rng: np.random.Generator | None = None) -> None:
        """Make ``data`` as ``fill(rng)`` on first touch instead of now.

        With ``rng`` the fill joins that generator's queue (module doc);
        without, it is computed alone.
        """
        if rng is None:
            _FillQueue(None).push(self, fill)
            return
        queue = _QUEUES.get(id(rng))
        if queue is None:
            queue = _QUEUES[id(rng)] = _FillQueue(rng)
        queue.push(self, fill)

    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The value tensor (its pending fill, else zeros, on first touch)."""
        if self._pending is not None:
            self._pending.flush()
        if self._data is None:
            if not self._shape:
                raise ShapeError(f"blob {self.name!r} has no shape yet")
            self._data = np.zeros(self._shape, dtype=self.dtype)
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        if self._pending is not None:
            self._pending.flush()  # advance the generator as an eager fill did
        value = np.asarray(value, dtype=self.dtype)
        if self._shape and value.shape != self._shape:
            raise ShapeError(
                f"blob {self.name!r}: assigned data shape {value.shape} != {self._shape}"
            )
        self._shape = value.shape
        self._data = value

    @property
    def diff(self) -> np.ndarray:
        """The gradient tensor (allocated zeroed on first touch)."""
        if self._diff is None:
            if not self._shape:
                raise ShapeError(f"blob {self.name!r} has no shape yet")
            self._diff = np.zeros(self._shape, dtype=self.dtype)
        return self._diff

    @diff.setter
    def diff(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=self.dtype)
        if self._shape and value.shape != self._shape:
            raise ShapeError(
                f"blob {self.name!r}: assigned diff shape {value.shape} != {self._shape}"
            )
        self._diff = value

    def zero_diff(self) -> None:
        """Reset the gradient accumulator (cheap if never allocated)."""
        if self._diff is not None:
            self._diff.fill(0)

    def has_data(self) -> bool:
        """Whether the data array has been materialized."""
        return self._data is not None

    def __repr__(self) -> str:
        return f"Blob({self.name!r}, shape={self._shape})"
