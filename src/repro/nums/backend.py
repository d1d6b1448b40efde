"""The array-namespace seam: one place that decides *which* array library
the modular kernels and the fused plan replayer compute on.

The reducer kernels (:mod:`repro.nums.kernels`) and the fused replayer's
pre-lowered closures never import ``numpy`` functions directly on their
hot paths — they go through an :class:`ArrayNamespace`, a minimal adapter
exposing exactly the array operations the kernels need.  The default
namespace *is* numpy (every attribute is the numpy function itself, so
the seam costs one attribute lookup per kernel call) and is the only one
this module builds; any other array library is installed by the caller
through :func:`register_array_namespace` and resolved by name at
plan-lower time, so the same compiled ``EPL1`` artifact replays on it —
no re-trace, no wire-format change.

Scope in this revision: the seam covers the :class:`ReducerKernel`
surface (elementwise modular arithmetic, fused multiply-/add-accumulate)
and the fused replayer's elementwise steps.  NTT-bound steps (rescale,
gadget decomposition) stage through the host via ``to_numpy`` /
``from_numpy`` — that staging boundary is the part that shrinks as more
kernels move behind the seam; bit-identity holds on both sides of it
because the conversions are exact on uint64 data.

Contract (see ``docs/architecture.md``): the namespace registry is
process-level state; registered namespaces (and any kernel tables
converted through them) are inherited copy-on-write by forked serving
workers like every other warmed cache.  Nothing here crosses the worker
boundary — ``EPL1`` artifacts carry no array-backend state, and a
deserialized plan re-resolves its namespace at lower time on the
replaying host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ArrayNamespace",
    "get_array_namespace",
    "register_array_namespace",
]


def _np_add_reduce(x, axis=0):
    return np.add.reduce(x, axis=axis, dtype=np.uint64)


@dataclass(frozen=True)
class ArrayNamespace:
    """The array operations the kernels and fused replayer dispatch through.

    Every callable follows the numpy signature of the same name
    (``add_reduce`` is ``np.add.reduce`` pinned to a uint64 accumulator);
    ``to_numpy`` / ``from_numpy`` are the explicit host-staging boundary
    and must be exact (lossless) on uint64 data.
    """

    name: str
    asarray: Callable = np.asarray
    empty: Callable = np.empty
    zeros: Callable = np.zeros
    zeros_like: Callable = np.zeros_like
    ones: Callable = np.ones
    minimum: Callable = np.minimum
    mod: Callable = np.mod
    where: Callable = np.where
    stack: Callable = np.stack
    broadcast_to: Callable = np.broadcast_to
    moveaxis: Callable = np.moveaxis
    copyto: Callable = np.copyto
    add_reduce: Callable = _np_add_reduce
    to_numpy: Callable = np.asarray
    from_numpy: Callable = np.asarray

    @property
    def is_host(self) -> bool:
        """Whether arrays of this namespace are plain numpy host arrays."""
        return self.name == "numpy"


_REGISTERED: dict[str, ArrayNamespace] = {"numpy": ArrayNamespace(name="numpy")}


def register_array_namespace(namespace: ArrayNamespace) -> None:
    """Install (or replace) a namespace under its own name.

    The extension point for every array library other than numpy — and
    for tests, which register numpy-backed stand-ins to exercise the
    non-default (host-staging) replay path without a GPU.
    """
    _REGISTERED[namespace.name] = namespace


def get_array_namespace(
    name: "str | ArrayNamespace | None" = None,
) -> ArrayNamespace:
    """Resolve a namespace by name (numpy when ``None``).

    Accepts an already-resolved :class:`ArrayNamespace` unchanged so
    kernel constructors can take either form.  Raises ``ValueError`` for
    names nobody registered.
    """
    if isinstance(name, ArrayNamespace):
        return name
    key = name or "numpy"
    try:
        return _REGISTERED[key]
    except KeyError:
        raise ValueError(
            f"unknown array backend {key!r}; registered: "
            f"{tuple(sorted(_REGISTERED))}"
        ) from None
