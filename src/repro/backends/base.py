"""The ``ArrayBackend`` seam the batched kernels dispatch through.

A backend bundles three things:

* an array-module handle (:attr:`ArrayBackend.xp`) plus
  :meth:`ArrayBackend.asarray` / :meth:`ArrayBackend.to_numpy` transfer,
  so code written against the numpy API can run on a drop-in module
  (CuPy) with explicit host/device boundaries;
* a *fused-kernel registry* (:meth:`ArrayBackend.kernel`): named
  replacements for specific hot loops. A kernel the backend does not
  provide returns ``None`` and the caller keeps its plain-numpy path —
  backends accelerate, they never change which code is correct;
* a Philox fill hook (:meth:`ArrayBackend.philox_uniforms`) the counter
  stream layout routes its block draws through, so a device backend can
  generate randomness where the arrays live.

The numpy backend is the identity on all three axes: no fused kernels,
host arrays, the reference Philox fill — by construction bit-identical
to running without a backend at all.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """One array backend: module handle, transfer, fused kernels.

    Subclasses override :meth:`is_available` (import probe, never
    raising), :attr:`xp`, the transfer pair, and :meth:`kernel`.
    Instances are cheap, stateless handles; the registry in
    :mod:`repro.backends` keeps one singleton per backend so JIT
    compilation caches are shared across call sites.
    """

    #: Registry name (``"numpy"`` / ``"numba"``).
    name: str = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend's optional dependency is importable.

        Must never raise — callers use this to decide between running
        and falling back.
        """
        return False

    @property
    def xp(self):
        """The backend's array module (numpy-compatible API)."""
        raise NotImplementedError

    def asarray(self, array) -> object:
        """Move/convert ``array`` into the backend's array type."""
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Bring a backend array back to a host numpy array."""
        raise NotImplementedError

    def kernel(self, name: str):
        """The backend's fused kernel registered under ``name``.

        Returns a callable with the kernel's documented host-array
        signature, or ``None`` when this backend does not fuse that
        loop (the caller then keeps its plain-numpy path). Known
        kernel names:

        * ``"weighted_migrate"`` — the weighted counter kernel's
          per-task resolve (slot choice + migration Bernoulli from one
          fused uniform), see
          :meth:`repro.core.protocols.SelfishWeightedProtocol._execute_round_batch_counter`.
        * ``"uniform_pvals"`` — the uniform kernel's padded
          ``(A, n, Delta + 1)`` multinomial-table build, see
          :meth:`repro.core.protocols.SelfishUniformProtocol.execute_round_batch`.
        """
        return None

    def philox_uniforms(
        self, key: np.ndarray, start_word: int, count: int
    ) -> np.ndarray:
        """``count`` uniforms from the ``key``-ed Philox stream,
        starting at absolute 64-bit word ``start_word``.

        The reference implementation is numpy's Philox with the
        counter advanced block-wise (4 words per counter increment)
        and any sub-block remainder discarded word by word — the exact
        fill :class:`repro.utils.rng.CounterStreams` has always used,
        so routing through the default hook changes nothing bit-wise.
        Device backends may override to generate where their arrays
        live (CuPy's Philox variant differs from numpy's, so such an
        override is law-equivalent, not bit-identical; see the README
        backend matrix).
        """
        bit_generator = np.random.Philox(key=key)
        blocks, remainder = divmod(start_word, 4)
        if blocks:
            bit_generator.advance(blocks)
        generator = np.random.Generator(bit_generator)
        if remainder:
            generator.random(remainder)
        return generator.random(count)
