"""Seeded random-stream management.

Every stochastic component in the repository draws from a named stream
spawned off a single root seed, so that

- two runs with the same seed are bit-identical, and
- adding a new consumer of randomness does not perturb existing streams
  (each stream is keyed by name, not by draw order).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

#: 2**-53: a PCG64 double is the top 53 bits of one output times this.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFFFFFF
#: Raw outputs :class:`BlockDraws` pulls from the generator at a time.
_BLOCK = 512


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from a root seed and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unsuitable).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(root_seed: int, name: str) -> int:
    """Public alias of :func:`_derive_seed` for cross-layer consumers."""
    return _derive_seed(root_seed, name)


def spawn_stream(root_seed: int, name: str) -> np.random.Generator:
    """Return a numpy Generator keyed by ``(root_seed, name)``."""
    return np.random.default_rng(_derive_seed(root_seed, name))


class BlockDraws:
    """Scalar draws of a PCG64 ``Generator``, pulled from it in blocks.

    ``random()`` and ``integers(n)`` return exactly what the generator's
    own ``random()`` and ``integers(n)`` would have returned at the same
    point of its stream, bit for bit, at a fraction of the cost: numpy
    spends about a microsecond on each scalar call, while these read a
    Python list filled ``_BLOCK`` raw outputs at a time by
    ``bit_generator.random_raw``.  They re-implement numpy's algorithms
    (``pcg64_next_double`` and ``random_bounded_uint64_fill`` with its
    32-bit Lemire path, in numpy's C sources):

    - a double is the top 53 bits of one 64-bit output, times 2**-53;
    - ``integers(n)`` for ``n > 1`` is Lemire's multiply-and-reject on
      32-bit draws, and a 32-bit draw is the low half of a fresh 64-bit
      output, its high half kept for the next 32-bit draw (a double
      draw leaves that half-word waiting); ``integers(1)`` draws nothing.

    The helper must own the generator from then on: it reads up to
    ``_BLOCK - 1`` outputs ahead, so drawing from the generator
    directly afterwards would skip them.
    ``tests/test_sim_rng.py`` checks the equivalence against numpy.

    Example:
        >>> draws = BlockDraws(spawn_stream(7, "demo"))
        >>> reference = spawn_stream(7, "demo")
        >>> draws.integers(10) == int(reference.integers(10))
        True
        >>> draws.random() == reference.random()
        True
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError("BlockDraws needs a PCG64 generator")
        self._raw = bit_generator.random_raw
        # Outputs in reverse stream order, so the next one is pop()'s.
        self._words: List[int] = []
        # A half-word the generator already holds is its next 32-bit draw.
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else -1

    def _refill(self) -> List[int]:
        words = self._words = self._raw(_BLOCK).tolist()
        words.reverse()
        return words

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1)."""
        words = self._words or self._refill()
        return (words.pop() >> 11) * _DOUBLE_UNIT

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        words = self._words or self._refill()
        word = words.pop()
        self._half = word >> 32
        return word & _LOW32

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: an int in [0, n), for 1 <= n <= 2**32."""
        if not 0 < n <= 1 << 32:
            raise ValueError(f"n must be in [1, 2**32], got {n}")
        if n == 1:
            return 0
        scaled = self._next32() * n
        if scaled & _LOW32 < n:
            # Reject the 2**32 mod n lowest products, which would bias
            # the result.
            threshold = (1 << 32) % n
            while scaled & _LOW32 < threshold:
                scaled = self._next32() * n
        return scaled >> 32


class RandomStreams:
    """A registry of named, independently seeded random streams.

    Example:
        >>> streams = RandomStreams(seed=7)
        >>> a = streams.get("arrivals")
        >>> b = streams.get("arrivals")
        >>> a is b
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = spawn_stream(self.seed, name)
        return self._streams[name]

    def reset(self) -> None:
        """Forget all streams; subsequent ``get`` calls re-seed from scratch."""
        self._streams.clear()

    def child(self, name: str) -> "RandomStreams":
        """A new registry whose root seed is derived from this one."""
        return RandomStreams(seed=_derive_seed(self.seed, name))
