"""Counter-based random number streams.

Every stream is addressed by (seed, phase, iteration, counter), with seed
in [0, 2**64), iteration in [0, 2**28) and counter in [0, 2**32); other
values raise ConfigError.  The four coordinates key a Philox generator
injectively, so streams with distinct coordinates are statistically
independent.  Philox reaches any word of a stream directly (`_fill`), so
a batch is split by word offset within its stream, and its blocks give
the words of one serial draw on any number of threads.

Normal variates (mixture.sample_mixture) are inverse-CDF images of the
uniform stream rather than ziggurat/Box-Muller draws, so that sample i
always consumes a fixed range of words of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

PHASES = ("pilot", "init", "final_is", "baseline")
_PHASE_CODE = {name: i for i, name in enumerate(PHASES)}

# key bits of each integer coordinate; values must lie in [0, 2**bits)
_COORD_BITS = {"seed": 64, "iteration": 28, "counter": 32}

# smallest uniform fed to ndtri; Generator.random can return exactly 0.0
_U_MIN = 2.0 ** -53


@dataclass(frozen=True)
class RngStream:
    """Coordinates of an independent random stream."""

    seed: int
    phase: str = "pilot"
    iteration: int = 0
    counter: int = 0

    def __post_init__(self):
        if self.phase not in _PHASE_CODE:
            raise ValueError(f"unknown phase {self.phase!r}; expected one of {PHASES}")
        for name, bits in _COORD_BITS.items():
            if not 0 <= getattr(self, name) < 2**bits:
                raise ConfigError(
                    f"{name} must lie in [0, 2**{bits}), got {getattr(self, name)}")

    def child(self, **coords) -> "RngStream":
        """Derive a stream with the named coordinates (phase, iteration,
        counter) replaced."""
        return replace(self, **coords)

    def _key(self) -> int:
        # 128-bit Philox key: seed in the high 64 bits, then phase,
        # iteration, and counter; __post_init__ keeps each in its field
        return ((self.seed << 64) | (_PHASE_CODE[self.phase] << 60)
                | (self.iteration << 32) | self.counter)

    def _fill(self, out: np.ndarray, start: int) -> np.ndarray:
        """Write the uniforms of words [start, start + out.size) into the 1-d out."""
        bits = np.random.Philox(key=self._key())
        bits.advance(start // 4)    # a Philox counter step yields 4 words
        bits.random_raw(start % 4)
        np.random.Generator(bits).random(out=out)
        # keep strictly inside (0,1) for downstream inverse-CDF use
        return np.maximum(out, _U_MIN, out=out)
