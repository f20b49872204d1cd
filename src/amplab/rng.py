"""Seeded, domain-separated random streams.

Every random draw in the package is keyed by an integer seed plus a short
chain of string labels ("init", "signs", "spectrum", ...).  Distinct label
chains give statistically independent substreams of the same seed, so one
experiment seed reproducibly keys the initialization, the sign diagonal,
the spectrum and any permutation draws without the streams interfering.

Streams are backed by the counter-based Philox generator; the (seed,
labels) pair maps to a Philox key through ``numpy.random.SeedSequence``,
which is stable across platforms.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *labels: str) -> np.random.Generator:
    """Return an independent generator keyed by ``seed`` and ``labels``."""
    if not labels:
        raise ValueError("at least one domain label is required")
    key = tuple(zlib.crc32(str(lab).encode("utf-8")) for lab in labels)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


# entries per chunked pass: 512 KB of float64, no slower than 128 KB to 1 MB
# at 2^20
CHUNK = 1 << 16


def rademacher(rng: np.random.Generator, n: int,
               dtype=np.float64) -> np.ndarray:
    """n i.i.d. uniform +/-1 entries of ``dtype``.

    The integers k are drawn CHUNK at a time as int32, which takes the
    same bits from the generator as one int64 draw of n, and 2 k - 1 is
    written straight into the result, so no N-sized integer or float64
    temporary is made.  Any dtype gives the values of
    ``2.0 * rng.integers(0, 2, size=n) - 1.0`` and leaves the generator
    where that draw does.
    """
    out = np.empty(n, dtype=dtype)
    for i in range(0, n, CHUNK):
        part = out[i:i + CHUNK]
        np.multiply(rng.integers(0, 2, size=len(part), dtype=np.int32), 2,
                    out=part, casting="unsafe")
        part -= 1
    return out
