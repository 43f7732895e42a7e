"""Random-number-generator helpers.

All stochastic code in the package accepts either an integer seed, ``None`` or
an existing :class:`numpy.random.Generator` and normalises it through
:func:`ensure_rng`.  This keeps experiments reproducible end to end.  (The
routing engine's per-lane randomness is counter-based instead, see
:mod:`repro.utils.counterrng`.)
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {seed!r} as a random generator or seed")
