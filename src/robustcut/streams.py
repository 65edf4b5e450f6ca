"""Deterministic random-stream discipline.

Every random draw in the package comes from a PCG64 generator keyed by
``(seed, purpose tag, *indices)`` through :class:`numpy.random.SeedSequence`.
The rule is: one stream per (seed, purpose); within a Monte-Carlo run of T
trials, trial t consumes row t of the pre-generated draw block.  Results are
therefore bit-reproducible for a fixed seed regardless of chunking, and
independent purposes (solver restarts, hyperplane rounding, all-equal
assignments, sampling) never share a stream.
"""

from __future__ import annotations

import numpy as np

# Purpose tags.  Keep these stable: they are part of the reproducibility
# contract (changing one changes every seeded result downstream).
TAG_SOLVER_INIT = 1
TAG_ROUND = 2
TAG_MC = 3
TAG_GEN = 4
TAG_SAMPLE = 5
TAG_ASSIGN = 6


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the PCG64 generator for ``(seed, *key)``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(k) for k in key]]))
