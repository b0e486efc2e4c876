"""Seeded randomness helpers.

All nondeterminism in a simulation flows through a single root seed so that
every run is reproducible. Subsystems derive independent streams from the
root via :func:`derive`, which keeps one component's draw count from
perturbing another's.
"""

from __future__ import annotations

import random
import zlib


def derive(seed: int, *labels: object) -> random.Random:
    """Derive an independent :class:`random.Random` stream.

    The stream is a deterministic function of *seed* and the *labels*
    identifying the consumer (e.g. ``derive(seed, "channel", 3)``).
    """
    text = ":".join([str(seed), *map(str, labels)])
    mixed = zlib.crc32(text.encode("utf-8")) ^ (seed & 0xFFFFFFFF)
    return random.Random(mixed * 2654435761 % (2**63))


def state_key(rng: random.Random) -> int:
    """State-key form of a generator: its state decides every future draw.

    The full state is a 625-int tuple, so it is folded with the C-level
    tuple hash. The salt of ``hash`` does not matter: keys are compared
    only within one process (and its forked workers).
    """
    return hash(rng.getstate())


__all__ = ["derive", "state_key"]
