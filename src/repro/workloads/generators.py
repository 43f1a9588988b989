"""Window-set generators — Section V-A-3 of the paper.

* :class:`RandomGen` (Algorithm 6): each window drawn independently.
  Tumbling: pick a seed range ``r0 ∈ R``, then ``r`` uniformly from the
  multiples ``{2·r0, ..., kr·r0}`` (the paper deliberately avoids
  ``r = r0`` so that ``W⟨r0, r0⟩`` remains a discoverable factor
  window).  Hopping: pick a seed slide ``s0 ∈ S``, ``s`` uniformly from
  ``{2·s0, ..., ks·s0}``, and set ``r = 2·s``.
* :class:`SequentialGen`: same seeds, but multipliers are taken
  sequentially (``2, 3, 4, ...``) — the "dashboards at increasing
  horizons" pattern observed in production.

Both generators resample on duplicate draws (window sets are
duplicate-free by definition); determinism comes from explicit seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import InvalidWindowError
from ..windows.window import Window, WindowSet
from .rng import seeded_pyrandom

#: Paper defaults (Section V-B): seeds and multiplier bound.
DEFAULT_SEED_SLIDES = (5, 10, 20)
DEFAULT_SEED_RANGES = (2, 5, 10)
DEFAULT_MULTIPLIER = 50


@dataclass
class RandomGen:
    """Algorithm 6: the RandomGen window-set generator."""

    seed_slides: tuple[int, ...] = DEFAULT_SEED_SLIDES
    seed_ranges: tuple[int, ...] = DEFAULT_SEED_RANGES
    ks: int = DEFAULT_MULTIPLIER
    kr: int = DEFAULT_MULTIPLIER

    name = "RandomGen"

    def generate(
        self, size: int, tumbling: bool, seed: int
    ) -> WindowSet:
        """Generate a duplicate-free window set of ``size`` windows."""
        if size < 1:
            raise InvalidWindowError(f"window-set size must be >= 1, got {size}")
        rng = seeded_pyrandom(seed)
        windows = WindowSet()
        attempts = 0
        while len(windows) < size:
            attempts += 1
            if attempts > 1000 * size:
                raise InvalidWindowError(
                    "could not generate enough distinct windows; "
                    "seed space too small for requested size"
                )
            window = self._draw(rng, tumbling)
            if window not in windows:
                windows.add(window)
        return windows

    def _draw(self, rng: random.Random, tumbling: bool) -> Window:
        if tumbling:
            r0 = rng.choice(self.seed_ranges)
            multiplier = rng.randint(2, self.kr)
            size = multiplier * r0
            return Window(size, size)
        s0 = rng.choice(self.seed_slides)
        multiplier = rng.randint(2, self.ks)
        slide = multiplier * s0
        return Window(2 * slide, slide)


@dataclass
class SequentialGen:
    """The SequentialGen generator: sequential multipliers per seed."""

    seed_slides: tuple[int, ...] = DEFAULT_SEED_SLIDES
    seed_ranges: tuple[int, ...] = DEFAULT_SEED_RANGES
    ks: int = DEFAULT_MULTIPLIER
    kr: int = DEFAULT_MULTIPLIER

    name = "SequentialGen"

    def generate(self, size: int, tumbling: bool, seed: int) -> WindowSet:
        """Windows with multipliers ``2, 3, ..., size + 1`` on one seed."""
        if size < 1:
            raise InvalidWindowError(f"window-set size must be >= 1, got {size}")
        rng = seeded_pyrandom(seed)
        limit = self.kr if tumbling else self.ks
        if size + 1 > limit:
            raise InvalidWindowError(
                f"sequential multipliers exceed k={limit} for size {size}"
            )
        windows = WindowSet()
        if tumbling:
            r0 = rng.choice(self.seed_ranges)
            for multiplier in range(2, size + 2):
                size_ticks = multiplier * r0
                windows.add(Window(size_ticks, size_ticks))
        else:
            s0 = rng.choice(self.seed_slides)
            for multiplier in range(2, size + 2):
                slide = multiplier * s0
                windows.add(Window(2 * slide, slide))
        return windows
