"""Square gridworld contaminated by circular pollution clouds.

Coordinates are (x, y) cell indices with (0, 0) the top-left corner; x
grows to the right and y grows downward.  A cloud occupies a Euclidean
disc of cells around its center, clipped at the grid borders, with
intensity 1.0 at the center falling off linearly toward the rim.  The
searcher senses only the cell it occupies, so a cloud counts as located
exactly when the searcher stands on one of its support cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

Cell = tuple[int, int]

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
DIRECTION_NAMES = ("up", "down", "left", "right")
# (dx, dy) per direction; up decreases y because y grows downward.
DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0))

# How a seed becomes draws: default_rng((seed, stream))'s raw words, decoded by WordTape.
RNG_CONTRACT = "pcg64/default_rng(seed,stream)/word-tape-1"
# Raw words a WordTape reads at a time, at least: enough that the numpy call
# costs little per word, few enough that a block's Python ints stay small.
_TAPE_BLOCK = 1024


def make_rng(seed: int, stream: int = 0) -> WordTape:
    """default_rng((seed, stream))'s draws as a WordTape, equal on any platform."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return WordTape(np.random.default_rng((int(seed), int(stream))).bit_generator.random_raw)


class WordTape:
    """A generator's random() and integers(n) draws, decoded from raw words.

    The tape reads a fresh PCG64 generator's raw 64-bit words in blocks
    and decodes them as numpy's Generator does, so the draws equal the
    generator's own, in the same order, at a fraction of a scalar numpy
    call's cost:

    - random() is (w >> 11) * 2**-53;
    - a 32-bit draw takes the buffered high half of an earlier word if
      there is one, else a new word's low half, buffering its high half;
    - integers(n) is Lemire's method: m = (32-bit draw) * n, redrawn
      while its low 32 bits are below (2**32 - n) % n, gives m >> 32;
      integers(1) draws nothing.

    words[pos] is the next unused word and half the buffered high half
    (None when empty).  A hot loop may read words and advance pos itself
    after ensure(k), and must write pos and half back.
    """

    __slots__ = ("words", "pos", "half", "_raw", "_consumed")

    def __init__(self, random_raw):
        self._raw = random_raw
        self.words: list[int] = []
        self.pos = 0
        self.half: int | None = None
        self._consumed = 0  # words used before words[0]

    @property
    def used(self) -> int:
        """Words used since the tape began."""
        return self._consumed + self.pos

    def ensure(self, k: int) -> None:
        """Make words hold at least k unused words from pos on; pos may move."""
        if len(self.words) - self.pos < k:
            self._consumed += self.pos
            del self.words[:self.pos]
            self.words += self._raw(max(k, _TAPE_BLOCK)).tolist()
            self.pos = 0

    # random() and integers() read words[pos] inline, without a helper call:
    # they run once or more per decision of every training episode.

    def random(self) -> float:
        """A float in [0, 1), as Generator.random()."""
        pos = self.pos
        try:
            word = self.words[pos]
        except IndexError:
            self.ensure(1)
            pos = self.pos
            word = self.words[pos]
        self.pos = pos + 1
        return (word >> 11) * 2**-53

    def integers(self, n: int) -> int:
        """An int in [0, n), as Generator.integers(n) for 1 <= n <= 2**32."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, not {n}")
        if n == 1:
            return 0
        while True:
            half = self.half
            if half is None:  # a new word: use its low half, buffer the high half
                pos = self.pos
                try:
                    word = self.words[pos]
                except IndexError:
                    self.ensure(1)
                    pos = self.pos
                    word = self.words[pos]
                self.pos = pos + 1
                self.half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                self.half = None
                m = half * n
            # Lemire: accept unless the low half is below (2**32 - n) % n,
            # which is below n, so the modulo is needed only then.
            low = m & 0xFFFFFFFF
            if low >= n or low >= (2**32 - n) % n:
                return m >> 32


# Every searcher, agent and pattern alike, starts in the top-left corner.
START: Cell = (0, 0)


@lru_cache(maxsize=None)
def disc_offsets(diameter: int) -> tuple[tuple[int, int, float], ...]:
    """(dx, dy, intensity) for every cell of an unclipped cloud disc.

    A cell belongs to the disc when its Euclidean distance from the
    center is at most diameter / 2.  Intensity is 1 - 2 * dist / (diameter + 1),
    which stays strictly positive everywhere on the disc.
    """
    if diameter < 1:
        raise ValueError("diameter must be at least 1")
    radius = diameter / 2.0
    reach = diameter // 2
    cells = []
    for dy in range(-reach, reach + 1):
        for dx in range(-reach, reach + 1):
            dist = math.hypot(dx, dy)
            if dist <= radius:
                cells.append((dx, dy, 1.0 - 2.0 * dist / (diameter + 1)))
    return tuple(cells)


@dataclass(frozen=True)
class Cloud:
    """One pollution cloud: center cell, diameter, and clipped support.

    support maps each in-grid cell of the disc to its intensity.
    """

    center: Cell
    diameter: int
    support: dict[Cell, float]


def make_cloud(center: Cell, diameter: int, grid_length: int) -> Cloud:
    cx, cy = center
    if not (0 <= cx < grid_length and 0 <= cy < grid_length):
        raise ValueError("cloud center lies outside the grid")
    support = {}
    for dx, dy, level in disc_offsets(diameter):
        x, y = cx + dx, cy + dy
        if 0 <= x < grid_length and 0 <= y < grid_length:
            support[(x, y)] = level
    return Cloud((cx, cy), diameter, support)


@dataclass
class CloudField:
    """The active clouds of one episode; a field is not changed once made."""

    clouds: list[Cloud]
    grid_length: int

    @cached_property
    def masks(self) -> list[int]:
        """Per cell x * grid_length + y: bit i is set when clouds[i] covers it.

        Stamped once, on first use, so that a hit count is a popcount.
        """
        length = self.grid_length
        masks = [0] * (length * length)
        for i, cloud in enumerate(self.clouds):
            for x, y in cloud.support:
                masks[x * length + y] |= 1 << i
        return masks

    @cached_property
    def levels(self) -> list[float]:
        """Per cell x * grid_length + y: sense() there, stamped once."""
        length = self.grid_length
        levels = [0.0] * (length * length)
        for cloud in self.clouds:
            for (x, y), level in cloud.support.items():
                cell = x * length + y
                if level > levels[cell]:
                    levels[cell] = level
        return levels


def spawn_clouds(grid_length: int, diameter: int, count: int,
                 rng: WordTape) -> CloudField:
    """Spawn count clouds with centers drawn uniformly over all grid cells.

    Centers are independent; overlapping clouds are allowed.  Each cloud
    consumes exactly two integer draws (x then y), so spawn sequences are
    reproducible from the tape's position alone.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    clouds = []
    for _ in range(count):
        x = rng.integers(grid_length)
        y = rng.integers(grid_length)
        clouds.append(make_cloud((x, y), diameter, grid_length))
    return CloudField(clouds, grid_length)


def sense(field: CloudField, pos: Cell) -> float:
    """Pollution level at pos: max over clouds, 0.0 outside every support."""
    best = 0.0
    for cloud in field.clouds:
        level = cloud.support.get(pos, 0.0)
        if level > best:
            best = level
    return best


def move(pos: Cell, direction: int, grid_length: int) -> tuple[Cell, bool]:
    """One clamped step.  Returns (new position, whether the move happened)."""
    dx, dy = DELTAS[direction]
    x, y = pos[0] + dx, pos[1] + dy
    limit = grid_length - 1
    if x < 0 or x > limit or y < 0 or y > limit:
        return pos, False
    return (x, y), True
