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
from functools import lru_cache

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
    """default_rng((seed, stream))'s draws as a WordTape, equal on any platform.

    The one place a draw starts, and so where a drawing command imports numpy.
    """
    import numpy as np
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return WordTape(np.random.default_rng((int(seed), int(stream))).bit_generator.random_raw)


class WordTape:
    """A generator's random() and integers(n) draws, decoded from raw words.

    The tape reads a fresh PCG64 generator's raw 64-bit words in blocks
    and decodes them as numpy's Generator does, so the draws equal the
    generator's own, in the same order, at a fraction of a scalar numpy
    call's cost:

    - random() is (w >> 11) * 2**-53, which the hot loops test inline;
    - a 32-bit draw takes the buffered high half of an earlier word if
      there is one, else a new word's low half, buffering its high half;
    - integers(n) is Lemire's method: m = (32-bit draw) * n, redrawn
      while its low 32 bits are below (2**32 - n) % n, gives m >> 32;
      integers(1) draws nothing.

    words[pos] is the next unused word and half the buffered high half
    (None when empty).  A hot loop may read words[pos] itself, after ensure(k)
    or with ensure(1) on an IndexError, and must leave pos and half as draws would;
    it tests random() < p as the int compare words[pos] < random_bound(p).
    """

    __slots__ = ("words", "pos", "half", "_raw")

    def __init__(self, random_raw):
        self._raw = random_raw
        self.words: list[int] = []
        self.pos = 0
        self.half: int | None = None

    def ensure(self, k: int) -> None:
        """Make words hold at least k unused words from pos on, in place; pos may move."""
        if len(self.words) - self.pos < k:
            del self.words[:self.pos]
            # 8 reservations of k words, so that one refill serves several.
            self.words += self._raw(max(8 * k, _TAPE_BLOCK)).tolist()
            self.pos = 0

    # The draws read words[pos] inline: spawning and scoring draw two integers per cloud.

    @staticmethod
    def random_bound(p: float) -> int:
        """The int b with random() < p exactly when the raw word w < b: w >> 11 is an
        int, so it is below p * 2**53 just when below its ceil.  p >= 1 passes every w."""
        return math.ceil(min(p, 1.0) * 2**53) << 11

    def integers(self, n: int) -> int:
        """An int in [0, n), as Generator.integers(n) for 1 <= n <= 2**32."""
        if not 1 <= n <= 2**32:
            raise ValueError(f"integers needs 1 <= n <= 2**32, not {n}")
        if n == 1:
            return 0
        while True:
            half = self.half
            if half is None:  # a new word: use its low half, buffer the high half
                try:
                    word = self.words[self.pos]
                except IndexError:
                    self.ensure(1)
                    word = self.words[self.pos]
                self.pos += 1
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


class _stamped:
    """A lazy attribute, CloudField's masks and levels: func's value, kept in the
    instance's __dict__ from the first read on; functools.cached_property without
    the lock Python 3.11 takes."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


def make_cloud(center: Cell, diameter: int, grid_length: int) -> dict[Cell, float]:
    """A cloud as its support: each in-grid cell of the disc around center, in
    disc_offsets order, mapped to its intensity; the rule of cloud_row's rows."""
    cx, cy = center
    if not (0 <= cx < grid_length and 0 <= cy < grid_length):
        raise ValueError("cloud center lies outside the grid")
    support = {}
    for dx, dy, level in disc_offsets(diameter):  # rejects a diameter below 1
        x, y = cx + dx, cy + dy
        if 0 <= x < grid_length and 0 <= y < grid_length:
            support[(x, y)] = level
    return support


# At most 2**15 rows, least recently read dropped first: every row of 8 grids
# of side 64, or of 81 grids of the default side 20.
@lru_cache(maxsize=1 << 15)
def cloud_row(grid_length: int, diameter: int, center: int) -> tuple[tuple, tuple]:
    """The cloud centered on cell center = x * grid_length + y: (cells, levels).

    cells are the ints x * grid_length + y of the cloud's support cells and
    levels their intensities, in support order.  The disc is symmetric, so
    cells are also the centers of the clouds that cover center.  A row is
    built the first time its center is read, so the cache grows with the
    centers a process draws or scores, each up to pi / 4 * diameter**2
    cells, not with the whole grid.  make_cloud builds the support and refuses
    a center off the grid.
    """
    support = make_cloud(divmod(center, grid_length), diameter, grid_length)
    return tuple(x * grid_length + y for x, y in support), tuple(support.values())


# At most 1024 masks, least recently read dropped first: every center of a grid
# of side 32 (8.4 MB), or 1.3 MB at the default side 20.
@lru_cache(maxsize=1 << 10)
def cloud_mask(grid_length: int, diameter: int, center: int) -> tuple[int, ...]:
    """A one-cloud field's masks, one tuple shared by every field of that center:
    1 on the cells of cloud_row(grid_length, diameter, center) and 0 elsewhere."""
    mask = [0] * (grid_length * grid_length)
    for cell in cloud_row(grid_length, diameter, center)[0]:
        mask[cell] = 1
    return tuple(mask)


@dataclass
class CloudField:
    """An episode's clouds as center cells x * grid_length + y of one diameter; never changed.
    Its masks (training's) and levels (the demos') are built apart, on first read."""

    clouds: list[int]
    grid_length: int
    diameter: int

    @_stamped
    def masks(self) -> tuple[int, ...] | list[int]:
        """Per cell x * grid_length + y: bit i is set when clouds[i] covers it.

        A one-cloud field of at most 1024 cells reads its center's shared cloud_mask;
        any other is stamped once, on first use, into a list of its own.
        """
        length = self.grid_length
        if len(self.clouds) == 1 and length * length <= 1 << 10:
            return cloud_mask(length, self.diameter, self.clouds[0])
        masks = [0] * (length * length)
        for i, center in enumerate(self.clouds):
            for cell in cloud_row(length, self.diameter, center)[0]:
                masks[cell] |= 1 << i
        return masks

    @_stamped
    def levels(self) -> list[float]:
        """Per cell x * grid_length + y: the highest level of a cloud there, 0.0 if none."""
        length = self.grid_length
        levels = [0.0] * (length * length)
        for center in self.clouds:
            for cell, level in zip(*cloud_row(length, self.diameter, center)):
                if level > levels[cell]:
                    levels[cell] = level
        return levels


def draw_centers(grid_length: int, count: int, rng: WordTape) -> list[int]:
    """count cloud centers as cell ints x * grid_length + y.

    Each takes exactly two integer draws, x then y (Python evaluates the
    left operand first), so draws are reproducible from the tape's
    position alone.
    """
    return [rng.integers(grid_length) * grid_length + rng.integers(grid_length)
            for _ in range(count)]


def spawn_clouds(grid_length: int, diameter: int, count: int,
                 rng: WordTape) -> CloudField:
    """Spawn count clouds with centers drawn uniformly over all grid cells.

    Centers are independent and drawn by draw_centers; overlapping clouds
    are allowed.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return CloudField(draw_centers(grid_length, count, rng), grid_length, diameter)


def sense(field: CloudField, pos: Cell) -> float:
    """Pollution level at the in-grid cell pos: max over clouds, 0.0 outside every support."""
    x, y = pos
    return field.levels[x * field.grid_length + y]


def move(pos: Cell, direction: int, grid_length: int) -> tuple[Cell, bool]:
    """One clamped step.  Returns (new position, whether the move happened)."""
    dx, dy = DELTAS[direction]
    x, y = pos[0] + dx, pos[1] + dy
    limit = grid_length - 1
    if x < 0 or x > limit or y < 0 or y > limit:
        return pos, False
    return (x, y), True
