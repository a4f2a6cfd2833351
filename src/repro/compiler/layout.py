"""Hardware-aware data layouting (paper §3.4, Method-1).

Feature maps are not stored row-major: the compiler re-tiles them so
that every memory row fetched by the AGUs is fully consumed by the
datapath.  Method-1 picks the tile side from the kernel size ``k``,
stride ``s`` and memory-port width ``d`` (in elements):

1. if the port row holds exactly one ``k x k`` kernel window
   (``k*k == d``), use ``k x k`` tiles, maps one after another;
2. else if ``s`` divides both ``k`` and ``d``, use ``s x s`` tiles
   (sub-blocks that are never re-fetched when the kernel slides);
3. else fall back to ``f x f`` tiles with ``f = gcd(k, d, s)`` and
   interleave the tiles of the ``t`` maps.

Weights are laid out to accompany the feature order: for each fold the
weight words stream contiguously in exactly the order the synergy
neurons consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError


def choose_tile_side(kernel: int, stride: int, port_width: int) -> tuple[int, bool]:
    """Method-1 tile side and whether maps are interleaved.

    Returns ``(side, interleave_maps)``.
    """
    if kernel < 1 or stride < 1 or port_width < 1:
        raise LayoutError(
            f"bad layout parameters kernel={kernel} stride={stride} "
            f"port_width={port_width}"
        )
    if kernel * kernel == port_width:
        return kernel, False
    if stride > 1 and kernel % stride == 0 and port_width % stride == 0:
        return stride, False
    side = math.gcd(math.gcd(kernel, port_width), stride)
    return max(1, side), True


@dataclass(frozen=True)
class FeatureLayout:
    """Tiled layout of a ``(maps, height, width)`` feature tensor.

    Addresses are in elements.  Tiles are ``side x side``; partial edge
    tiles are padded to full tiles so that every tile starts on a port
    row boundary (the pad elements are dead addresses).
    """

    maps: int
    height: int
    width: int
    side: int
    interleave_maps: bool = False

    def __post_init__(self) -> None:
        if min(self.maps, self.height, self.width, self.side) < 1:
            raise LayoutError(f"bad layout dimensions {self}")

    @property
    def tiles_y(self) -> int:
        return -(-self.height // self.side)

    @property
    def tiles_x(self) -> int:
        return -(-self.width // self.side)

    @property
    def tile_elements(self) -> int:
        return self.side * self.side

    @property
    def tiles_per_map(self) -> int:
        return self.tiles_y * self.tiles_x

    @property
    def total_elements(self) -> int:
        """Storage footprint including edge-tile padding."""
        return self.maps * self.tiles_per_map * self.tile_elements

    def address_of(self, map_index: int, y: int, x: int) -> int:
        """Element address of pixel ``(map_index, y, x)``."""
        if not (0 <= map_index < self.maps and 0 <= y < self.height
                and 0 <= x < self.width):
            raise LayoutError(
                f"pixel ({map_index}, {y}, {x}) outside "
                f"{self.maps}x{self.height}x{self.width}"
            )
        tile_y, in_y = divmod(y, self.side)
        tile_x, in_x = divmod(x, self.side)
        tile_index = tile_y * self.tiles_x + tile_x
        if self.interleave_maps:
            # Tiles of the t maps alternate: tile0(map0), tile0(map1), ...
            slot = tile_index * self.maps + map_index
        else:
            slot = map_index * self.tiles_per_map + tile_index
        return slot * self.tile_elements + in_y * self.side + in_x

    def linearize(self, tensor: np.ndarray, pad_value: float = 0.0) -> np.ndarray:
        """Reorder a ``(maps, height, width)`` array into layout order."""
        tensor = np.asarray(tensor)
        if tensor.shape != (self.maps, self.height, self.width):
            raise LayoutError(
                f"tensor shape {tensor.shape} does not match layout "
                f"{(self.maps, self.height, self.width)}"
            )
        flat = np.full(self.total_elements, pad_value, dtype=tensor.dtype)
        for m in range(self.maps):
            for y in range(self.height):
                row_addresses = [self.address_of(m, y, x)
                                 for x in range(self.width)]
                flat[row_addresses] = tensor[m, y]
        return flat

    def delinearize(self, flat: np.ndarray) -> np.ndarray:
        """Invert :meth:`linearize` back to ``(maps, height, width)``."""
        flat = np.asarray(flat)
        if flat.size < self.total_elements:
            raise LayoutError(
                f"flat array has {flat.size} elements, layout needs "
                f"{self.total_elements}"
            )
        out = np.empty((self.maps, self.height, self.width), dtype=flat.dtype)
        for m in range(self.maps):
            for y in range(self.height):
                row_addresses = [self.address_of(m, y, x)
                                 for x in range(self.width)]
                out[m, y] = flat[row_addresses]
        return out

    def window_addresses(self, map_index: int, top: int, left: int,
                         kernel: int) -> list[int]:
        """Addresses of one ``kernel x kernel`` window, row-major."""
        return [
            self.address_of(map_index, top + dy, left + dx)
            for dy in range(kernel)
            for dx in range(kernel)
        ]

    def rows_touched(self, addresses: list[int]) -> int:
        """Distinct memory rows (tile-row granularity) a fetch touches.

        The bandwidth-utilisation metric of paper Fig. 7: fewer rows for
        the same window means better locality.
        """
        return len({addr // self.tile_elements for addr in addresses})


def row_major_layout(maps: int, height: int, width: int) -> FeatureLayout:
    """The naive continuous layout (tile = full row granularity of 1).

    Used as the ablation baseline against Method-1.
    """
    return FeatureLayout(maps=maps, height=height, width=width, side=1,
                         interleave_maps=False)


def method1_layout(maps: int, height: int, width: int, kernel: int,
                   stride: int, port_width: int) -> FeatureLayout:
    """Apply Method-1 to pick the layout of one feature tensor."""
    side, interleave = choose_tile_side(kernel, stride, port_width)
    side = min(side, height, width)
    return FeatureLayout(maps=maps, height=height, width=width,
                         side=max(1, side), interleave_maps=interleave)


@dataclass(frozen=True)
class WeightLayout:
    """Layout of one weighted layer's parameters in DRAM.

    Weights for each fold are contiguous, ordered exactly as the lanes
    consume them: for fold ``(out_chunk, in_slice)`` the block holds
    ``out_count`` rows of ``depth`` words.  Biases follow the weight
    blocks.
    """

    layer: str
    base_address: int
    rows: int       # output neurons / channels
    depth: int      # weights per output (k*k*cin or in_size)
    has_bias: bool = True

    def __post_init__(self) -> None:
        if self.rows < 1 or self.depth < 1:
            raise LayoutError(
                f"weight layout for '{self.layer}' has empty dimensions"
            )
        if self.base_address < 0:
            raise LayoutError("weight base address cannot be negative")

    @property
    def weight_elements(self) -> int:
        return self.rows * self.depth

    @property
    def bias_address(self) -> int:
        return self.base_address + self.weight_elements

    @property
    def total_elements(self) -> int:
        return self.weight_elements + (self.rows if self.has_bias else 0)

    def address_of(self, row: int, index: int) -> int:
        if not (0 <= row < self.rows and 0 <= index < self.depth):
            raise LayoutError(
                f"weight ({row}, {index}) outside {self.rows}x{self.depth}"
            )
        return self.base_address + row * self.depth + index

    def block_address(self, out_start: int, in_start: int) -> int:
        """Start address of the fold block at (out_start, in_start)."""
        return self.address_of(out_start, in_start)

    def check_sizes(self, weight_elements: int,
                    bias: np.ndarray | None = None) -> None:
        """Reject a weight tensor (+bias) that does not fill the layout."""
        if weight_elements != self.weight_elements:
            raise LayoutError(
                f"layer '{self.layer}': weight tensor has {weight_elements} "
                f"elements, layout expects {self.weight_elements}"
            )
        if self.has_bias and bias is not None and np.size(bias) != self.rows:
            raise LayoutError(
                f"layer '{self.layer}': bias has {np.size(bias)} elements, "
                f"expected {self.rows}"
            )

    def views(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """This layer's slots in a flat element-addressed image: the
        ``(rows, depth)`` weight block and the bias vector (``None``
        without bias), as views that read and write ``image`` itself."""
        block = image[self.base_address:self.bias_address]
        bias = image[self.bias_address:self.bias_address + self.rows] \
            if self.has_bias else None
        return block.reshape(self.rows, self.depth), bias

    def linearize(self, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
        """Flatten a weight tensor (+bias) into layout order."""
        weights = np.asarray(weights)
        self.check_sizes(weights.size, bias)
        flat = weights.reshape(self.rows, self.depth).ravel()
        if self.has_bias:
            if bias is None:
                bias = np.zeros(self.rows, dtype=weights.dtype)
            flat = np.concatenate([flat, np.asarray(bias).ravel()])
        return flat
