"""Software RGB framebuffer over a NumPy array.

All rendering in this reproduction targets this buffer, which stands in
for the original's Java/Swing surface.  Drawing
primitives clip silently at the edges so callers can draw in absolute
canvas coordinates and let tiles crop — that property is what makes the
tiled wall renderer byte-identical to a single-surface render.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import RenderError

__all__ = ["Framebuffer", "Color"]

Color = tuple[int, int, int]


def _check_color(color: Color) -> np.ndarray:
    arr = np.asarray(color, dtype=np.int64)
    if arr.shape != (3,) or (arr < 0).any() or (arr > 255).any():
        raise RenderError(f"color must be 3 ints in [0,255], got {color!r}")
    return arr.astype(np.uint8)


class Framebuffer:
    """A (height, width, 3) uint8 RGB pixel surface with clipped primitives."""

    def __init__(self, width: int, height: int, *, background: Color = (0, 0, 0)) -> None:
        if width < 1 or height < 1:
            raise RenderError(f"framebuffer size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        self.pixels[:] = _check_color(background)

    # ------------------------------------------------------------------ query
    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape

    def get(self, x: int, y: int) -> Color:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise RenderError(f"pixel ({x},{y}) outside {self.width}x{self.height}")
        r, g, b = self.pixels[y, x]
        return (int(r), int(g), int(b))

    # -------------------------------------------------------------- primitives
    def fill(self, color: Color) -> None:
        self.pixels[:] = _check_color(color)

    def fill_rect(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        """Fill [x, x+w) x [y, y+h), clipped to the buffer."""
        c = _check_color(color)
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + w)
        y1 = min(self.height, y + h)
        if x0 < x1 and y0 < y1:
            self.pixels[y0:y1, x0:x1] = c

    def hline(self, x: int, y: int, length: int, color: Color) -> None:
        self.fill_rect(x, y, length, 1, color)

    def vline(self, x: int, y: int, length: int, color: Color) -> None:
        self.fill_rect(x, y, 1, length, color)

    def line(self, x0: int, y0: int, x1: int, y1: int, color: Color) -> None:
        """Bresenham line, clipped per-pixel (segments are short in practice)."""
        c = _check_color(color)
        dx = abs(x1 - x0)
        dy = -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        x, y = x0, y0
        while True:
            if 0 <= x < self.width and 0 <= y < self.height:
                self.pixels[y, x] = c
            if x == x1 and y == y1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x += sx
            if e2 <= dx:
                err += dx
                y += sy

    def blit_array(self, x: int, y: int, block: np.ndarray) -> None:
        """Copy an (h, w, 3) uint8 block at (x, y), clipped."""
        if block.ndim != 3 or block.shape[2] != 3:
            raise RenderError(f"blit block must be (h, w, 3), got {block.shape}")
        bh, bw = block.shape[:2]
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + bw)
        y1 = min(self.height, y + bh)
        if x0 >= x1 or y0 >= y1:
            return
        self.pixels[y0:y1, x0:x1] = block[y0 - y : y1 - y, x0 - x : x1 - x]

    def crop(self, x: int, y: int, w: int, h: int) -> np.ndarray:
        """Copy of the [x, x+w) x [y, y+h) region (must be fully inside)."""
        if not (0 <= x and 0 <= y and x + w <= self.width and y + h <= self.height):
            raise RenderError(
                f"crop ({x},{y},{w},{h}) exceeds {self.width}x{self.height}"
            )
        return self.pixels[y : y + h, x : x + w].copy()

    def nonbackground_fraction(self, background: Color = (0, 0, 0)) -> float:
        """Fraction of pixels differing from ``background`` (used in tests/benches)."""
        bg = _check_color(background)
        return float((self.pixels != bg).any(axis=2).mean())
