"""Rendering substrate: framebuffer, colormaps, heatmaps, dendrograms,
bitmap text, layout boxes, and the region-addressable display list.

This package substitutes NumPy pixel arrays for the original system's
Java/Swing surface: everything renders into those arrays, and the display
list's region rendering is what lets the simulated wall render tiles in
parallel with byte-identical compositing.
"""

from repro.viz.framebuffer import Framebuffer, Color
from repro.viz.colormap import DivergingColormap, COLORMAPS, get_colormap
from repro.viz.heatmap import cell_indices, render_heatmap_block, draw_heatmap
from repro.viz.dendrogram import Segment, dendrogram_segments
from repro.viz.text import draw_text, text_width, render_text_array, GLYPH_WIDTH, GLYPH_HEIGHT
from repro.viz.scene import DisplayList, RectCmd, HeatmapCmd, LineCmd, TextCmd
from repro.viz.layout import Box, hsplit, vsplit, grid_boxes
from repro.viz.ppm import encode_ppm, decode_ppm, write_ppm, read_ppm
from repro.viz.legend import legend_commands

__all__ = [
    "Framebuffer",
    "Color",
    "DivergingColormap",
    "COLORMAPS",
    "get_colormap",
    "cell_indices",
    "render_heatmap_block",
    "draw_heatmap",
    "Segment",
    "dendrogram_segments",
    "draw_text",
    "text_width",
    "render_text_array",
    "GLYPH_WIDTH",
    "GLYPH_HEIGHT",
    "DisplayList",
    "RectCmd",
    "HeatmapCmd",
    "LineCmd",
    "TextCmd",
    "Box",
    "hsplit",
    "vsplit",
    "grid_boxes",
    "encode_ppm",
    "decode_ppm",
    "write_ppm",
    "read_ppm",
    "legend_commands",
]
