#!/usr/bin/env python
"""Render ForestView on simulated display walls of increasing size.

Reproduces the paper's Figure 3 setting: the same application frame is
rendered on a 2-Mpixel desktop and on tiled walls driven by a simulated
render cluster, demonstrating (a) the pixel-capability ratio the paper
quotes ("about two orders of magnitude"), (b) tile-parallel rendering
with byte-identical compositing, and (c) graceful handling of a dead
render node.  Writes ``wall_frame.ppm`` with the composited wall frame.
"""

from pathlib import Path

import numpy as np

from repro.core import ForestView
from repro.synth import make_case_study
from repro.util.formatting import format_table, human_count
from repro.viz import write_ppm
from repro.wall import DESKTOP_2MPIXEL, DisplayWall, WallGeometry

OUT = Path(__file__).resolve().parent


def main() -> None:
    compendium, truth = make_case_study(n_genes=300, n_conditions=16, seed=11)
    app = ForestView.from_compendium(compendium, cluster_genes=True)
    app.select_genes(list(truth.esr_induced), source="esr")

    # scaled-down walls (tile 320x240) keep the example fast while
    # preserving the tile/node structure; capability ratios are reported
    # for the real projector resolutions alongside.
    walls = [
        ("desktop", WallGeometry(1, 1, 1600, 1200), 1),
        ("2x2 wall", WallGeometry(2, 2, 320, 240), 2),
        ("2x4 wall", WallGeometry(2, 4, 320, 240), 4),
        ("3x8 wall", WallGeometry(3, 8, 320, 240), 8),
    ]
    real_tiles = {"desktop": (1600, 1200), "2x2 wall": (1920, 1080),
                  "2x4 wall": (1920, 1080), "3x8 wall": (2560, 1600)}

    rows = []
    last_frame = None
    for name, geo, n_nodes in walls:
        wall = DisplayWall(geo, n_nodes=n_nodes, schedule="dynamic")
        dl = app.display_list(geo.canvas_width, geo.canvas_height)
        frame = wall.render(dl)
        serial = wall.render_serial(dl)
        assert np.array_equal(frame.pixels, serial.pixels), "tiling must be exact"
        rw, rh = real_tiles[name]
        real_pixels = geo.n_tiles * rw * rh
        rows.append([
            name,
            f"{geo.rows}x{geo.cols}",
            n_nodes,
            human_count(real_pixels),
            f"{real_pixels / DESKTOP_2MPIXEL.displayed_pixels:.1f}x",
            f"{frame.metrics.frame_seconds * 1000:.0f} ms",
            f"{frame.metrics.parallel_speedup():.2f}",
        ])
        last_frame = frame
    print("wall scaling (pixel capability at real projector resolutions):")
    print(format_table(
        ["config", "tiles", "nodes", "pixels", "vs 2Mpx desktop", "frame", "speedup"],
        rows,
    ))

    # --- fault injection ----------------------------------------------------
    geo = WallGeometry(2, 4, 320, 240)
    wall = DisplayWall(geo, n_nodes=4, schedule="dynamic")
    dl = app.display_list(geo.canvas_width, geo.canvas_height)
    healthy = wall.render(dl)
    degraded = wall.render(dl, fail_nodes={2})
    assert np.array_equal(healthy.pixels, degraded.pixels)
    print("\nnode 2 dead for the whole frame: the survivors took every tile from "
          "the dynamic schedule's shared queue; frame is byte-identical.")
    print("tiles per node after failure:", degraded.metrics.tiles_per_node)

    out = OUT / "wall_frame.ppm"
    write_ppm(last_frame.pixels, out)
    print(f"\nwrote {out} ({last_frame.pixels.shape[1]}x{last_frame.pixels.shape[0]})")


if __name__ == "__main__":
    main()
