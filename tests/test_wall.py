"""Tests for the simulated display wall: geometry, compositor, schedulers,
the full cluster render loop and fault injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import Box, DisplayList, HeatmapCmd, LineCmd, RectCmd, TextCmd, get_colormap
from repro.wall import (
    DESKTOP_2MPIXEL,
    DisplayWall,
    FrameMetrics,
    WallGeometry,
    compose_tiles,
    cost_balanced_assignment,
    static_assignment,
)
from repro.util.errors import RenderError, ValidationError


def make_scene(geo: WallGeometry, seed: int = 0) -> DisplayList:
    rng = np.random.default_rng(seed)
    dl = DisplayList(geo.canvas_width, geo.canvas_height, background=(8, 8, 8))
    dl.add(RectCmd(5, 5, geo.canvas_width // 2, geo.canvas_height // 2, (30, 30, 60)))
    dl.add(
        HeatmapCmd(
            10, 10, geo.canvas_width // 3, geo.canvas_height - 20,
            rng.normal(size=(50, 12)), get_colormap("red-green"),
        )
    )
    dl.add(LineCmd(0, 0, geo.canvas_width - 1, geo.canvas_height - 1, (255, 255, 0)))
    dl.add(TextCmd(geo.canvas_width // 2, 12, "WALL TEST", (255, 255, 255)))
    return dl


class TestGeometry:
    def test_canvas_arithmetic_no_bezel(self):
        geo = WallGeometry(rows=2, cols=4, tile_width=100, tile_height=80)
        assert geo.canvas_width == 400 and geo.canvas_height == 160
        assert geo.n_tiles == 8
        assert geo.displayed_pixels == 8 * 100 * 80
        assert geo.canvas_pixels == geo.displayed_pixels

    def test_canvas_arithmetic_with_bezel(self):
        geo = WallGeometry(rows=2, cols=2, tile_width=100, tile_height=80, bezel_px=10)
        assert geo.canvas_width == 210 and geo.canvas_height == 170
        assert geo.displayed_pixels < geo.canvas_pixels

    def test_tile_regions_disjoint_cover(self):
        geo = WallGeometry(rows=2, cols=3, tile_width=50, tile_height=40)
        tiles = geo.tiles()
        assert len(tiles) == 6
        assert [t.tile_id for t in tiles] == list(range(6))
        covered = np.zeros((geo.canvas_height, geo.canvas_width), dtype=int)
        for t in tiles:
            covered[t.region.y : t.region.y1, t.region.x : t.region.x1] += 1
        assert (covered == 1).all()

    def test_tile_at_with_bezel(self):
        geo = WallGeometry(rows=1, cols=2, tile_width=100, tile_height=80, bezel_px=10)
        assert geo.tile_at(50, 40).tile_id == 0
        assert geo.tile_at(105, 40) is None  # bezel gap
        assert geo.tile_at(115, 40).tile_id == 1
        with pytest.raises(ValidationError):
            geo.tile_at(500, 0)

    def test_capability_ratio_vs_desktop(self):
        """§1: a wall gives ~two orders of magnitude over a 2-Mpixel desktop."""
        wall = WallGeometry(rows=3, cols=8, tile_width=2560, tile_height=1600)
        ratio = wall.capability_ratio(DESKTOP_2MPIXEL.displayed_pixels)
        assert ratio > 50  # order-of-magnitude claim territory

    def test_validation(self):
        with pytest.raises(ValidationError):
            WallGeometry(rows=0, cols=1, tile_width=10, tile_height=10)
        with pytest.raises(ValidationError):
            WallGeometry(rows=1, cols=1, tile_width=0, tile_height=10)
        with pytest.raises(ValidationError):
            WallGeometry(rows=1, cols=1, tile_width=10, tile_height=10, bezel_px=-1)
        geo = WallGeometry(rows=1, cols=1, tile_width=10, tile_height=10)
        with pytest.raises(ValidationError):
            geo.tile_region(1, 0)
        with pytest.raises(ValidationError):
            geo.capability_ratio(0)


class TestCompositor:
    def test_compose_reassembles(self):
        rng = np.random.default_rng(3)
        full = rng.integers(0, 256, size=(40, 60, 3), dtype=np.uint8)
        tiles = []
        for y in (0, 20):
            for x in (0, 30):
                tiles.append((Box(x, y, 30, 20), full[y : y + 20, x : x + 30].copy()))
        out = compose_tiles(60, 40, tiles, require_full_coverage=True)
        assert np.array_equal(out, full)

    def test_overlap_rejected(self):
        t = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(RenderError, match="overlap"):
            compose_tiles(20, 20, [(Box(0, 0, 10, 10), t), (Box(5, 5, 10, 10), t)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RenderError, match="match region"):
            compose_tiles(20, 20, [(Box(0, 0, 10, 10), np.zeros((5, 5, 3), dtype=np.uint8))])

    def test_out_of_canvas_rejected(self):
        t = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(RenderError, match="exceeds"):
            compose_tiles(15, 15, [(Box(10, 10, 10, 10), t)])

    def test_coverage_enforcement(self):
        t = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(RenderError, match="uncovered"):
            compose_tiles(20, 20, [(Box(0, 0, 10, 10), t)], require_full_coverage=True)
        out = compose_tiles(20, 20, [(Box(0, 0, 10, 10), t)], background=(9, 9, 9))
        assert tuple(out[15, 15]) == (9, 9, 9)


class TestSchedulers:
    def _tiles(self):
        return WallGeometry(rows=3, cols=4, tile_width=20, tile_height=20).tiles()

    def test_static_assignment_covers_all(self):
        tiles = self._tiles()
        assignment = static_assignment(tiles, 5)
        ids = sorted(t.tile_id for ts in assignment.values() for t in ts)
        assert ids == list(range(12))
        sizes = [len(ts) for ts in assignment.values()]
        assert max(sizes) - min(sizes) <= 1

    def test_cost_balanced_assignment_weights_content(self):
        geo = WallGeometry(rows=1, cols=4, tile_width=50, tile_height=50)
        dl = DisplayList(geo.canvas_width, geo.canvas_height)
        # pile many commands onto tile 0 only
        for i in range(30):
            dl.add(RectCmd(2, 2, 10, 1 + i % 5, (1, 1, 1)))
        assignment = cost_balanced_assignment(geo.tiles(), 2, dl)
        ids = sorted(t.tile_id for ts in assignment.values() for t in ts)
        assert ids == [0, 1, 2, 3]
        # the node holding tile 0 should get fewer other tiles
        for node_tiles in assignment.values():
            if any(t.tile_id == 0 for t in node_tiles):
                assert len(node_tiles) <= 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            static_assignment(self._tiles(), 0)


class TestDisplayWallRendering:
    @pytest.fixture
    def geo(self):
        return WallGeometry(rows=2, cols=3, tile_width=60, tile_height=50)

    @pytest.mark.parametrize(
        "schedule", ["static", "balanced", "dynamic", "workstealing", "rpc"]
    )
    def test_tiled_equals_serial(self, geo, schedule):
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=3, schedule=schedule)
        frame = wall.render(dl)
        ref = wall.render_serial(dl)
        assert np.array_equal(frame.pixels, ref.pixels)

    def test_metrics_populated(self, geo):
        wall = DisplayWall(geo, n_nodes=2, schedule="dynamic")
        frame = wall.render(make_scene(geo))
        m = frame.metrics
        assert m.n_tiles == 6 and m.n_nodes == 2
        assert sum(m.tiles_per_node.values()) == 6
        assert m.frame_seconds > 0
        assert m.parallel_speedup() > 0
        row = m.summary_row()
        assert row["n_tiles"] == 6.0

    def test_dynamic_survives_node_failure(self, geo):
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=3, schedule="dynamic")
        frame = wall.render(dl, fail_nodes={1})
        assert np.array_equal(frame.pixels, wall.render_serial(dl).pixels)
        assert frame.metrics.tiles_per_node[1] == 0
        assert frame.metrics.failed_nodes == (1,)

    def test_rpc_survives_node_failure(self, geo):
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=3, schedule="rpc")
        frame = wall.render(dl, fail_nodes={1})
        assert np.array_equal(frame.pixels, wall.render_serial(dl).pixels)
        assert frame.metrics.tiles_per_node[1] == 0
        assert frame.metrics.failed_nodes == (1,)
        assert sum(frame.metrics.tiles_per_node.values()) == 6

    def test_rpc_cannot_fail_all_nodes(self, geo):
        wall = DisplayWall(geo, n_nodes=2, schedule="rpc")
        with pytest.raises(ValidationError):
            wall.render(make_scene(geo), fail_nodes={0, 1})

    def test_workstealing_survives_multiple_failures(self, geo):
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=4, schedule="workstealing")
        frame = wall.render(dl, fail_nodes={0, 2})
        assert np.array_equal(frame.pixels, wall.render_serial(dl).pixels)

    def test_static_cannot_survive_failure(self, geo):
        wall = DisplayWall(geo, n_nodes=2, schedule="static")
        with pytest.raises(ValidationError, match="cannot survive"):
            wall.render(make_scene(geo), fail_nodes={0})

    def test_cannot_fail_all_nodes(self, geo):
        wall = DisplayWall(geo, n_nodes=2, schedule="dynamic")
        with pytest.raises(ValidationError):
            wall.render(make_scene(geo), fail_nodes={0, 1})

    def test_canvas_size_mismatch_rejected(self, geo):
        wall = DisplayWall(geo, n_nodes=2)
        wrong = DisplayList(10, 10)
        with pytest.raises(RenderError, match="does not match"):
            wall.render(wrong)

    def test_bezel_geometry_renders(self):
        geo = WallGeometry(rows=1, cols=2, tile_width=50, tile_height=40, bezel_px=8)
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=2, schedule="dynamic")
        frame = wall.render(dl)
        # composited canvas keeps the bezel region at background
        bezel_column = frame.pixels[:, 52, :]
        assert (bezel_column == 8).all()

    def test_frame_counter_increments(self, geo):
        wall = DisplayWall(geo, n_nodes=2)
        f1 = wall.render(make_scene(geo))
        f2 = wall.render(make_scene(geo))
        assert f2.metrics.frame_id == f1.metrics.frame_id + 1

    def test_unknown_schedule_rejected(self, geo):
        with pytest.raises(ValidationError):
            DisplayWall(geo, n_nodes=2, schedule="random")

    def test_more_nodes_than_tiles(self):
        geo = WallGeometry(rows=1, cols=2, tile_width=30, tile_height=30)
        dl = make_scene(geo)
        wall = DisplayWall(geo, n_nodes=5, schedule="dynamic")
        frame = wall.render(dl)
        assert np.array_equal(frame.pixels, wall.render_serial(dl).pixels)


class TestScheduleProperty:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_in_process_schedule_matches_serial(self, data):
        """Any in-process schedule, node count and survivable failure set:
        the composite is the serial render's bytes and every tile is
        rendered once, by a live node."""
        schedule = data.draw(
            st.sampled_from(["static", "balanced", "dynamic", "workstealing"]), label="schedule"
        )
        n_nodes = data.draw(st.integers(1, 6), label="n_nodes")
        geo = WallGeometry(
            rows=data.draw(st.integers(1, 3), label="rows"),
            cols=data.draw(st.integers(1, 4), label="cols"),
            tile_width=data.draw(st.integers(8, 40), label="tile_width"),
            tile_height=data.draw(st.integers(8, 40), label="tile_height"),
        )
        fail: set[int] = set()
        if schedule in ("dynamic", "workstealing"):
            fail = data.draw(
                st.sets(st.integers(0, n_nodes - 1), max_size=n_nodes - 1), label="fail"
            )
        dl = make_scene(geo, seed=data.draw(st.integers(0, 3), label="seed"))
        wall = DisplayWall(geo, n_nodes=n_nodes, schedule=schedule)
        frame = wall.render(dl, fail_nodes=fail)
        m = frame.metrics
        assert np.array_equal(frame.pixels, wall.render_serial(dl).pixels)
        assert sum(m.tiles_per_node.values()) == geo.n_tiles
        assert sorted(frame.tile_pixels) == list(range(geo.n_tiles))
        for node in fail:
            assert m.tiles_per_node[node] == 0 and m.busy_seconds[node] == 0.0
        if schedule in ("static", "balanced"):
            plan = (
                static_assignment(geo.tiles(), n_nodes)
                if schedule == "static"
                else cost_balanced_assignment(geo.tiles(), n_nodes, dl)
            )
            assert m.tiles_per_node == {n: len(plan[n]) for n in range(n_nodes)}


class TestFrameMetrics:
    def _metrics(self):
        return FrameMetrics(
            frame_id=1, n_tiles=8, n_nodes=4, frame_seconds=2.0,
            busy_seconds={0: 1.5, 1: 1.5, 2: 1.5, 3: 1.5},
            tiles_per_node={0: 2, 1: 2, 2: 2, 3: 2},
        )

    def test_speedup_and_efficiency(self):
        m = self._metrics()
        assert m.total_busy() == 6.0
        assert m.parallel_speedup() == 3.0
        assert m.efficiency() == 0.75

    def test_imbalance(self):
        m = self._metrics()
        assert m.load_imbalance() == 1.0
        m.busy_seconds = {0: 3.0, 1: 1.0, 2: 1.0, 3: 1.0}
        assert m.load_imbalance() == 2.0

    def test_efficiency_with_failures(self):
        m = self._metrics()
        m.failed_nodes = (3,)
        assert m.efficiency() == 1.0  # 3.0 speedup over 3 live nodes
