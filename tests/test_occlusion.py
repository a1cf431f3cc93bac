import numpy as np
import pytest

from handemg import occlusion as occ
from handemg.errors import DegenerateGeometryError, InvalidInputError


def _camera(width=512, height=512, f=500.0):
    k = np.array([[f, 0.0, width / 2.0], [0.0, f, height / 2.0], [0.0, 0.0, 1.0]])
    return occ.PinholeCamera(intrinsics=k, rotation=np.eye(3),
                             translation=np.zeros(3), width=width, height=height)


def _two_triangle_scene():
    """Back triangle hidden by an equal-world-area front copy at half depth."""
    back = np.array([[-50.0, -50.0, 800.0], [50.0, -50.0, 800.0],
                     [0.0, 50.0, 800.0]])
    front = back.copy()
    front[:, 2] = 400.0   # same world area, double the screen footprint
    return occ.TriangleMesh(vertices=np.vstack([back, front]),
                            triangles=np.array([[0, 1, 2], [3, 4, 5]]))


def test_single_triangle_fully_visible():
    mesh = occ.TriangleMesh(
        vertices=np.array([[-50.0, -50.0, 800.0], [50.0, -50.0, 800.0],
                           [0.0, 50.0, 800.0]]),
        triangles=np.array([[0, 1, 2]]))
    report = occ.self_occlusion_score(mesh, _camera())
    assert report.s_occ == 0.0
    assert report.visible_vertex_flags.all()


def test_two_triangle_half_occluded():
    report = occ.self_occlusion_score(_two_triangle_scene(), _camera())
    assert abs(report.s_occ - 0.5) < 0.02
    assert list(report.visible_vertex_flags) == [False] * 3 + [True] * 3


def test_behind_camera_fully_occluded():
    mesh = occ.TriangleMesh(
        vertices=np.array([[-50.0, -50.0, -800.0], [50.0, -50.0, -800.0],
                           [0.0, 50.0, -800.0]]),
        triangles=np.array([[0, 1, 2]]))
    report = occ.self_occlusion_score(mesh, _camera())
    assert report.s_occ == 1.0


def test_winding_invariance():
    """Flipping a triangle's winding must not change the depth buffer."""
    camera = _camera(64, 64, 80.0)
    verts = np.array([[-30.0, -20.0, 300.0], [25.0, -10.0, 300.0],
                      [0.0, 30.0, 300.0]])
    a = occ.rasterize_depth(occ.TriangleMesh(verts, np.array([[0, 1, 2]])), camera)
    b = occ.rasterize_depth(occ.TriangleMesh(verts, np.array([[0, 2, 1]])), camera)
    assert np.array_equal(a, b)


def test_adjacent_triangles_no_double_cover():
    """The shared edge of a split quad is drawn exactly once (top-left rule)."""
    camera = _camera(128, 128, 160.0)
    quad = np.array([[-40.0, -40.0, 400.0], [40.0, -40.0, 400.0],
                     [40.0, 40.0, 400.0], [-40.0, 40.0, 400.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    both = occ.rasterize_depth(occ.TriangleMesh(quad, tris), camera)
    covered = np.isfinite(both)
    # pixel count equals the sum of the two triangles drawn separately
    n_a = np.isfinite(occ.rasterize_depth(
        occ.TriangleMesh(quad, tris[:1]), camera)).sum()
    n_b = np.isfinite(occ.rasterize_depth(
        occ.TriangleMesh(quad, tris[1:]), camera)).sum()
    assert covered.sum() == n_a + n_b


def test_depth_buffer_values():
    camera = _camera()
    mesh = occ.TriangleMesh(
        vertices=np.array([[-50.0, -50.0, 800.0], [50.0, -50.0, 800.0],
                           [0.0, 50.0, 800.0]]),
        triangles=np.array([[0, 1, 2]]))
    buffer = occ.rasterize_depth(mesh, camera)
    inside = np.isfinite(buffer)
    assert inside.any()
    assert np.abs(buffer[inside] - 800.0).max() < 1e-6  # planar triangle
    assert np.isinf(buffer[0, 0])                       # corner uncovered


def test_perspective_correct_interpolation():
    """A tilted triangle's rasterized depth matches the analytic plane."""
    camera = _camera()
    verts = np.array([[-60.0, 0.0, 400.0], [60.0, 0.0, 800.0],
                      [0.0, 60.0, 600.0]])
    buffer = occ.rasterize_depth(occ.TriangleMesh(verts, np.array([[0, 1, 2]])),
                                 camera)
    ys, xs = np.nonzero(np.isfinite(buffer))
    k = camera.intrinsics
    # plane through the three camera-frame vertices: n . p = d
    n = np.cross(verts[1] - verts[0], verts[2] - verts[0])
    d = n @ verts[0]
    for y, x in zip(ys[::37], xs[::37]):
        ray = np.array([(x + 0.5 - k[0, 2]) / k[0, 0],
                        (y + 0.5 - k[1, 2]) / k[1, 1], 1.0])
        z_true = d / (n @ ray)
        assert abs(buffer[y, x] - z_true) < 1e-6


def test_vertex_weights_are_incident_area_thirds():
    mesh = _two_triangle_scene()
    report = occ.self_occlusion_score(mesh, _camera())
    areas = occ.triangle_areas(mesh.vertices, mesh.triangles)
    assert np.abs(report.vertex_area_weights[:3] - areas[0] / 3.0).max() < 1e-9
    assert np.abs(report.vertex_area_weights[3:] - areas[1] / 3.0).max() < 1e-9


def test_monotone_occluder_family():
    """Growing a front occluder never decreases the occlusion score."""
    scores = []
    camera = _camera()
    # finely tessellated back plane so coverage changes vertex by vertex
    g = np.linspace(-100.0, 100.0, 21)
    gx, gy = np.meshgrid(g, g)
    back = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, 800.0)], axis=1)
    tris = []
    for r in range(20):
        for c in range(20):
            i = r * 21 + c
            tris += [[i, i + 1, i + 22], [i, i + 22, i + 21]]
    for s in np.arange(4.0, 50.0, 5.0):
        quad = np.array([[-s, -s, 400.0], [s, -s, 400.0],
                         [s, s, 400.0], [-s, s, 400.0]])
        verts = np.vstack([back, quad])
        n = len(back)
        faces = np.array(tris + [[n, n + 1, n + 2], [n, n + 2, n + 3]])
        report = occ.self_occlusion_score(occ.TriangleMesh(verts, faces), camera)
        scores.append(report.s_occ)
    assert all(b > a for a, b in zip(scores, scores[1:]))


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        occ.TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))  # bad index
    with pytest.raises(InvalidInputError):
        occ.TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))  # zero area
    with pytest.raises(InvalidInputError):
        occ.PinholeCamera(intrinsics=np.eye(3), rotation=2 * np.eye(3),
                          translation=np.zeros(3), width=8, height=8)
    with pytest.raises(DegenerateGeometryError):
        occ.self_occlusion_score(
            occ.TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
            _camera())
    # non-finite geometry and non-integer resolutions
    tri = np.array([[0, 1, 2]])
    verts = np.array([[-50.0, -50.0, 800.0], [50.0, -50.0, 800.0],
                      [0.0, 50.0, 800.0]])
    for bad in (np.nan, np.inf, -np.inf):
        v = verts.copy()
        v[1, 2] = bad
        with pytest.raises(InvalidInputError):
            occ.TriangleMesh(v, tri)
    good = dict(intrinsics=_camera().intrinsics, rotation=np.eye(3),
                translation=np.zeros(3), width=512, height=512)
    for field, index in (("intrinsics", (0, 0)), ("intrinsics", (0, 2)),
                         ("rotation", (1, 1)), ("translation", (2,))):
        for bad in (np.nan, np.inf):
            fields = dict(good)
            fields[field] = np.array(good[field], dtype=float)
            fields[field][index] = bad
            with pytest.raises(InvalidInputError):
                occ.PinholeCamera(**fields)
    for width in (64.7, 64.0, True, 0):
        with pytest.raises(InvalidInputError):
            occ.PinholeCamera(**dict(good, width=width))
    # finite vertices whose projection overflows a float
    with np.errstate(over="ignore"):
        far = occ.TriangleMesh(np.array([[1e308, 0.0, 1e-3], [0.0, 1.0, 1.0],
                                         [1.0, 0.0, 1.0]]), tri)
        with pytest.raises(InvalidInputError):
            occ.rasterize_depth(far, _camera())


def test_report_carries_the_depth_buffer():
    mesh, camera = _two_triangle_scene(), _camera()
    report = occ.self_occlusion_score(mesh, camera)
    expect = occ.rasterize_depth(occ.transform_to_camera(mesh, camera), camera)
    assert np.array_equal(report.depth_buffer, expect)


# ---------------------------------------------------------------------------
# The vectorised rasterizer and visibility test against the per-triangle and
# per-vertex loops they replaced, which stay here as the references.


def _loop_rasterize_depth(camera_mesh, camera):
    h, w = camera.height, camera.width
    buffer = np.full((h, w), occ.DEPTH_SENTINEL)
    verts = camera_mesh.vertices
    if not len(camera_mesh.triangles):
        return buffer
    u_all, v_all = occ._project(camera, np.where(verts[:, 2:3] > occ._NEAR_Z_MM, verts,
                                                 np.array([0.0, 0.0, 1.0])))
    for tri in camera_mesh.triangles:
        z = verts[tri, 2]
        if z.min() <= occ._NEAR_Z_MM:
            continue
        ux, vy = u_all[tri], v_all[tri]
        area2 = ((ux[1] - ux[0]) * (vy[2] - vy[0])
                 - (vy[1] - vy[0]) * (ux[2] - ux[0]))
        if area2 == 0.0:
            continue
        if area2 < 0:
            tri = tri[[0, 2, 1]]
            z = verts[tri, 2]
            ux, vy = u_all[tri], v_all[tri]
            area2 = -area2
        x0 = max(int(np.floor(ux.min() - 0.5)), 0)
        x1 = min(int(np.ceil(ux.max() - 0.5)), w - 1)
        y0 = max(int(np.floor(vy.min() - 0.5)), 0)
        y1 = min(int(np.ceil(vy.max() - 0.5)), h - 1)
        if x1 < x0 or y1 < y0:
            continue
        pu, pv = np.meshgrid(np.arange(x0, x1 + 1) + 0.5, np.arange(y0, y1 + 1) + 0.5)
        lam = []
        inside = np.ones(pu.shape, dtype=bool)
        for i in range(3):
            ax, ay = ux[(i + 1) % 3], vy[(i + 1) % 3]
            bx, by = ux[(i + 2) % 3], vy[(i + 2) % 3]
            e = (bx - ax) * (pv - ay) - (by - ay) * (pu - ax)
            top_left = (by == ay and bx > ax) or (by < ay)
            inside &= (e > 0) | ((e == 0) & top_left)
            lam.append(e / area2)
        if not inside.any():
            continue
        inv_z = lam[0] / z[0] + lam[1] / z[1] + lam[2] / z[2]
        view = buffer[y0:y1 + 1, x0:x1 + 1]
        np.minimum(view, np.where(inside, 1.0 / inv_z, occ.DEPTH_SENTINEL), out=view)
    return buffer


def _loop_vertex_visibility(camera_mesh, camera, depth_buffer, epsilon_mm=occ.EPSILON_MM,
                            neighborhood=occ.NEIGHBORHOOD):
    half = neighborhood // 2
    verts = camera_mesh.vertices
    visible = np.zeros(len(verts), dtype=bool)
    in_front = verts[:, 2] > occ._NEAR_Z_MM
    u, v = occ._project(camera, np.where(in_front[:, None], verts, np.array([0.0, 0.0, 1.0])))
    for i in np.nonzero(in_front)[0]:
        px, py = int(np.floor(u[i])), int(np.floor(v[i]))
        if not (0 <= px < camera.width and 0 <= py < camera.height):
            continue
        window = depth_buffer[max(py - half, 0):py + half + 1,
                              max(px - half, 0):px + half + 1]
        visible[i] = bool(np.any(np.abs(window - verts[i, 2]) <= epsilon_mm))
    return visible


def _edge_case_scene(seed, width=48, height=40, f=60.0):
    """Random triangles in the camera frame with every rasterizer edge case.

    At z = f a vertex projects to u = x + width / 2, so half-integer x and y
    put vertices on pixel centres and edges through them (exact edge ties).
    Triangles come in both windings; some reach behind the near plane, some
    lie off screen (one vertex projects beyond 2**63 px), some are slivers
    whose projection has area2 == 0, and one covers the whole image.
    """
    rng = np.random.default_rng(seed)
    tie = np.column_stack([rng.integers(-70, 70, (40, 2)) / 2.0, np.full(40, f)])
    free = np.column_stack([rng.uniform(-50.0, 50.0, (30, 2)),
                            rng.uniform(0.5 * f, 3.0 * f, 30)])
    behind = np.column_stack([rng.uniform(-30.0, 30.0, (6, 2)),
                              [0.0, -1.0, 1e-6, -f, 0.5e-6, -1e-9]])
    far = np.array([[3e20, 0.0, f], [-3e20, 5.0, f], [0.0, 1e19, f],
                    [500.0, 400.0, f], [-900.0, -10.0, f]])
    # slivers: three points on one ray through the camera centre project to
    # the same pixel column, so their screen area is exactly zero
    sliver = np.array([[10.0, 0.0, 100.0], [20.0, 0.0, 200.0], [10.0, 10.0, 100.0]])
    big = np.array([[-400.0, -400.0, 2 * f], [400.0, -300.0, 2 * f], [0.0, 500.0, f]])
    verts = np.vstack([tie, free, behind, far, sliver, big])
    n = len(verts)
    tris = [rng.choice(n - 6, 3, replace=False) for _ in range(150)]
    tris += [[n - 6, n - 5, n - 4], [n - 6, n - 4, n - 5], [n - 3, n - 2, n - 1]]
    tris = np.array(tris)
    areas = occ.triangle_areas(verts, tris)
    mesh = occ.TriangleMesh(verts, tris[areas > 1e-6])
    return mesh, _camera(width, height, f)


@pytest.mark.parametrize("chunk_pixels", [None, 97, 1])
def test_rasterizer_matches_triangle_loop(monkeypatch, chunk_pixels):
    """Bit-identical to the per-triangle loop, whatever the chunk budget."""
    if chunk_pixels is not None:
        monkeypatch.setattr(occ, "_CHUNK_PIXELS", chunk_pixels)
    for seed in range(8):
        mesh, camera = _edge_case_scene(seed)
        got = occ.rasterize_depth(mesh, camera)
        expect = _loop_rasterize_depth(mesh, camera)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    # the whole-image triangle's box alone exceeds the default budget
    mesh, camera = _edge_case_scene(8, width=160, height=120)
    if chunk_pixels is None:
        assert camera.width * camera.height > occ._CHUNK_PIXELS
    got = occ.rasterize_depth(mesh, camera)
    assert np.array_equal(got.view(np.int64),
                          _loop_rasterize_depth(mesh, camera).view(np.int64))
    assert np.isfinite(got).all()


def test_rasterizer_edge_case_scene_covers_its_cases():
    """The scene above really has ties, both windings, near-plane rejects,
    off-screen and zero-area triangles."""
    mesh, camera = _edge_case_scene(0)
    u, v = occ._project(camera, np.where(mesh.vertices[:, 2:3] > occ._NEAR_Z_MM,
                                         mesh.vertices, np.array([0.0, 0.0, 1.0])))
    tu, tv, tz = u[mesh.triangles], v[mesh.triangles], mesh.vertices[mesh.triangles, 2]
    area2 = ((tu[:, 1] - tu[:, 0]) * (tv[:, 2] - tv[:, 0])
             - (tv[:, 1] - tv[:, 0]) * (tu[:, 2] - tu[:, 0]))
    front = tz.min(axis=1) > occ._NEAR_Z_MM
    assert (front & (area2 > 0)).any() and (front & (area2 < 0)).any()
    assert (front & (area2 == 0)).any()
    assert (~front).any()
    assert (np.abs(tu[front]).max(axis=1) > 2.0 ** 63).any()
    assert (front & (tu.max(axis=1) < 0)).any() or (front & (tu.min(axis=1) > 48)).any()
    assert np.isin(tu % 1.0, (0.0, 0.5)).all(axis=1).sum() > 10   # exact ties


@pytest.mark.parametrize("neighborhood", [5, 4, 1])
def test_vertex_visibility_matches_vertex_loop(neighborhood):
    width, height, f = 40, 30, 50.0
    camera = _camera(width, height, f)
    rng = np.random.default_rng(7)
    # pixel columns and rows within 2 px of every border, inside, and off image
    cols = np.concatenate([np.arange(-3, 3), np.arange(width - 3, width + 3), [17, 20]])
    rows = np.concatenate([np.arange(-3, 3), np.arange(height - 3, height + 3), [11, 15]])
    pu, pv = (g.ravel() + rng.uniform(0.0, 1.0, g.size) for g in np.meshgrid(cols, rows))
    z = rng.uniform(95.0, 105.0, pu.size)
    # at depth z a point (x, y) projects to (f x / z + width / 2, f y / z + height / 2)
    on_grid = np.column_stack([(pu - width / 2) * z / f, (pv - height / 2) * z / f, z])
    behind = np.column_stack([rng.uniform(-50.0, 50.0, (6, 2)),
                              [0.0, -100.0, 1e-6, -1e-9, 1e-7, -5.0]])
    mesh = occ.TriangleMesh(np.vstack([on_grid, behind]), np.zeros((0, 3), dtype=int))
    # sparse matching depths, so that single window rows and columns decide
    draw = rng.uniform(size=(height, width))
    buffer = np.where(draw < 0.04, rng.uniform(95.0, 105.0, draw.shape),
                      np.where(draw < 0.5, 300.0, occ.DEPTH_SENTINEL))
    got = occ.vertex_visibility(mesh, camera, buffer, neighborhood=neighborhood)
    expect = _loop_vertex_visibility(mesh, camera, buffer, neighborhood=neighborhood)
    assert np.array_equal(got, expect)
    assert 0 < got.sum() < len(got)


def test_mesh_keeps_its_triangle_areas():
    mesh = _two_triangle_scene()
    assert np.array_equal(mesh.areas, occ.triangle_areas(mesh.vertices, mesh.triangles))
    assert not mesh.areas.flags.writeable
    empty = occ.TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))
    assert empty.areas.shape == (0,)
    with pytest.raises(DegenerateGeometryError):
        occ.self_occlusion_score(empty, _camera())
