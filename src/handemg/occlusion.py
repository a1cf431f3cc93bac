"""Hand self-occlusion scoring via z-buffer rasterization.

Pipeline: transform mesh vertices into the camera frame, rasterize every
triangle into a minimal-depth buffer at the camera resolution, then mark a
vertex visible when any depth in the clamped 5x5 pixel window around its
projection agrees with the vertex depth within epsilon = 5 mm. The score is

    s_occ = 1 - sum_{i visible} w_i / sum_i w_i

with vertex weights w_i collecting a third of each incident triangle's area.

Rasterization conventions (declared, since the source formula leaves them
open): pixel centers at (x + 0.5, y + 0.5) with an inclusive top-left
tie-break; perspective-correct depth (1/z interpolated over the screen
triangle); no back-face culling; triangles with any vertex at z <= 1e-6 mm
are rejected whole rather than clipped.

The rasterizer has no per-triangle loop: it sets up every triangle at once
and evaluates the edge functions (Pineda 1988) over all (triangle, pixel)
pairs of the bounding boxes, in chunks of at most `_CHUNK_PIXELS` pairs (a
box larger than that is a chunk of its own), reducing into the buffer with
`np.minimum.at`. Each depth is computed by the same elementwise operations
as a per-triangle loop and the minimum does not depend on order, so the
buffer is bit-identical to that loop's at any chunk budget. Visibility
gathers every vertex's window at once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError

DEPTH_SENTINEL = np.inf
EPSILON_MM = 5.0
NEIGHBORHOOD = 5
_NEAR_Z_MM = 1e-6
_MIN_TRIANGLE_AREA_MM2 = 1e-9
# (triangle, pixel) pairs the rasterizer evaluates at once
_CHUNK_PIXELS = 1 << 14


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle mesh; vertices in mm."""

    vertices: np.ndarray    # (N, 3)
    triangles: np.ndarray   # (M, 3) int
    areas: np.ndarray = field(init=False, compare=False)   # (M,) mm^2, read-only

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float)
        triangles = np.asarray(self.triangles, dtype=int)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise InvalidInputError("vertices must be (N, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise InvalidInputError("triangles must be (M, 3)")
        if not np.isfinite(vertices).all():
            raise InvalidInputError("vertices must be finite")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise InvalidInputError("triangle index out of range")
        areas = triangle_areas(vertices, triangles)
        if triangles.size and areas.min() < _MIN_TRIANGLE_AREA_MM2:
            raise InvalidInputError(
                f"degenerate triangle with area {areas.min():.3g} mm^2")
        areas.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "areas", areas)


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsics K, world->camera extrinsics (R, t), and image resolution."""

    intrinsics: np.ndarray   # 3x3, [[fx,0,cx],[0,fy,cy],[0,0,1]]
    rotation: np.ndarray     # 3x3 world->camera
    translation: np.ndarray  # (3,)
    width: int
    height: int

    def __post_init__(self):
        k = np.asarray(self.intrinsics, dtype=float)
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if k.shape != (3, 3) or not np.isfinite(k).all() or k[0, 0] <= 0 or k[1, 1] <= 0:
            raise InvalidInputError("intrinsics must be finite and 3x3 with fx, fy > 0")
        if r.shape != (3, 3) or not np.isfinite(r).all() \
                or np.abs(r @ r.T - np.eye(3)).max() > 1e-8 or np.linalg.det(r) < 0:
            raise InvalidInputError("rotation must be orthonormal with det +1")
        if t.shape != (3,) or not np.isfinite(t).all():
            raise InvalidInputError("translation must be a finite 3-vector")
        for n in (self.width, self.height):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise InvalidInputError(f"resolution must be positive integers, got {n!r}")
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class OcclusionReport:
    s_occ: float
    visible_vertex_flags: np.ndarray  # (N,) bool
    vertex_area_weights: np.ndarray   # (N,) mm^2
    depth_buffer: np.ndarray          # (height, width) mm, +inf where uncovered


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def transform_to_camera(mesh: TriangleMesh, camera: PinholeCamera) -> TriangleMesh:
    """Apply the rigid world->camera transform to every vertex."""
    v_cam = mesh.vertices @ camera.rotation.T + camera.translation
    return TriangleMesh(vertices=v_cam, triangles=mesh.triangles)


def _project(camera: PinholeCamera, vertices: np.ndarray):
    """Camera-frame points -> pixel coordinates (u, v); z unchanged."""
    k = camera.intrinsics
    z = vertices[:, 2]
    u = k[0, 0] * vertices[:, 0] / z + k[0, 2]
    v = k[1, 1] * vertices[:, 1] / z + k[1, 2]
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise InvalidInputError("a vertex projects beyond the floating-point range")
    return u, v


def _safe_vertices(verts: np.ndarray) -> np.ndarray:
    """Vertices at or behind the near plane replaced by (0, 0, 1)."""
    return np.where(verts[:, 2:3] > _NEAR_Z_MM, verts, np.array([0.0, 0.0, 1.0]))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each count c, concatenated."""
    firsts = np.cumsum(counts) - counts
    return np.arange(firsts[-1] + counts[-1]) - np.repeat(firsts, counts)


def rasterize_depth(camera_mesh: TriangleMesh, camera: PinholeCamera) -> np.ndarray:
    """Minimal-depth buffer (height, width) in mm; +inf where uncovered."""
    h, w = camera.height, camera.width
    buffer = np.full((h, w), DEPTH_SENTINEL)
    tris = camera_mesh.triangles
    if not len(tris):
        return buffer
    u_all, v_all = _project(camera, _safe_vertices(camera_mesh.vertices))
    z, u, v = camera_mesh.vertices[tris, 2], u_all[tris], v_all[tris]   # (M, 3) each
    area2 = ((u[:, 1] - u[:, 0]) * (v[:, 2] - v[:, 0])
             - (v[:, 1] - v[:, 0]) * (u[:, 2] - u[:, 0]))
    # normalize winding so edge functions are >= 0 inside
    flip = area2 < 0
    for a in (z, u, v):
        a[flip] = a[flip][:, [0, 2, 1]]
    area2 = np.where(flip, -area2, area2)
    # pixel bounding boxes, compared and clamped in float so that a far
    # off-screen triangle cannot overflow the integer cast below
    x0 = np.maximum(np.floor(u.min(axis=1) - 0.5), 0.0)
    x1 = np.minimum(np.ceil(u.max(axis=1) - 0.5), w - 1.0)
    y0 = np.maximum(np.floor(v.min(axis=1) - 0.5), 0.0)
    y1 = np.minimum(np.ceil(v.max(axis=1) - 0.5), h - 1.0)
    keep = ((z.min(axis=1) > _NEAR_Z_MM) & (area2 != 0.0)   # whole-triangle near clip
            & (x0 <= x1) & (y0 <= y1))
    if not keep.any():
        return buffer
    z, u, v, area2 = z[keep].T, u[keep].T, v[keep].T, area2[keep]     # z, u, v: (3, K)
    x0, x1, y0, y1 = (b[keep].astype(np.int64) for b in (x0, x1, y0, y1))
    # edge i runs from vertex a = i + 1 to vertex b = i + 2
    ax, ay = np.roll(u, -1, axis=0), np.roll(v, -1, axis=0)
    bx, by = np.roll(u, -2, axis=0), np.roll(v, -2, axis=0)
    dx, dy = bx - ax, by - ay
    # inclusive top-left rule for pixels exactly on an edge
    top_left = ((by == ay) & (bx > ax)) | (by < ay)
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    ends = np.cumsum(nx * ny)
    flat = buffer.ravel()
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + _CHUNK_PIXELS, side="right")),
                   start + 1)
        # the chunk's box rows and box columns, triangle by triangle
        row_t = np.repeat(np.arange(start, stop), ny[start:stop])
        col_t = np.repeat(np.arange(start, stop), nx[start:stop])
        py = y0[row_t] + _ranks(ny[start:stop])
        px = x0[col_t] + _ranks(nx[start:stop])
        pv, pu = py + 0.5, px + 0.5                        # pixel centres
        # (triangle, pixel) pairs, row-major within each box, as a loop over
        # triangles visits them: ri is the pair's box row, ci its box column
        row_nx = nx[row_t]
        col_first = np.cumsum(nx[start:stop]) - nx[start:stop]
        ri = np.repeat(np.arange(len(row_t)), row_nx)
        ci = np.repeat(col_first[row_t - start], row_nx) + _ranks(row_nx)
        inside = np.ones(len(ri), dtype=bool)
        edges = []
        for i in range(3):
            # e = dx * (pv - ay) - dy * (pu - ax); the first product depends
            # only on the pixel's row, the second only on its column
            e = ((dx[i, row_t] * (pv - ay[i, row_t]))[ri]
                 - (dy[i, col_t] * (pu - ax[i, col_t]))[ci])
            inside &= (e > 0) | ((e == 0) & top_left[i, row_t][ri])
            edges.append(e)
        ri, ci = ri[inside], ci[inside]
        t = row_t[ri]
        lam = [e[inside] / area2[t] for e in edges]
        inv_z = lam[0] / z[0, t] + lam[1] / z[1, t] + lam[2] / z[2, t]
        np.minimum.at(flat, py[ri] * w + px[ci], 1.0 / inv_z)
        start = stop
    return buffer


def vertex_visibility(camera_mesh: TriangleMesh, camera: PinholeCamera,
                      depth_buffer: np.ndarray, epsilon_mm: float = EPSILON_MM,
                      neighborhood: int = NEIGHBORHOOD) -> np.ndarray:
    """Visible iff some depth in the clamped window matches the vertex z."""
    if depth_buffer.shape != (camera.height, camera.width):
        raise InvalidInputError("depth buffer does not match the camera resolution")
    half = neighborhood // 2
    verts = camera_mesh.vertices
    visible = np.zeros(len(verts), dtype=bool)
    u, v = _project(camera, _safe_vertices(verts))
    on_image = ((verts[:, 2] > _NEAR_Z_MM) & (u >= 0) & (u < camera.width)
                & (v >= 0) & (v < camera.height))
    idx = np.nonzero(on_image)[0]
    offsets = np.arange(-half, half + 1)
    rows = np.floor(v[idx]).astype(np.int64)[:, None] + offsets     # (K, n)
    cols = np.floor(u[idx]).astype(np.int64)[:, None] + offsets
    row_ok = (rows >= 0) & (rows < camera.height)
    col_ok = (cols >= 0) & (cols < camera.width)
    window = depth_buffer[np.clip(rows, 0, camera.height - 1)[:, :, None],
                          np.clip(cols, 0, camera.width - 1)[:, None, :]]   # (K, n, n)
    match = np.abs(window - verts[idx, 2][:, None, None]) <= epsilon_mm
    match &= row_ok[:, :, None] & col_ok[:, None, :]
    visible[idx] = match.any(axis=(1, 2))
    return visible


def self_occlusion_score(mesh: TriangleMesh, camera: PinholeCamera,
                         epsilon_mm: float = EPSILON_MM,
                         neighborhood: int = NEIGHBORHOOD) -> OcclusionReport:
    """Area-weighted fraction of hidden vertices; deterministic."""
    weights = np.zeros(len(mesh.vertices))
    for corner in range(3):
        np.add.at(weights, mesh.triangles[:, corner], mesh.areas / 3.0)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateGeometryError("mesh has zero surface area; s_occ undefined")
    cam_mesh = transform_to_camera(mesh, camera)
    buffer = rasterize_depth(cam_mesh, camera)
    visible = vertex_visibility(cam_mesh, camera, buffer, epsilon_mm, neighborhood)
    s_occ = 1.0 - weights[visible].sum() / total
    return OcclusionReport(s_occ=float(s_occ), visible_vertex_flags=visible,
                           vertex_area_weights=weights, depth_buffer=buffer)
