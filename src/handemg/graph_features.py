"""Graph descriptors of the 21-marker hand-skeleton connectivity graph.

Two deterministic quantities feed the marker-based pose pipeline: Laplacian
eigenvector positional encodings (k = 8) and the all-pairs shortest-path
distance matrix used as a structural attention bias. Both are pure functions
of the graph topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError

N_MARKERS = 21
DEFAULT_K = 8
_CONNECTIVITY_TOL = 1e-9


@dataclass(frozen=True)
class SkeletonGraph:
    """Undirected simple graph over marker indices 0..n_nodes-1."""

    n_nodes: int
    edges: tuple

    def __post_init__(self):
        if self.n_nodes < 1:
            raise InvalidInputError("graph needs at least one node")
        canon = []
        seen = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidInputError(f"self-loop at node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise InvalidInputError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidInputError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_nodes, self.n_nodes))
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    @cached_property
    def _neighbor_lists(self) -> dict:
        """Each node's neighbours in ascending order, built once per graph."""
        return {node: sorted({v for u, v in self.edges if u == node}
                             | {u for u, v in self.edges if v == node})
                for node in range(self.n_nodes)}

    def neighbors(self, node: int) -> list:
        return list(self._neighbor_lists.get(node, ()))


@dataclass(frozen=True)
class GraphPE:
    """Laplacian eigen-decomposition truncated to the k lowest modes."""

    eigenvectors: np.ndarray   # (n_nodes, k), columns orthonormal
    eigenvalues: np.ndarray    # (k,), ascending

    def __post_init__(self):
        vec = np.asarray(self.eigenvectors, dtype=float)
        val = np.asarray(self.eigenvalues, dtype=float)
        if vec.ndim != 2 or val.shape != (vec.shape[1],):
            raise InvalidInputError("eigenvector/eigenvalue shapes disagree")
        if np.any(np.diff(val) < -1e-12):
            raise InvalidInputError("eigenvalues must be ascending")
        gram = vec.T @ vec
        if np.abs(gram - np.eye(vec.shape[1])).max() > 1e-8:
            raise InvalidInputError("eigenvector columns must be orthonormal")
        object.__setattr__(self, "eigenvectors", vec)
        object.__setattr__(self, "eigenvalues", val)


def graph_laplacian(graph: SkeletonGraph, normalized: bool = False) -> np.ndarray:
    """L = D - A, or the symmetric normalized variant I - D^-1/2 A D^-1/2."""
    a = graph.adjacency
    deg = a.sum(axis=1)
    if not normalized:
        return np.diag(deg) - a
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    return np.eye(graph.n_nodes) - inv_sqrt[:, None] * a * inv_sqrt[None, :]


def laplacian_eigenvectors(graph: SkeletonGraph, k: int = DEFAULT_K,
                           normalized: bool = False) -> GraphPE:
    """Lowest-k Laplacian eigenpairs with a deterministic sign convention.

    Signs are fixed so the first entry of each eigenvector with magnitude
    above 1e-12 is positive. Repeated eigenvalues return an orthonormal basis
    of the eigenspace whose individual vectors are basis-ambiguous beyond
    that convention.
    """
    if not (1 <= k <= graph.n_nodes):
        raise InvalidInputError(f"k must be in [1, {graph.n_nodes}], got {k}")
    lap = graph_laplacian(graph, normalized=normalized)
    eigenvalues, eigenvectors = np.linalg.eigh(lap)
    if graph.n_nodes > 1 and eigenvalues[1] < _CONNECTIVITY_TOL:
        raise InvalidInputError("graph is disconnected (repeated zero eigenvalue)")
    eigenvalues = eigenvalues[:k].copy()
    eigenvectors = eigenvectors[:, :k].copy()
    eigenvalues[np.abs(eigenvalues) < _CONNECTIVITY_TOL] = 0.0
    for j in range(k):
        col = eigenvectors[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            eigenvectors[:, j] = -col
    return GraphPE(eigenvectors=eigenvectors, eigenvalues=eigenvalues)


def shortest_path_distances(graph: SkeletonGraph) -> np.ndarray:
    """All-pairs hop counts via BFS from every node; (n, n) int matrix."""
    n = graph.n_nodes
    adj = [graph.neighbors(i) for i in range(n)]
    dist = np.full((n, n), -1, dtype=int)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    if (dist < 0).any():
        raise InvalidInputError("graph is disconnected")
    return dist


def default_marker_graph() -> SkeletonGraph:
    """Star-of-chains marker topology: wrist hub 0, one 4-node chain per finger.

    Finger f (0..4) occupies nodes 1+4f .. 4+4f from knuckle to tip.
    """
    edges = []
    for f in range(5):
        base = 1 + 4 * f
        edges.append((0, base))
        edges += [(base + i, base + i + 1) for i in range(3)]
    return SkeletonGraph(n_nodes=N_MARKERS, edges=tuple(edges))
