"""Framed sections over a triangulation and their line-bundle degree vectors.

A framed section assigns an integer covector n_sigma to every cell. Across
each interior edge with endpoints alpha, beta the jump must pair to zero with
alpha - beta, which forces it to be an integer multiple of the primitive
(beta - alpha)^perp. Sections related by a global shift by N are equivalent;
the degree vector (one integer per interior edge, the pairing of the jump with
(beta - alpha)^perp) is a shift invariant and is additive.

Orientation conventions, fixed once: for each interior edge, sigma is the
adjacent cell with the smaller id and alpha the lexicographically smaller
endpoint. Any consistent convention flips signs uniformly per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InvalidSection, UnknownCell
from .lattice_geometry import (
    Covector,
    Triangulation,
    pairing,
    perp,
    primitivize,
    vsub,
)


@dataclass(frozen=True)
class FramedSection:
    """Integer covector per cell id (keys are indices into tri.cells)."""

    values: Mapping[int, Covector] = field(default_factory=dict)

    def __post_init__(self):
        norm = {
            int(k): (int(v[0]), int(v[1])) for k, v in dict(self.values).items()
        }
        object.__setattr__(self, "values", norm)

    def __getitem__(self, cell_id: int) -> Covector:
        return self.values[cell_id]

    def __add__(self, other: "FramedSection") -> "FramedSection":
        if set(self.values) != set(other.values):
            raise UnknownCell("sections defined over different cell sets")
        return FramedSection(
            {c: (v[0] + other.values[c][0], v[1] + other.values[c][1])
             for c, v in self.values.items()}
        )

    def shift(self, n: Sequence[int]) -> "FramedSection":
        return FramedSection(
            {c: (v[0] + int(n[0]), v[1] + int(n[1])) for c, v in self.values.items()}
        )

    def items(self):
        return sorted(self.values.items())


@dataclass(frozen=True)
class LineBundleClass:
    """Integer degree per interior edge (keys are indices into tri.edges)."""

    degrees: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "degrees", {int(k): int(v) for k, v in dict(self.degrees).items()}
        )

    def __add__(self, other: "LineBundleClass") -> "LineBundleClass":
        if set(self.degrees) != set(other.degrees):
            raise UnknownCell("degree vectors over different edge sets")
        return LineBundleClass(
            {e: d + other.degrees[e] for e, d in self.degrees.items()}
        )

    def items(self):
        return sorted(self.degrees.items())


def _require_cells_match(tri: Triangulation, s: FramedSection) -> None:
    expected = set(range(len(tri.cells)))
    if set(s.values) != expected:
        raise UnknownCell(
            f"section assigns cells {sorted(s.values)}, triangulation has {sorted(expected)}"
        )


def _degree_frames(tri: Triangulation) -> list[tuple[int, int, int, Covector, Covector]]:
    """(edge id, sigma, sigma', alpha - beta, (beta - alpha)^perp) per interior
    edge, under the fixed orientation conventions."""
    frames = []
    for e_id, e in enumerate(tri.edges):
        if not e.interior:
            continue
        sigma, sigma_p = sorted(e.cells)
        p, q = tri.edge_points(e)
        alpha, beta = (p, q) if p < q else (q, p)
        frames.append((e_id, sigma, sigma_p, vsub(alpha, beta), perp(vsub(beta, alpha))))
    return frames


def _degrees(frames, s: FramedSection) -> LineBundleClass:
    """The degree vector of s over the given frames; InvalidSection where an
    interior-edge constraint fails."""
    values = s.values
    degrees = {}
    for e_id, sigma, sigma_p, (dx, dy), (px, py) in frames:
        (x, y), (x_p, y_p) = values[sigma], values[sigma_p]
        jx, jy = x - x_p, y - y_p
        if jx * dx + jy * dy:
            raise InvalidSection("section violates an interior-edge constraint")
        degrees[e_id] = jx * px + jy * py
    return LineBundleClass(degrees)


def degree_vector(tri: Triangulation, s: FramedSection) -> LineBundleClass:
    """d_tau = <n_sigma - n_sigma', (beta - alpha)^perp> per interior edge;
    InvalidSection where an interior-edge constraint
    <n_sigma - n_sigma', alpha - beta> = 0 fails."""
    _require_cells_match(tri, s)
    return _degrees(_degree_frames(tri), s)


def enumerate_sections(tri: Triangulation, box: int) -> list[FramedSection]:
    """All valid sections with entries in [-box, box]^2, up to shift.

    Returns one representative per class, the one with cell 0 at (0, 0),
    sorted. A class fits the box exactly when each coordinate spreads (max
    minus min over the cells) by at most 2*box, so one walk finds them all:
    cell 0 is pinned at the origin, each later cell in BFS order along
    interior edges gets its parent's value plus m times the primitive perp of
    the shared edge, |m| <= 2*box, and a partial section survives while its
    spread fits and it meets the constraint of every assigned neighbour.
    """
    if box < 0:
        raise ValueError("box must be >= 0")
    k = len(tri.cells)
    # per cell: (neighbour, alpha - beta of the shared edge)
    adj: dict[int, list[tuple[int, Covector]]] = {c: [] for c in range(k)}
    for e in tri.interior_edges():
        c1, c2 = e.cells
        alpha, beta = tri.edge_points(e)
        adj[c1].append((c2, vsub(alpha, beta)))
        adj[c2].append((c1, vsub(alpha, beta)))

    # visit order: BFS from cell 0 (dual graph of a polygon triangulation is
    # connected); each cell after the first steps from one visited neighbor
    order = [0]
    parent: dict[int, tuple[int, Covector]] = {}
    for c in order:
        for d, diff in adj[c]:
            if d != 0 and d not in parent:
                parent[d] = (c, primitivize(perp(diff)))
                order.append(d)
    if len(order) != k:
        raise UnknownCell("triangulation dual graph is not connected")

    # per BFS position: the neighbours at lower positions, the only cells
    # whose entries in assign belong to the branch being walked
    rank = {c: pos for pos, c in enumerate(order)}
    earlier = [[(d, diff) for d, diff in adj[c] if rank[d] < pos]
               for pos, c in enumerate(order)]

    spread = 2 * box
    assign: dict[int, Covector] = {0: (0, 0)}
    results = []
    # (position, next m to try there, spread bounds of the cells before it)
    stack = [(1, -spread, 0, 0, 0, 0)]
    while stack:
        pos, m0, xlo, xhi, ylo, yhi = stack.pop()
        if pos == k:
            results.append(FramedSection(dict(assign)))
            continue
        c = order[pos]
        base, (sx, sy) = parent[c]
        bx, by = assign[base]
        for m in range(m0, spread + 1):
            v = (bx + m * sx, by + m * sy)
            lo_x, hi_x = min(xlo, v[0]), max(xhi, v[0])
            lo_y, hi_y = min(ylo, v[1]), max(yhi, v[1])
            if hi_x - lo_x > spread or hi_y - lo_y > spread:
                continue
            if all(pairing(vsub(v, assign[d]), diff) == 0 for d, diff in earlier[pos]):
                assign[c] = v
                stack.append((pos, m + 1, xlo, xhi, ylo, yhi))
                stack.append((pos + 1, -spread, lo_x, hi_x, lo_y, hi_y))
                break

    results.sort(key=lambda s: tuple(s.items()))
    return results


@dataclass(frozen=True)
class ClassificationReport:
    """Realized shift classes in a box and their degree vectors.

    Reports the realized degree sublattice without claiming it is all of the
    Picard group. The degree map is injective on shift classes: a valid jump
    is m times the primitive perp p of beta - alpha, so its degree is
    +-m * L * |p|^2 (L the lattice length of the edge), and a zero degree
    vector makes every jump zero and the section constant.
    """

    box: int
    classes: tuple[FramedSection, ...]
    degree_vectors: tuple[LineBundleClass, ...]


def classification_report(tri: Triangulation, box: int) -> ClassificationReport:
    classes = enumerate_sections(tri, box)
    frames = _degree_frames(tri)
    return ClassificationReport(
        box=box,
        classes=tuple(classes),
        degree_vectors=tuple(_degrees(frames, s) for s in classes),
    )
