"""Finite abelian covers and the block cover algebra with theta products.

A finite-index sublattice N0 of N = Z^2 determines a quotient group
G = N/N0, computed exactly by a 2x2 Smith normal form. Group elements are
residue tuples against the invariant factors (d1, d2) with d1 | d2; no
complex characters are materialized, since splitting by coset of N0 carries
the same information.

The cover algebra is the G x G block algebra whose (g, h) block is spanned by
generators p_{n,i} with projection(n) = h - g. Composition is matrix-style on
the block indices and uses the binomial theta structure constants on (n, i),
so it reduces to the plain theta product when the sublattice is all of N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import ClassVar, Mapping, Sequence

from .errors import InconsistentEntry, SingularMatrix
from .lattice_geometry import (
    Covector,
    HeightedPolygon,
    Point,
    _exgcd,
    convex_hull,
    gcd2,
    hull_doubled_area,
)
from .mirror_ring import Coefficient, SparseExact, _clean, product_terms
from .theta_ring import ThetaElement

GroupElement = tuple[int, int]  # residues against (d1, d2)
CoverGen = tuple[GroupElement, GroupElement, Covector, int]  # (g, h, n, i)

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Sublattice:
    """A finite-index sublattice of Z^2, generated by the basis columns.

    basis is stored row-major: basis[0] = (a, c), basis[1] = (b, d) means the
    generating columns are (a, b) and (c, d).
    """

    basis: Matrix2

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.basis)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise SingularMatrix("basis must be a 2x2 integer matrix")
        object.__setattr__(self, "basis", rows)
        if self.determinant() == 0:
            raise SingularMatrix("sublattice basis has determinant zero")

    def determinant(self) -> int:
        (a, c), (b, d) = self.basis
        return a * d - b * c

    def index(self) -> int:
        return abs(self.determinant())

    def columns(self) -> tuple[Covector, Covector]:
        (a, c), (b, d) = self.basis
        return (a, b), (c, d)

    @classmethod
    def full(cls) -> "Sublattice":
        return cls(((1, 0), (0, 1)))


def _smith_transform(basis: Matrix2) -> tuple[Matrix2, tuple[int, int]]:
    """Left transform U and diagonal (d1, d2) of the Smith normal form.

    U is unimodular with U * B * V = diag(d1, d2) for some unimodular V,
    d1 | d2, both positive. Only U is returned: the right factor V permutes
    the generators of the sublattice and does not affect the quotient map
    n -> (U n) mod (d1, d2), whose kernel is exactly the column span of B.
    """
    m = [list(row) for row in basis]
    u = [[1, 0], [0, 1]]

    def apply_rows(x, y, z, w):
        for t in (m, u):
            a0, a1 = t[0][:], t[1][:]
            t[0][0], t[0][1] = x * a0[0] + y * a1[0], x * a0[1] + y * a1[1]
            t[1][0], t[1][1] = z * a0[0] + w * a1[0], z * a0[1] + w * a1[1]

    def apply_cols(x, y, z, w):
        c0 = (m[0][0], m[1][0])
        c1 = (m[0][1], m[1][1])
        m[0][0], m[1][0] = x * c0[0] + y * c1[0], x * c0[1] + y * c1[1]
        m[0][1], m[1][1] = z * c0[0] + w * c1[0], z * c0[1] + w * c1[1]

    for _ in range(64):  # 2x2 reduction terminates in a few passes
        if m[1][0] != 0:
            g, x, y = _exgcd(m[0][0], m[1][0])
            apply_rows(x, y, -(m[1][0] // g), m[0][0] // g)
        if m[0][1] != 0:
            g, x, y = _exgcd(m[0][0], m[0][1])
            apply_cols(x, y, -(m[0][1] // g), m[0][0] // g)
        if m[1][0] == 0 and m[0][1] == 0:
            if m[1][1] % m[0][0] == 0:
                break
            apply_cols(1, 0, 1, 1)  # couple the columns and reduce again
    else:
        raise SingularMatrix("Smith reduction did not terminate")

    if m[0][0] < 0:
        apply_rows(-1, 0, 0, 1)
    if m[1][1] < 0:
        apply_rows(1, 0, 0, -1)
    d1, d2 = m[0][0], m[1][1]
    return (tuple(u[0]), tuple(u[1])), (d1, d2)


@dataclass(frozen=True)
class QuotientGroup:
    """G = Z^2 / N0 presented by invariant factors d1 | d2."""

    invariant_factors: tuple[int, int]
    u_matrix: Matrix2

    @property
    def order(self) -> int:
        d1, d2 = self.invariant_factors
        return d1 * d2

    def projection(self, n: Sequence[int]) -> GroupElement:
        d1, d2 = self.invariant_factors
        (u00, u01), (u10, u11) = self.u_matrix
        return (
            (u00 * int(n[0]) + u01 * int(n[1])) % d1,
            (u10 * int(n[0]) + u11 * int(n[1])) % d2,
        )

    def elements(self) -> list[GroupElement]:
        d1, d2 = self.invariant_factors
        return [(r1, r2) for r1 in range(d1) for r2 in range(d2)]

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        d1, d2 = self.invariant_factors
        return ((g[0] + h[0]) % d1, (g[1] + h[1]) % d2)

    def neg(self, g: GroupElement) -> GroupElement:
        d1, d2 = self.invariant_factors
        return ((-g[0]) % d1, (-g[1]) % d2)

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        return self.add(g, self.neg(h))


def quotient(sub: Sublattice) -> QuotientGroup:
    """Quotient group of Z^2 by the sublattice, via Smith normal form."""
    u, (d1, d2) = _smith_transform(sub.basis)
    # invariant-factor cross-checks: d1 = gcd of entries, d1*d2 = |det|
    (a, c), (b, d) = sub.basis
    if d1 != gcd(gcd(a, b), gcd(c, d)) or d1 * d2 != sub.index():
        raise SingularMatrix("Smith normal form self-check failed")
    group = QuotientGroup(invariant_factors=(d1, d2), u_matrix=u)
    for col in sub.columns():
        if group.projection(col) != (0, 0):
            raise SingularMatrix("projection does not kill the sublattice")
    return group


@dataclass(frozen=True, eq=False)
class CoverAlgebraElement(SparseExact):
    """Sparse element of the block cover algebra.

    Entries are keyed (g, h, n, i): a generator of the (g, h) block with
    theta index (n, i). Block consistency projection(n) = h - g is checked
    against a specific sublattice by cover_compose, not at construction.
    """

    entries: Mapping[CoverGen, Coefficient] = field(default_factory=dict)
    _field: ClassVar[str] = "entries"

    @staticmethod
    def _key(k) -> CoverGen:
        g, h, n, i = k
        return (
            (int(g[0]), int(g[1])),
            (int(h[0]), int(h[1])),
            (int(n[0]), int(n[1])),
            int(i),
        )

    def __repr__(self):
        if not self.entries:
            return "CoverAlgebraElement(0)"
        parts = [
            f"{c}*E[{g}->{h}; n={n}, i={i}]" for (g, h, n, i), c in self.items()
        ]
        return "CoverAlgebraElement(" + " + ".join(parts) + ")"


def _require_consistent(
    group: QuotientGroup, x: CoverAlgebraElement, label: str
) -> None:
    d1, d2 = group.invariant_factors
    for (g, h, n, _i) in x.entries:
        if g != (g[0] % d1, g[1] % d2) or h != (h[0] % d1, h[1] % d2):
            raise InconsistentEntry(
                f"{label} entry (g={g}, h={h}) has a block label that is not "
                f"a residue against the invariant factors ({d1}, {d2})"
            )
        if group.projection(n) != group.sub(h, g):
            raise InconsistentEntry(
                f"{label} entry (g={g}, h={h}, n={n}) violates projection(n) = h - g"
            )


def cover_compose(
    poly: HeightedPolygon,
    sub: Sublattice,
    x: CoverAlgebraElement,
    y: CoverAlgebraElement,
) -> CoverAlgebraElement:
    """Composition x after y: Hom(L_h, L_k) x Hom(L_g, L_h) -> Hom(L_g, L_k).

    Matrix-style on the block indices (an x-entry starting at block g' meets
    a y-entry ending at block g' and contributes to (g of y, h of x)), with
    the binomial theta structure constants on the (n, i) indices: each
    matching pair of blocks is multiplied by the theta product kernel.
    """
    group = quotient(sub)
    _require_consistent(group, x, "left operand")
    _require_consistent(group, y, "right operand")
    out: dict = {}
    y_blocks = _blocks(y)
    for (gx, hx), xs in _blocks(x).items():
        for (gy, hy), ys in y_blocks.items():
            if gx != hy:
                continue
            for (n, i), c in product_terms(poly, xs, ys).items():
                key = (gy, hx, n, i)
                out[key] = out.get(key, 0) + c
    return CoverAlgebraElement._of(_clean(out))


def _blocks(x: CoverAlgebraElement) -> dict:
    """The entries of x grouped by block: (g, h) -> {(n, i): c}."""
    out: dict = {}
    for (g, h, n, i), c in x.entries.items():
        out.setdefault((g, h), {})[(n, i)] = c
    return out


def theta_to_cover(x: ThetaElement) -> CoverAlgebraElement:
    """View a theta element in the one-block algebra of the full lattice."""
    e = (0, 0)
    return CoverAlgebraElement._of(
        {(e, e, n, i): c for (n, i), c in x.coefficients.items()}
    )


def cover_to_theta(x: CoverAlgebraElement) -> ThetaElement:
    """Forget the block indices (inverse of theta_to_cover on one block)."""
    out: dict = {}
    for (_g, _h, n, i), c in x.entries.items():
        out[(n, i)] = out.get((n, i), 0) + c
    return ThetaElement._of(_clean(out))


def character_decomposition(
    sub: Sublattice, x: ThetaElement
) -> dict[GroupElement, ThetaElement]:
    """Split a theta element by the coset of its n-index in N/N0.

    Characters of G are indexed by the same residue tuples; the isotypic
    piece of a character is the sum of terms on one coset, so the map
    returned here (coset -> piece) carries the full decomposition. Only
    nonzero pieces are present, and the pieces sum back to x.
    """
    group = quotient(sub)
    pieces: dict[GroupElement, dict] = {}
    for (n, i), c in x.coefficients.items():
        g = group.projection(n)
        pieces.setdefault(g, {})[(n, i)] = c
    return {g: ThetaElement._of(terms) for g, terms in sorted(pieces.items())}


def truncated_hom_dimension(
    sub: Sublattice,
    g: GroupElement,
    h: GroupElement,
    bound_n: int,
    bound_i: int,
) -> int:
    """Count generators (n, i) of the (g, h) block with |n|inf <= bound_n, |i| <= bound_i."""
    group = quotient(sub)
    target = group.sub(h, g)
    count = 0
    for n1 in range(-bound_n, bound_n + 1):
        for n2 in range(-bound_n, bound_n + 1):
            if group.projection((n1, n2)) == target:
                count += 1
    return count * (2 * bound_i + 1)


def cover_polygon(poly: HeightedPolygon, sub: Sublattice) -> tuple[Point, ...]:
    """Vertices of the image of conv(A) under the dual map of N0 -> N.

    In coordinates this is S^T applied to the polygon, S the basis matrix:
    the cover's lattice of monomial exponents is the dual of N0, and a
    weight m restricts to (<m, s1>, <m, s2>) on the sublattice basis.
    """
    (a, c), (b, d) = sub.basis
    images = [(a * p[0] + b * p[1], c * p[0] + d * p[1]) for p in poly.points]
    return tuple(convex_hull(images))


def has_compact_divisor(poly: HeightedPolygon, sub: Sublattice) -> bool:
    """Heuristic: the cover's polygon has an interior lattice point.

    An interior lattice point of the cover polygon is dilation data for a
    compact toric divisor upstairs. This is a reported indicator, not a
    proof of any categorical statement. By Pick's theorem the hull has
    (2A - B + 2) / 2 interior lattice points, 2A its doubled area and B the
    lattice points on its boundary, so no point is visited.
    """
    hull = cover_polygon(poly, sub)
    if len(hull) < 3:
        return False
    k = len(hull)
    boundary = sum(
        gcd2(hull[t][0] - hull[(t + 1) % k][0], hull[t][1] - hull[(t + 1) % k][1])
        for t in range(k)
    )
    return hull_doubled_area(hull) - boundary + 2 > 0
