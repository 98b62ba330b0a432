"""The theta ring on basis N x Z and the isomorphism onto the mirror ring.

The ring is the free module on generators p_{n,i}, (n,i) in N x Z, with the
commutative product

    p_{n,i} p_{n',i'} = sum_{j=0}^{m} C(m, j) p_{n+n', i+i'+j},
    m = ell2(n, n'),

all structure constants being the positive binomial counts. The map
p_{n,i} -> p^i chi_{-n, ell1(n)} is an index-identity bijection onto the
canonical mirror basis, so both rings share one element class and one
product kernel (mirror_ring); verify_mirror_iso checks the homomorphism
property exhaustively against the independent character-sum engine of
mirror_ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice_geometry import HeightedPolygon
from .mirror_ring import BasisIndex, MirrorElement, multiply, oracle_product

ThetaElement = MirrorElement  # p_{n,i} and p^i chi_{-n, ell1(n)} share the index


def theta_multiply(
    poly: HeightedPolygon, x: ThetaElement, y: ThetaElement
) -> ThetaElement:
    """Bilinear extension of the binomial structure constants."""
    return multiply(poly, x, y)


@dataclass(frozen=True)
class MirrorIsoReport:
    """Outcome of the exhaustive two-engine comparison."""

    bound_n: int
    bound_i: int
    pairs_checked: int
    failures: tuple[tuple[BasisIndex, BasisIndex], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_mirror_iso(
    poly: HeightedPolygon, bound_n: int, bound_i: int
) -> MirrorIsoReport:
    """Check the index identity is a ring map on all basis pairs with
    |n|_inf and |i| bounded.

    For each ordered pair of generators, the theta product is compared with
    the character-sum engine's product of the same elements (embed, multiply
    raw characters, canonicalize). Every failing pair is reported; the
    index identity is a ring isomorphism exactly when there are none.
    """
    if bound_n < 1 or bound_i < 0:
        raise ValueError("bounds must satisfy bound_n >= 1, bound_i >= 0")
    gens: list[BasisIndex] = [
        ((a, b), i)
        for a in range(-bound_n, bound_n + 1)
        for b in range(-bound_n, bound_n + 1)
        for i in range(-bound_i, bound_i + 1)
    ]
    elements = [ThetaElement.basis(*g) for g in gens]
    failures = []
    for g1, x in zip(gens, elements):
        for g2, y in zip(gens, elements):
            if theta_multiply(poly, x, y) != oracle_product(poly, x, y):
                failures.append((g1, g2))
    return MirrorIsoReport(
        bound_n=bound_n,
        bound_i=bound_i,
        pairs_checked=len(gens) ** 2,
        failures=tuple(failures),
    )
