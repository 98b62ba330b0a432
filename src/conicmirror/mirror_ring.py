"""The mirror coordinate ring and its two multiplication engines.

The ring of functions on the mirror is spanned by p^i chi_{-n, ell1(n)} over
(n, i) in N x Z, where ell1 is the support function of the polygon and
chi_{m,k} denotes the character of index (m, k) in the cone
C = {(m, k) : <m, a> + k >= 0 for all a in A} (the regular functions of the
ambient toric variety), with p = chi_{0,1} - 1 inverted.

Two independent products:

* multiply: the closed form on the canonical basis, computed by the kernel
  product_terms, basis(n,i) * basis(n',i') = sum_j C(ell2, j) basis(n+n', i+i'+j)
  with ell2 = ell1(n) + ell1(n') - ell1(n+n') >= 0. The theta ring and the
  cover algebra multiply with the same kernel;
* oracle_multiply/canonicalize: raw character sums multiplied additively
  (chi_{m,k} chi_{m',k'} = chi_{m+m',k+k'}), then rewritten to the canonical
  basis via chi_{m,k} = chi_{m, ell1(-m)} (1+p)^{k - ell1(-m)}.

The agreement of the two engines on basis pairs is the computational content
of the mirror isomorphism and is what verify_mirror_iso checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, ClassVar, Mapping, Optional, Sequence, Union

from .errors import NotRegular
from .lattice_geometry import Covector, HeightedPolygon, as_fraction, hull_doubled_area

BasisIndex = tuple[Covector, int]  # (n, i) for p^i chi_{-n, ell1(n)}
Scalar = Union[int, str, Fraction]  # accepted as input
Coefficient = Union[int, Fraction]  # stored: int when integral, never zero


@lru_cache(maxsize=None)
def _support(points: tuple) -> Optional[Callable[[Covector], int]]:
    """ell1 of one point set, memoized per integer covector; None if degenerate."""
    if hull_doubled_area(points) <= 0:
        return None

    @lru_cache(maxsize=None)
    def support(n: Covector) -> int:
        return max(n[0] * a[0] + n[1] * a[1] for a in points)

    return support


def _support_of(poly: HeightedPolygon) -> Callable[[Covector], int]:
    support = _support(poly.points)
    if support is None:
        poly.require_full_dimensional()
    return support


def ell1(poly: HeightedPolygon, n: Sequence[int]) -> int:
    """Support function of the polygon: max over a in A of <n, a>.

    Equals min{l : <-n, a> + l >= 0 for all a}, the least level l making
    chi_{-n, l} regular.
    """
    return _support_of(poly)((int(n[0]), int(n[1])))


def ell2(poly: HeightedPolygon, n: Sequence[int], np: Sequence[int]) -> int:
    """Subadditivity defect ell1(n) + ell1(n') - ell1(n+n'); always >= 0."""
    n = (int(n[0]), int(n[1]))
    np = (int(np[0]), int(np[1]))
    return (
        ell1(poly, n) + ell1(poly, np) - ell1(poly, (n[0] + np[0], n[1] + np[1]))
    )


# ---------------------------------------------------------------------------
# sparse exact elements


def _clean(coeffs: dict) -> dict:
    """Drop zero coefficients and store integral ones as int."""
    return {
        k: v.numerator if type(v) is Fraction and v.denominator == 1 else v
        for k, v in coeffs.items()
        if v
    }


class SparseExact:
    """A frozen sparse map index -> exact coefficient.

    Subclasses are one-field frozen dataclasses (declared with eq=False so
    the comparison below is kept); _field names the field and _key brings
    one index to integer tuples. The public constructor normalizes: indices
    become integer tuples, coefficients exact (int when integral), repeated
    indices are summed and zeros dropped. Results built inside the package
    are clean already and are wrapped by _of without a second pass.
    """

    _field: ClassVar[str]

    def __post_init__(self):
        out: dict = {}
        for k, c in dict(getattr(self, self._field)).items():
            k = self._key(k)
            out[k] = out.get(k, 0) + as_fraction(c)
        object.__setattr__(self, self._field, _clean(out))

    @classmethod
    def _of(cls, data: dict):
        obj = object.__new__(cls)
        object.__setattr__(obj, cls._field, data)
        return obj

    def _data(self) -> dict:
        return getattr(self, self._field)

    def __add__(self, other):
        out = dict(self._data())
        for k, v in other._data().items():
            out[k] = out.get(k, 0) + v
        return self._of(_clean(out))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: Scalar):
        c = as_fraction(c)
        return self._of(_clean({k: c * v for k, v in self._data().items()}))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._data() == other._data()

    def __hash__(self):
        return hash(frozenset(self._data().items()))

    def items(self) -> list:
        return sorted(self._data().items())


@dataclass(frozen=True, eq=False)
class MirrorElement(SparseExact):
    """Sparse exact-coefficient element on the canonical basis (n, i).

    The index (n, i) denotes p^i chi_{-n, ell1(n)}; the character level is
    always ell1(n) and is never stored. The same class is the theta ring's
    element, with (n, i) read as the generator p_{n,i}.
    """

    coefficients: Mapping[BasisIndex, Coefficient] = field(default_factory=dict)
    _field: ClassVar[str] = "coefficients"

    @staticmethod
    def _key(k) -> BasisIndex:
        n, i = k
        return ((int(n[0]), int(n[1])), int(i))

    @classmethod
    def basis(cls, n: Sequence[int], i: int, c: Scalar = 1) -> "MirrorElement":
        return cls._of(_clean({((int(n[0]), int(n[1])), int(i)): as_fraction(c)}))

    def __repr__(self):
        if not self.coefficients:
            return "MirrorElement(0)"
        parts = [f"{c}*b[{n},{i}]" for (n, i), c in self.items()]
        return "MirrorElement(" + " + ".join(parts) + ")"


def _pascal_row(m: int) -> tuple[int, ...]:
    return tuple(comb(m, j) for j in range(m + 1))


# Rows up to ell2 = _SHORT_ROW are cached; a longer one is built for each
# use, so a product with a huge ell2 keeps nothing once it returns.
_SHORT_ROW = 64
_short_pascal_row = lru_cache(maxsize=_SHORT_ROW + 1)(_pascal_row)


def product_terms(
    poly: HeightedPolygon,
    x: Mapping[BasisIndex, Coefficient],
    y: Mapping[BasisIndex, Coefficient],
) -> dict:
    """The product kernel on clean coefficient dicts, returning a clean dict.

    b(n,i) * b(n',i') = sum_{j=0}^{ell2} C(ell2, j) b(n+n', i+i'+j) with
    ell2 = ell1(n) + ell1(n') - ell1(n+n'), extended bilinearly: the group
    ring of N twisted by the cocycle (1+p)^ell2.
    """
    if not (x and y):
        return {}  # a zero factor never evaluates ell1
    support = _support_of(poly)
    out: dict = {}
    get = out.get
    short_row, short = _short_pascal_row, _SHORT_ROW
    for (n, i), cx in x.items():
        ln = support(n)
        for (np, ip), cy in y.items():
            nsum = (n[0] + np[0], n[1] + np[1])
            c = cx * cy
            base = i + ip
            ell2 = ln + support(np) - support(nsum)
            for j, b in enumerate(short_row(ell2) if ell2 <= short else _pascal_row(ell2)):
                key = (nsum, base + j)
                out[key] = get(key, 0) + c * b
    return _clean(out)


def multiply(poly: HeightedPolygon, x: MirrorElement, y: MirrorElement) -> MirrorElement:
    """Closed-form product on the canonical basis, extended bilinearly."""
    return MirrorElement._of(product_terms(poly, x.coefficients, y.coefficients))


# ---------------------------------------------------------------------------
# the independent character-sum engine

RawIndex = tuple[Covector, int, int]  # (m, k, i) for p^i chi_{m, k}


@dataclass(frozen=True, eq=False)
class RawCharacterSum(SparseExact):
    """Sparse sum of p^i chi_{m,k} with every (m,k) in the cone C."""

    terms: Mapping[RawIndex, Coefficient] = field(default_factory=dict)
    _field: ClassVar[str] = "terms"

    @staticmethod
    def _key(key) -> RawIndex:
        m, k, i = key
        return ((int(m[0]), int(m[1])), int(k), int(i))


def check_regular(poly: HeightedPolygon, x: RawCharacterSum) -> None:
    """Raise NotRegular unless every character index lies in the cone C."""
    support = _support_of(poly)
    for (m, k, _i) in x.terms:
        level = support((-m[0], -m[1]))
        if k < level:
            raise _outside_cone(m, k, level)


def _outside_cone(m: Covector, k: int, level: int) -> NotRegular:
    return NotRegular(f"character ({m}, {k}) is outside the cone: level below {level}")


def embed(poly: HeightedPolygon, x: MirrorElement) -> RawCharacterSum:
    """Rewrite a canonical-basis element as a raw character sum.

    basis(n, i) = p^i chi_{-n, ell1(n)}.
    """
    support = _support_of(poly)
    return RawCharacterSum._of(
        {((-n[0], -n[1]), support(n), i): c for (n, i), c in x.coefficients.items()}
    )


def oracle_multiply(
    poly: HeightedPolygon, x: RawCharacterSum, y: RawCharacterSum
) -> RawCharacterSum:
    """Multiply raw character sums: characters add, p-powers add.

    chi_{m,k} chi_{m',k'} = chi_{m+m', k+k'}; products of cone elements stay in
    the cone. Raises NotRegular if an operand has an index outside the cone.
    """
    check_regular(poly, x)
    check_regular(poly, y)
    out: dict = {}
    for (m, k, i), cx in x.terms.items():
        for (mp, kp, ip), cy in y.terms.items():
            key = ((m[0] + mp[0], m[1] + mp[1]), k + kp, i + ip)
            out[key] = out.get(key, 0) + cx * cy
    return RawCharacterSum._of(_clean(out))


def canonicalize(poly: HeightedPolygon, x: RawCharacterSum) -> MirrorElement:
    """Collect a raw character sum on the canonical basis.

    Each chi_{m,k} with slack d = k - ell1(-m) >= 0 rewrites as
    chi_{m, ell1(-m)} (1+p)^d, since chi_{0,1} = 1 + p; the binomial expansion
    lands on basis indices (n, i+j) with n = -m. Raises NotRegular when the
    slack is negative (the character is not a regular function).
    """
    support = _support_of(poly)
    out: dict = {}
    for (m, k, i), c in x.terms.items():
        n = (-m[0], -m[1])
        level = support(n)
        if k < level:
            raise _outside_cone(m, k, level)
        d = k - level
        for j in range(d + 1):
            key = (n, i + j)
            out[key] = out.get(key, 0) + c * comb(d, j)
    return MirrorElement._of(_clean(out))


def oracle_product(
    poly: HeightedPolygon, x: MirrorElement, y: MirrorElement
) -> MirrorElement:
    """The full second engine: embed, multiply raw, canonicalize."""
    return canonicalize(poly, oracle_multiply(poly, embed(poly, x), embed(poly, y)))


# ---------------------------------------------------------------------------
# the affine 3-space preset


def c3_preset() -> tuple[HeightedPolygon, dict[str, MirrorElement]]:
    """The standard-simplex model of the mirror ring with named generators.

    Returns the polygon A = {(0,0),(1,0),(0,1)} with zero heights and the name
    table x -> basis((1,0),0), y -> basis((0,1),0), z -> basis((-1,-1),0).
    In this model the mirror is the affine 3-space localized at xyz - 1, and
    the generators satisfy x*y*z = (1+p)^2 in the canonical basis.

    Level caveat: the natural character labels for x, y, z at level 0 (for
    example chi_{(0,-1),0} for y) are not in the cone C -- the canonical basis
    forces level ell1(n) = 1 on the two coordinate directions. The preset
    therefore fixes the generators by their basis indices and verifies the
    dictionary only through product relations.
    """
    poly = HeightedPolygon.create([(0, 0), (1, 0), (0, 1)], 0)
    names = {
        "x": MirrorElement.basis((1, 0), 0),
        "y": MirrorElement.basis((0, 1), 0),
        "z": MirrorElement.basis((-1, -1), 0),
    }
    return poly, names
