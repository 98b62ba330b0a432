"""Output checks that do not use the package's own code paths.

Each check recomputes what the program claims from the definitions: ring
products from the support function and binomial rows, lower hulls with
qhull, tropical curves from exact tie conditions, amoeba points from the
size of the terms of the polynomial. A failed check raises CheckFailed.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

Terms = dict[tuple[tuple[int, int], int], Fraction]


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ ring


def support(points: Sequence[tuple[int, int]], n: Sequence[int]) -> int:
    """ell1(n) = max over a in A of <n, a>."""
    return max(n[0] * a[0] + n[1] * a[1] for a in points)


def defect(points, n, m) -> int:
    """ell2(n, m) = ell1(n) + ell1(m) - ell1(n + m)."""
    return support(points, n) + support(points, m) - support(points, (n[0] + m[0], n[1] + m[1]))


_ROWS: list[list[int]] = [[1]]


def binomial_row(k: int) -> list[int]:
    """Row k of Pascal's triangle, built by additions."""
    while len(_ROWS) <= k:
        prev = _ROWS[-1]
        _ROWS.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
    return _ROWS[k]


def ref_product(points, x: Mapping, y: Mapping) -> Terms:
    """b(n,i) b(m,j) = sum_k C(ell2(n,m), k) b(n+m, i+j+k), extended bilinearly."""
    out: Terms = {}
    for (n, i), cx in x.items():
        for (m, j), cy in y.items():
            s = (n[0] + m[0], n[1] + m[1])
            for k, b in enumerate(binomial_row(defect(points, n, m))):
                key = (s, i + j + k)
                out[key] = out.get(key, Fraction(0)) + cx * cy * b
    return {k: v for k, v in out.items() if v != 0}


def ref_cover_compose(points, x: Mapping, y: Mapping) -> dict:
    """Block composition: an x entry leaving block g meets a y entry entering g."""
    out: dict = {}
    for (gx, hx, nx, ix), cx in x.items():
        for (gy, hy, ny, iy), cy in y.items():
            if gx != hy:
                continue
            for (n, i), c in ref_product(points, {(nx, ix): cx}, {(ny, iy): cy}).items():
                key = (gy, hx, n, i)
                out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def terms_from_json(rows: Iterable[Mapping]) -> Terms:
    out: Terms = {}
    for row in rows:
        key = ((int(row["n"][0]), int(row["n"][1])), int(row["i"]))
        require(key not in out, f"repeated term {key} in output")
        out[key] = Fraction(row["c"])
        require(out[key] != 0, f"zero coefficient emitted for {key}")
    return out


# -------------------------------------------------------------- geometry


def load_qhull_oracle(root: Path):
    """The repository's qhull lower-hull script, loaded as a module."""
    path = root / "scripts" / "oracle_lower_hull.py"
    spec = importlib.util.spec_from_file_location("oracle_lower_hull", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def edge_use(cells: Iterable[Sequence[int]]) -> dict[tuple[int, int], int]:
    """How many cells contain each edge (1 on the boundary, 2 inside)."""
    use: dict[tuple[int, int], int] = {}
    for c in cells:
        a, b, d = sorted(c)
        for e in ((a, b), (a, d), (b, d)):
            use[e] = use.get(e, 0) + 1
    return use


def _primitive(v: tuple[Fraction, Fraction]) -> tuple[int, int]:
    den = v[0].denominator * v[1].denominator
    a, b = int(v[0] * den), int(v[1] * den)
    g = math.gcd(a, b)
    require(g != 0, "zero direction")
    return (a // g, b // g)


def check_curve(points, heights, cells, curve: Mapping) -> None:
    """The tropical curve dual to ``cells`` for L(n) = max <n,a> - nu(a).

    One vertex per cell at which the cell's three terms tie for the maximum,
    one bounded edge per interior edge, one leg per boundary edge, and the
    weighted primitive directions at every vertex sum to zero.
    """
    verts = [(Fraction(v[0]), Fraction(v[1])) for v in curve["vertices"]]
    require(len(verts) == len(cells), f"{len(verts)} vertices for {len(cells)} cells")
    for v, cell in zip(verts, cells):
        vals = [v[0] * p[0] + v[1] * p[1] - h for p, h in zip(points, heights)]
        top = max(vals)
        require(all(vals[q] == top for q in cell), f"vertex {v} is not a tie of cell {cell}")
    use = edge_use(cells)
    inner = sum(1 for u in use.values() if u == 2)
    outer = sum(1 for u in use.values() if u == 1)
    require(len(curve["bounded_edges"]) == inner, "bounded edges != interior edges")
    require(len(curve["legs"]) == outer, "legs != boundary edges")
    balance = [(0, 0)] * len(verts)

    def weight(dual) -> int:
        return math.gcd(dual[0][0] - dual[1][0], dual[0][1] - dual[1][1])

    for be in curve["bounded_edges"]:
        a, b = be["v"]
        w = weight(be["dual_edge"])
        for src, dst in ((a, b), (b, a)):
            d = _primitive((verts[dst][0] - verts[src][0], verts[dst][1] - verts[src][1]))
            balance[src] = (balance[src][0] + w * d[0], balance[src][1] + w * d[1])
    for leg in curve["legs"]:
        v = leg["base_vertex"]
        w = weight(leg["dual_edge"])
        d = leg["direction"]
        (p, q) = leg["dual_edge"]
        require(d[0] * (p[0] - q[0]) + d[1] * (p[1] - q[1]) == 0, "leg not normal to its edge")
        balance[v] = (balance[v][0] + w * d[0], balance[v][1] + w * d[1])
    require(all(b == (0, 0) for b in balance), f"balancing defects {balance}")


def degree_of(points, edges, section: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """d_tau = <n_sigma - n_sigma', (beta - alpha)^perp> per interior edge.

    ``edges`` are the emitted triangulation edges; sigma is the smaller
    adjacent cell id and alpha the lexicographically smaller endpoint.
    Also requires <n_sigma - n_sigma', alpha - beta> = 0 on every edge.
    """
    out = {}
    for e_id, e in enumerate(edges):
        if not e["interior"]:
            continue
        s, sp = sorted(e["cells"])
        alpha, beta = sorted((tuple(points[e["v"][0]]), tuple(points[e["v"][1]])))
        jump = (section[s][0] - section[sp][0], section[s][1] - section[sp][1])
        require(
            jump[0] * (alpha[0] - beta[0]) + jump[1] * (alpha[1] - beta[1]) == 0,
            f"section breaks the constraint on edge {e_id}",
        )
        d = (beta[0] - alpha[0], beta[1] - alpha[1])
        out[e_id] = jump[0] * -d[1] + jump[1] * d[0]
    return out


# --------------------------------------------------------------- amoeba


def check_cloud(points, heights, t: float, cloud) -> None:
    """At a zero of sum_a t^-nu(a) w^a no term exceeds the other |A|-1 together.

    In base-t log coordinates the two largest values of <x, a> - nu(a)
    therefore differ by at most log(|A|-1)/log t. The slack 1e-6 covers the
    program's residual filter (1e-8 of the term sum) and float rounding.
    """
    import numpy as np

    bound = math.log(len(points) - 1) / math.log(t) + 1e-6
    require(len(cloud) > 0, "empty amoeba cloud")
    vals = np.asarray(cloud, dtype=float) @ np.asarray(points, dtype=float).T
    vals -= np.asarray([float(h) for h in heights])
    vals.sort(axis=1)
    worst = float(np.max(vals[:, -1] - vals[:, -2]))
    require(worst <= bound, f"cloud point with term gap {worst:.4g} > {bound:.4g}")


def binomial_residual(heights_of: Mapping, t: float, dual_edge, w) -> float:
    """|a + b| / (|a| + |b|) for the two terms of the leg's dual edge at w."""
    lt = math.log(t)
    a, b = (
        math.exp(-float(heights_of[p]) * lt) * w[0] ** p[0] * w[1] ** p[1]
        for p in (tuple(dual_edge[0]), tuple(dual_edge[1]))
    )
    return abs(a + b) / (abs(a) + abs(b))
