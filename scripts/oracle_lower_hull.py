"""Independent lower-hull oracle via qhull (scipy), used to freeze test values.

Lifts (x, y, nu) to 3d, takes the convex hull, keeps facets whose outward
normal points down (nz < 0), and projects them to triangles. Heights must be
given as exact rationals; they are scaled to integers so the float hull is
exact for small inputs. Non-generic inputs show up as non-simplicial facets
(qhull merges coplanar triangles only with QJ off; we use Qt and then group
coplanar facets). Qbb rescales the lifted coordinate to the range of the
others, so heights with large common denominators (perturb_heights) stay
within qhull's precision.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull


def lower_hull_cells(points, heights):
    pts = [tuple(p) for p in points]
    hts = [Fraction(h) for h in heights]
    lcm = 1
    for h in hts:
        lcm = lcm * h.denominator // math.gcd(lcm, h.denominator)
    lifted = np.array(
        [[p[0], p[1], int(h * lcm)] for p, h in zip(pts, hts)], dtype=float
    )
    hull = ConvexHull(lifted, qhull_options="Qt Qbb")
    # group hull triangles by their supporting plane, keep downward ones
    faces = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        nz = eq[2]
        if nz >= -1e-12:
            continue
        key = tuple(np.round(eq / -nz, 9))
        faces.setdefault(key, set()).update(int(i) for i in simplex)
    cells = []
    for verts in faces.values():
        if len(verts) > 3:
            return None, sorted(verts)  # non-triangular lower face
        cells.append(tuple(sorted(verts)))
    return sorted(cells), None


if __name__ == "__main__":
    four_pts = [(0, 0), (1, 0), (0, 1), (-1, -1)]
    four_hts = [Fraction(-1, 4), 0, 0, 0]
    print("4-point:", lower_hull_cells(four_pts, four_hts))

    para_pts = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
    eu = [p[0] ** 2 + p[1] ** 2 for p in para_pts]
    print("paraboloid euclid:", lower_hull_cells(para_pts, eu))
    sup = [max(abs(p[0]), abs(p[1])) ** 2 for p in para_pts]
    print("paraboloid sup:", lower_hull_cells(para_pts, sup))

    # 4-point with nu(0,0) = +1/4: (0,0) lifted above, single big cell
    print("4-point +1/4:", lower_hull_cells(four_pts, [Fraction(1, 4), 0, 0, 0]))

    # a bigger example: 3x dilated simplex, all 10 lattice points, euclid+tilt
    big = [(x, y) for x in range(4) for y in range(4 - x)]
    hts = [Fraction(x * x + y * y) + Fraction(x, 7) + Fraction(y, 11) for x, y in big]
    print("big:", lower_hull_cells(big, hts))
