"""Hypothesis strategies for generated fans, for the differential tests.

Each strategy draws a fan over a small triangulated lattice polytope with a
coherence certificate, so its Mori cone is pointed and its degree functional
(the lifting) positive on every wall relation:

* ``segment_fans``: the unit subdivision of a segment [-a, b];
* ``strip_fans``: two-row strips, a bottom row of m points and a top row of
  n points shifted by a shear, triangulated by a zig-zag that takes the
  bottom and top edges in a drawn order;
* ``star_fans``: star triangulations of the reflexive polygons in the
  square [-1, 1]^2 (their Mori cones have more walls than rank);
* ``bundled_fans``: the working fans of the bundled problems and the base
  fans of their Cayley data;
* ``cayley_data``: the Cayley data of the bundled problems and of the
  reflexive polygons, split into one or two nef parts.

``build_cayley`` is the Cayley constructor behind the checks that the
problem stages run before it: structural validation of the triangulation
and the coherence certificate of its lifting.

``max_rho`` caps the rank of the relation lattice (number of points minus
dimension minus one), which keeps exact Fourier-Motzkin references cheap.
"""

import itertools
import math
from functools import cache
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from toricres import (
    CayleyData,
    GeometryError,
    LatticePolytope,
    Triangulation,
    build_context,
    build_fan,
    find_lifting,
    load_problem,
    validate_triangulation,
    verify_coherence,
)

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"
BUNDLED = ("p1", "p2", "square_r2", "nonreflexive")


def coherent_fan(points, simplices):
    """The fan of a triangulation, with a lifting found for it; a drawn
    triangulation without one is rejected."""
    lifting = find_lifting(Triangulation(points, simplices))
    assume(lifting is not None)
    tri = Triangulation(points, simplices, lifting=lifting)
    return build_fan(tri, validate_triangulation(tri))


@st.composite
def segment_fans(draw, max_rho=3):
    a = draw(st.integers(0, max_rho + 1))
    b = draw(st.integers(max(1 - a, 0), max_rho + 1 - a))
    points = [(x,) for x in range(-a, b + 1)]
    return coherent_fan(points, [(i, i + 1) for i in range(len(points) - 1)])


def strip_triangulation(m, n, shear, order):
    """Points and simplices of the m-over-n strip.  ``order`` is a sequence
    of "B" (next bottom edge) and "T" (next top edge) steps, m - 1 and
    n - 1 of them; each step closes one triangle with the current point of
    the other row."""
    bottom = [(x, 0) for x in range(m)]
    top = [(shear + x, 1) for x in range(n)]
    points = sorted(bottom + top)
    index = {p: k for k, p in enumerate(points)}
    b = t = 0
    simplices = []
    for step in order:
        if step == "B":
            simplices.append((index[bottom[b]], index[bottom[b + 1]], index[top[t]]))
            b += 1
        else:
            simplices.append((index[bottom[b]], index[top[t]], index[top[t + 1]]))
            t += 1
    return points, simplices


@st.composite
def strip_fans(draw, max_rho=3):
    total = draw(st.integers(3, max_rho + 3))
    m = draw(st.integers(1, total - 1))
    n = total - m
    shear = draw(st.integers(-2, 2))
    order = draw(st.permutations("B" * (m - 1) + "T" * (n - 1)))
    return coherent_fan(*strip_triangulation(m, n, shear, order))


@cache
def reflexive_squares(max_rho):
    """Lattice points of the reflexive polygons spanned by points of
    [-1, 1]^2 with at most max_rho + 3 lattice points, one per point set."""
    ring = [p for p in itertools.product((-1, 0, 1), repeat=2) if p != (0, 0)]
    found = set()
    for size in range(3, len(ring) + 1):
        for subset in itertools.combinations(ring, size):
            try:
                poly = LatticePolytope(subset)
            except GeometryError:
                continue
            if poly.is_reflexive() and len(poly.lattice_points) <= max_rho + 3:
                found.add(poly.lattice_points)
    return sorted(found)


def star_triangulation(points):
    """Cones from the origin over consecutive boundary points."""
    origin = points.index((0, 0))
    ring = sorted((p for p in points if p != (0, 0)),
                  key=lambda p: math.atan2(p[1], p[0]))
    return [
        (origin, points.index(p), points.index(q))
        for p, q in zip(ring, ring[1:] + ring[:1])
    ]


def star_fans(max_rho=3):
    return st.sampled_from(reflexive_squares(max_rho)).map(
        lambda points: coherent_fan(points, star_triangulation(list(points)))
    )


@cache
def bundled_contexts():
    return tuple(build_context(load_problem(PROBLEM_DIR / f"{name}.json"))
                 for name in BUNDLED)


def bundled_fans():
    fans = []
    for pc in bundled_contexts():
        fans.append(pc.fan)
        if pc.cayley is not None:
            fans.append(pc.cayley.bar_fan)
    return st.sampled_from(fans)


def fans(max_rho=3):
    return st.one_of(bundled_fans(), segment_fans(max_rho),
                     strip_fans(max_rho), star_fans(max_rho))


def build_cayley(tri, parts_points):
    """Validate a triangulation and its lifting, then assemble its Cayley
    data, as the triangulation, coherence and nef-partition stages do."""
    poly = validate_triangulation(tri)
    if not verify_coherence(tri):
        raise GeometryError("the lifting does not certify the triangulation")
    return CayleyData(poly, tri, parts_points)


@cache
def star_cayley(points, part_of):
    """Cayley data of a reflexive polygon's star triangulation, the boundary
    points split into parts by ``part_of``; one part when that split is not
    a nef partition."""
    simplices = star_triangulation(list(points))
    lifting = find_lifting(Triangulation(points, simplices))
    tri = Triangulation(points, simplices, lifting=lifting)
    boundary = [k for k, p in enumerate(points) if p != (0, 0)]
    parts = [[k for k, j in zip(boundary, part_of) if j == part]
             for part in (0, 1)]
    try:
        return build_cayley(tri, [part for part in parts if part])
    except GeometryError:
        return build_cayley(tri, [boundary])


@st.composite
def cayley_data(draw, max_rho=3):
    if draw(st.booleans()):
        return draw(st.sampled_from(
            [pc.cayley for pc in bundled_contexts() if pc.cayley is not None]
        ))
    points = draw(st.sampled_from(reflexive_squares(max_rho)))
    part_of = draw(st.tuples(*[st.integers(0, 1)] * (len(points) - 1)))
    return star_cayley(points, part_of)
