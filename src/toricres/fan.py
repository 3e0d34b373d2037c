"""Simplicial fans over coherent triangulations.

A lattice polytope with a triangulation using all of its lattice points is
placed at height one; the simplices become the maximal cones of a fan
subdividing the cone over the polytope.  This module builds those fans,
certifies coherence of the triangulation by an exact strict-feasibility
lifting, completes the fan with an extra ray, extracts wall relations (the
Mori generators), and enumerates the effective relation classes up to a
degree bound.  Every fan is a ``Fan``: the fan over a polytope, its
completion, the base fan of a nef partition and the pushout fans all keep
their per-cone data (volumes, walls, adjugates) in the same cached
properties.  Enumeration tests membership in the Mori cone against its
facet normals, computed once per call, and each fan keeps the class lists
it has enumerated, so a problem context enumerates each (bound, ample) once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, lcm

from .lattice import (
    GeometryError,
    InvariantError,
    LatticePolytope,
    adjugate,
    cone_facet_normals,
    cone_volume,
    det_int,
    dot,
    facet_inequalities,
    feasible_point,
    matrix_rank,
    primitive_vector,
    relations_among,
    solve_rational,
    vec_neg,
    vec_sub,
)


class TriangulationError(GeometryError):
    """A simplex collection fails to be a triangulation of the polytope."""


class Triangulation:
    """An ordered point list plus simplices given as index tuples.

    The point order is significant: fan generators inherit it.  ``lifting``
    is an optional integer value per point certifying coherence.
    """

    def __init__(self, points, simplices, lifting=None):
        self.points = tuple(tuple(int(x) for x in p) for p in points)
        self.simplices = tuple(sorted(tuple(sorted(int(i) for i in s)) for s in simplices))
        self.lifting = None if lifting is None else tuple(int(h) for h in lifting)
        if len(set(self.points)) != len(self.points):
            raise TriangulationError("duplicate points in triangulation")
        if self.lifting is not None and len(self.lifting) != len(self.points):
            raise TriangulationError("lifting length does not match point count")
        for s in self.simplices:
            if len(set(s)) != len(s):
                raise TriangulationError(f"repeated vertex in simplex {s}")
            if any(i < 0 or i >= len(self.points) for i in s):
                raise TriangulationError(f"simplex {s} references a missing point")


def _intersection_vertices(ptsA, ptsB):
    """Vertices of conv(ptsA) ∩ conv(ptsB), by brute-force active-set search."""
    dim = len(ptsA[0])
    system = facet_inequalities(ptsA) + facet_inequalities(ptsB)
    verts = set()
    for subset in itertools.combinations(range(len(system)), dim):
        mat = [system[i][0] for i in subset]
        rhs = [system[i][1] for i in subset]
        try:
            sol = solve_rational(mat, rhs)
        except GeometryError:
            continue
        if sol is None:
            continue
        if all(dot(w, sol) >= c for w, c in system):
            verts.add(tuple(sol))
    return sorted(verts)


def _barycentric(simplex_pts, point):
    """Barycentric coordinates of a rational point in an affine simplex."""
    dim = len(simplex_pts[0])
    mat = [[p[k] for p in simplex_pts] for k in range(dim)]
    mat.append([1] * len(simplex_pts))
    rhs = list(point) + [1]
    return solve_rational(mat, rhs)


def _pair_intersects_properly(tri, i, j):
    """Check conv(simplex_i) ∩ conv(simplex_j) == conv(shared vertices)."""
    si, sj = tri.simplices[i], tri.simplices[j]
    shared = set(si) & set(sj)
    ptsA = [tri.points[k] for k in si]
    ptsB = [tri.points[k] for k in sj]
    for vert in _intersection_vertices(ptsA, ptsB):
        if not shared:
            return False
        coords = _barycentric(ptsA, vert)
        for idx, lam in zip(si, coords):
            if idx not in shared and lam != 0:
                return False
    return True


def _wall_census(simplices):
    """Count, for every drop-one face of a maximal simplex, who contains it."""
    census = {}
    for s in simplices:
        for drop in s:
            wall = tuple(k for k in s if k != drop)
            census.setdefault(wall, []).append(s)
    return census


def validate_triangulation(tri, polytope=None):
    """Full structural validation of a triangulation; raises on any defect.

    Checks: the points are exactly the lattice points of their hull, every
    point is used, simplices are full-dimensional, pairwise intersections are
    common faces, and the union covers the polytope (every unshared wall lies
    on the boundary of the hull).
    """
    poly = polytope if polytope is not None else LatticePolytope(tri.points)
    dim = poly.dim
    if set(tri.points) != set(poly.lattice_points):
        raise TriangulationError(
            "triangulation points must be exactly the lattice points of the polytope"
        )
    used = set(itertools.chain.from_iterable(tri.simplices))
    missing = sorted(set(range(len(tri.points))) - used)
    if missing:
        raise TriangulationError(f"lattice points {missing} appear in no simplex")
    if not tri.simplices:
        raise TriangulationError("no simplices")
    for s in tri.simplices:
        if len(s) != dim + 1:
            raise TriangulationError(f"simplex {s} does not have {dim + 1} vertices")
        pts = [tri.points[k] for k in s]
        vol = abs(_affine_volume(pts))
        if vol == 0:
            raise TriangulationError(f"simplex {s} is degenerate")
    for i, j in itertools.combinations(range(len(tri.simplices)), 2):
        if not _pair_intersects_properly(tri, i, j):
            raise TriangulationError(
                f"simplices {tri.simplices[i]} and {tri.simplices[j]} overlap improperly"
            )
    census = _wall_census(tri.simplices)
    for wall, owners in census.items():
        if len(owners) > 2:
            raise TriangulationError(f"wall {wall} is shared by more than two simplices")
        if len(owners) == 1:
            wall_pts = [tri.points[k] for k in wall]
            on_boundary = any(
                all(dot(w, p) == c for p in wall_pts) for w, c in poly.facets
            )
            if not on_boundary:
                raise TriangulationError(
                    f"wall {wall} of simplex {owners[0]} is unmatched but interior; "
                    "the simplices do not cover the polytope"
                )
    return poly


def _affine_volume(pts):
    base = pts[0]
    return det_int([vec_sub(p, base) for p in pts[1:]])


# ---------------------------------------------------------------------------
# coherence: exact lifting certificates
# ---------------------------------------------------------------------------

def _interpolant_row(tri, simplex, q):
    """Barycentric weights of point q w.r.t. a simplex, as exact Fractions."""
    pts = [tri.points[k] for k in simplex]
    return _barycentric(pts, tri.points[q])


def verify_coherence(tri, lifting=None):
    """Check that a lifting induces the triangulation as its lower hull.

    For every maximal simplex the affine interpolant of the lifting values
    must undercut the lifting strictly at every point not in the simplex.
    """
    h = tri.lifting if lifting is None else tuple(int(x) for x in lifting)
    if h is None:
        raise GeometryError("no lifting supplied")
    if len(h) != len(tri.points):
        raise GeometryError("lifting length does not match point count")
    for s in tri.simplices:
        for q in range(len(tri.points)):
            if q in s:
                continue
            lam = _interpolant_row(tri, s, q)
            interp = sum(l * h[k] for l, k in zip(lam, s))
            if not interp < h[q]:
                return False
    return True


def find_lifting(tri):
    """Search for an integer lifting certifying coherence.

    Strict inequalities are turned into `>= 1` after clearing denominators
    and the resulting system is solved by exact Fourier-Motzkin; the witness
    is scaled to integers and re-verified.  Returns None when incoherent.
    """
    n = len(tri.points)
    constraints = []
    for s in tri.simplices:
        for q in range(n):
            if q in s:
                continue
            lam = _interpolant_row(tri, s, q)
            denom = lcm(*(l.denominator for l in lam)) if lam else 1
            coeffs = [Fraction(0)] * n
            coeffs[q] = Fraction(denom)
            for l, k in zip(lam, s):
                coeffs[k] -= l * denom
            constraints.append((tuple(coeffs), Fraction(-1)))
    witness = feasible_point(constraints, n)
    if witness is None:
        return None
    scale = lcm(*(x.denominator for x in witness))
    lifting = tuple(int(x * scale) for x in witness)
    if not verify_coherence(tri, lifting):
        raise InvariantError("feasibility witness failed exact re-verification")
    return lifting


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan:
    """A simplicial fan given by generators and maximal cone index sets.

    ``support_facets`` is the facet system of the support cone; None marks a
    complete fan.  ``height_dual`` pairs to one with every generator for fans
    that live over a polytope slice (used for degrees and Hessian data).
    """

    def __init__(self, generators, max_cones, *, support_facets=None,
                 height_dual=None, lifting=None):
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        self.max_cones = tuple(sorted(tuple(sorted(c)) for c in max_cones))
        if not self.generators:
            raise GeometryError("a fan needs generators")
        self.rank = len(self.generators[0])
        self.support_facets = None if support_facets is None else tuple(support_facets)
        self.height_dual = None if height_dual is None else tuple(height_dual)
        self.lifting = None if lifting is None else tuple(lifting)
        self._effective = {}  # (bound, ample) -> enumerate_effective's classes
        if self.height_dual is not None:
            bad = [g for g in self.generators if dot(self.height_dual, g) != 1]
            if bad:
                raise GeometryError(f"generators {bad} are not at height one")
        for cone in self.max_cones:
            if len(cone) != self.rank:
                raise GeometryError(f"maximal cone {cone} does not have rank {self.rank}")

    @property
    def is_complete(self):
        return self.support_facets is None

    @cached_property
    def volumes(self):
        vols = {}
        for cone in self.max_cones:
            v = cone_volume([self.generators[i] for i in cone])
            if v == 0:
                raise GeometryError(f"maximal cone {cone} is degenerate")
            vols[cone] = v
        return vols

    @cached_property
    def total_volume(self):
        return sum(self.volumes.values())

    @cached_property
    def cone_adjugates(self):
        """Integer inverse data of every maximal cone, in ``max_cones`` order.

        For a cone sigma with generator matrix M (columns v_i, i in sigma, in
        index order) the entry is (D, adj, outside): D = det M with its sign,
        adj the integer adjugate (adj @ M = D * identity), and ``outside``
        maps every generator index i not in sigma to adj @ v_i.  The pushout
        Brion sum reads the coordinates and the volume of every pushout cone
        from these.
        """
        out = []
        for cone in self.max_cones:
            mat = [[self.generators[i][k] for i in cone]
                   for k in range(self.rank)]
            det, adj = adjugate(mat)
            outside = {
                i: tuple(dot(row, v) for row in adj)
                for i, v in enumerate(self.generators) if i not in cone
            }
            out.append((det, tuple(map(tuple, adj)), outside))
        return tuple(out)

    @cached_property
    def relation_basis(self):
        """Canonical basis of the lattice of relations among the generators."""
        return tuple(relations_among(self.generators))

    def relation_coords(self, beta):
        """Coordinates of a relation vector in the canonical kernel basis.

        The basis is in Hermite normal form: its rows have their pivots in
        increasing columns, and every later row is zero in an earlier row's
        pivot column.  So the coordinates follow one by one from the pivot
        entries of ``beta``, with no elimination.
        """
        basis = self.relation_basis
        if not basis:
            raise GeometryError("the relation lattice is trivial")
        if not self.is_relation(beta):
            raise GeometryError(f"{beta} is not a relation among the generators")
        coords = []
        for row in basis:
            pivot = next(j for j, x in enumerate(row) if x)
            rest = beta[pivot] - sum(
                y * prev[pivot] for y, prev in zip(coords, basis)
            )
            y, remainder = divmod(rest, row[pivot])
            if remainder:
                raise GeometryError("solution exists but is not integral")
            coords.append(y)
        return tuple(coords)

    def is_relation(self, beta):
        n = len(self.generators)
        if len(beta) != n:
            return False
        return all(
            sum(beta[i] * self.generators[i][k] for i in range(n)) == 0
            for k in range(self.rank)
        )

    @cached_property
    def _walls(self):
        """(interior walls with their two cones, boundary walls with one)."""
        census = _wall_census(self.max_cones)
        interior = []
        boundary = []
        for wall, owners in sorted(census.items()):
            if len(owners) > 2:
                raise InvariantError(f"wall {wall} lies in more than two maximal cones")
            if len(owners) == 2:
                interior.append((wall, owners[0], owners[1]))
                continue
            if self.is_complete:
                raise InvariantError(
                    f"fan marked complete but wall {wall} has a single cone"
                )
            pts = [self.generators[i] for i in wall]
            on_facet = any(
                all(dot(w, p) == 0 for p in pts) for w in self.support_facets
            )
            if not on_facet:
                raise InvariantError(
                    f"wall {wall} is unmatched yet not on the support boundary"
                )
            boundary.append((wall, owners[0]))
        return tuple(interior), tuple(boundary)

    @property
    def interior_walls(self):
        return self._walls[0]

    @property
    def boundary_walls(self):
        return self._walls[1]

    @cached_property
    def wall_relations(self):
        """Primitive relation per interior wall, positive on the opposite rays.

        Duplicates from different walls are merged; the result is sorted.
        A fan with a single maximal cone has no interior walls and returns ().
        """
        rels = set()
        for wall, c1, c2 in self.interior_walls:
            support = sorted(set(c1) | set(c2))
            kernel = relations_among([self.generators[i] for i in support])
            if len(kernel) != 1:
                raise InvariantError(
                    f"wall {wall} does not give a unique relation; got rank {len(kernel)}"
                )
            local = kernel[0]
            rel = [0] * len(self.generators)
            for pos, i in enumerate(support):
                rel[i] = local[pos]
            opp1 = next(iter(set(c1) - set(wall)))
            opp2 = next(iter(set(c2) - set(wall)))
            if rel[opp1] < 0:
                rel = [-x for x in rel]
            if rel[opp1] <= 0 or rel[opp2] <= 0:
                raise InvariantError(
                    f"wall relation at {wall} is not positive on the opposite rays"
                )
            rels.add(primitive_vector(rel))
        return tuple(sorted(rels))


def build_fan(tri, polytope=None):
    """Fan over the cone of a triangulated polytope, generators at height one.

    The triangulation is taken as valid: callers run
    :func:`validate_triangulation` first.  Only the cones are checked here,
    each for degeneracy.
    """
    poly = polytope if polytope is not None else LatticePolytope(tri.points)
    generators = [p + (1,) for p in tri.points]
    support = [w + (-c,) for w, c in poly.facets]
    height = (0,) * poly.dim + (1,)
    fan = Fan(
        generators,
        tri.simplices,
        support_facets=support,
        height_dual=height,
        lifting=tri.lifting,
    )
    fan.volumes  # force the degeneracy check
    return fan


def complete(fan, v0=None):
    """Complete a fan over a cone by adding one ray through -interior.

    The default ray is the negative of the height vector.  The chosen ray is
    primitivized; its negative must be interior to the support cone.  The
    result is a complete :class:`Fan` whose generator 0 is the new ray and
    whose generator i + 1 is the base generator i.  Its maximal cones are the
    shifted base cones plus the new ray joined to every boundary wall; its
    volumes (simpliciality) and its wall census (every wall in exactly two
    cones) are checked here.
    """
    if fan.is_complete:
        raise GeometryError("fan is already complete")
    if v0 is None:
        if fan.height_dual is None:
            raise GeometryError("no default completion ray without a height vector")
        v0 = vec_neg(_default_interior_vector(fan))
    v0 = primitive_vector(v0)
    neg = vec_neg(v0)
    if not all(dot(w, neg) > 0 for w in fan.support_facets):
        raise GeometryError(
            f"-v0 = {neg} is not interior to the support cone; cannot complete"
        )
    shifted = [tuple(i + 1 for i in cone) for cone in fan.max_cones]
    joined = [(0,) + tuple(i + 1 for i in wall) for wall, _ in fan.boundary_walls]
    completed = Fan((v0,) + fan.generators, shifted + joined)
    completed.volumes         # raises on a degenerate cone
    completed.interior_walls  # raises on a wall not in exactly two cones
    return completed


def _default_interior_vector(fan):
    # The height vector read as a point: (0,..,0,1) for a polytope at height
    # one (the origin of the slice), and (0,..,0,1,..,1) = sum of the apex
    # generators for Cayley-style fans.  Interior exactly when the slice
    # origin is interior, which is the reflexive / nef-partition situation.
    vec = fan.height_dual
    if not all(dot(w, vec) > 0 for w in fan.support_facets):
        raise GeometryError(
            "the default completion ray is not usable for this polytope; "
            "pass v0 explicitly (its negative must be interior to the cone)"
        )
    return vec


@dataclass(frozen=True)
class MoriData:
    """Wall relations (Mori cone generators) plus the degree functional."""

    wall_relations: tuple
    ample: tuple


def wall_relations(fan, ample=None):
    """MoriData for a fan; the ample values default to the stored lifting."""
    L = ample if ample is not None else fan.lifting
    rels = fan.wall_relations
    if L is not None:
        for rel in rels:
            if dot(L, rel) <= 0:
                raise GeometryError(
                    f"degree functional is not positive on wall relation {rel}"
                )
    return MoriData(wall_relations=rels, ample=None if L is None else tuple(L))


def enumerate_effective(fan, bound, ample=None):
    """Lattice points of the Mori cone with degree at most ``bound``.

    Degrees are taken against the ample values (default: the fan's lifting);
    the functional must be strictly positive on every wall relation, which
    makes the slice compact.  Output is sorted by (degree, lex) and always
    contains the zero class.

    The Mori cone is the cone spanned by the wall relations.  In the
    coordinates of ``fan.relation_basis`` it is full-dimensional (a weight
    vanishing on every wall relation is linear across every interior wall,
    hence affine) and pointed (the degree is positive on it), so its facet
    normals, computed once, decide membership: a point of the bounding box
    of the degree slice is kept when it pairs nonnegatively with each.  The
    result is cached on the fan per (bound, ample), so repeated calls within
    one problem context cost a lookup.
    """
    mori = wall_relations(fan, ample)
    L = mori.ample
    if L is None:
        raise GeometryError("no ample/degree values available")
    if bound < 0:
        raise GeometryError("negative degree bound")
    key = (bound, L)
    if key not in fan._effective:
        fan._effective[key] = _mori_lattice_points(fan, mori.wall_relations, bound, L)
    return fan._effective[key]


def _mori_lattice_points(fan, rels, bound, L):
    if not rels:
        return ((0,) * len(fan.generators),)
    basis = fan.relation_basis
    rho = len(basis)
    ycoords = [fan.relation_coords(rel) for rel in rels]
    span = matrix_rank(ycoords)
    if span != rho:
        raise InvariantError(
            f"the wall relations of the fan on generators {fan.generators} "
            f"span rank {span}, not the relation rank {rho}"
        )
    normals = cone_facet_normals(ycoords)
    degs = [dot(L, rel) for rel in rels]
    los, his = [], []
    for i in range(rho):
        vals = [Fraction(0)] + [Fraction(bound * y[i], d) for y, d in zip(ycoords, degs)]
        los.append(ceil(min(vals)))
        his.append(floor(max(vals)))
    out = []
    for y in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if any(dot(w, y) < 0 for w in normals):
            continue
        beta = tuple(
            sum(y[i] * basis[i][j] for i in range(rho))
            for j in range(len(fan.generators))
        )
        deg = dot(L, beta)
        if deg <= bound:
            out.append((deg, beta))
    out.sort()
    return tuple(beta for _, beta in out)
