"""Pushout fans for series coefficients, and the Cayley-cone pipeline.

Two constructions live here.  The pushout (moduli) fan attached to a complete
fan and an effective class realizes each series coefficient as a single
intersection number: every generator v_i is replicated beta_i^+ + 1 times in a
larger lattice chosen so that the relations of the base embed diagonally.
Its Brion sum (``mp_evaluate``) reads each pushout cone's coordinates from
the cached adjugate of the base cone below it, with no solve per cone, and
its volume from that base cone's determinant, with no determinant per cone
(the block-triangular argument of ``mp_fan``); ``jk.evaluate_top_class``,
which solves every cone, is its reference.
The Cayley construction turns a reflexive polytope with a coherent star
triangulation and a nef partition into the height-one data the residue
machinery consumes: the Cayley cone, its induced triangulation and lifting,
and the dictionary between classes upstairs and classes on the base fan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fan import Triangulation, Fan, enumerate_effective, find_lifting, \
    verify_coherence
from .jk import JKEngine, brion_constant, evaluate_top_class, zero_top_class
from .lattice import (
    GeometryError,
    InvariantError,
    cone_facet_normals,
    feasible_point,
    solve_rational,
)
from .mirror import SeriesTable, rm_coefficient
from .poly import monomial, poly_mul, poly_pow


# ---------------------------------------------------------------------------
# pushout fans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PushoutFan:
    """The replicated fan of a (complete fan, class) pair.

    ``slots`` lists the generator copies as (base index, copy number); copy 0
    carries the base generator in the enlarged lattice and copies 1..beta_i^+
    are fresh coordinate rays.  ``fan`` is a genuine complete simplicial fan.
    ``cones_over`` holds, per maximal cone of ``base`` (in its order), the
    pushout cones above it as (skips, cone) pairs: ``skips`` names the copy
    dropped over each base generator outside the base cone, in index order.
    Every cone above a base cone sigma has the volume |det| of sigma (see
    :func:`mp_fan`), which ``base.cone_adjugates`` holds.
    """

    fan: Fan
    slots: tuple          # of (i, j)
    slot_index: dict      # (i, j) -> position
    beta: tuple
    base_count: int
    base: Fan
    cones_over: tuple     # per base cone: ((skips, cone), ...)

    def embed(self, exps):
        """Exponents over the base generators, moved to the copy-0 slots."""
        out = [0] * len(self.slots)
        for i, e in enumerate(exps):
            if e:
                out[self.slot_index[(i, 0)]] = int(e)
        return tuple(out)


def mp_fan(base, beta):
    """Pushout fan of a complete simplicial fan along an effective class.

    ``base`` is a complete simplicial :class:`Fan`; ``beta`` must be a
    relation among its generators.  Maximal cones follow the complement
    rule: keep all copies over a cone, and drop exactly one copy over each
    ray outside it.  The cone-count formula
    sum_sigma prod_(i not in sigma) (beta_i^+ + 1) and completeness (every
    wall in exactly two cones) are verified.

    No pushout cone needs a determinant of its own.  In the generator matrix
    of a cone above sigma, every kept fresh copy (i, j), j >= 1, is a unit
    column e_ij, and every skipped fresh copy s_i >= 1 leaves the row e_is
    with one entry, the -1 of copy (i, 0).  Expanding along those columns
    and then along each skipped fresh-ray row removes every fresh row, the
    fresh columns and the copy-0 columns outside sigma, each with a factor
    of +-1; what is left is the base block, the matrix of sigma.  So the
    cone's volume is |D| for the signed determinant D of sigma, and it is
    simplicial exactly when sigma is, which the base fan's cached
    ``volumes`` check.
    """
    gens = tuple(tuple(g) for g in base.generators)
    count = len(gens)
    rank = len(gens[0])
    beta = tuple(int(b) for b in beta)
    if len(beta) != count:
        raise GeometryError("class length does not match the generator count")
    for k in range(rank):
        if sum(beta[i] * gens[i][k] for i in range(count)) != 0:
            raise GeometryError(f"{beta} is not a relation among the generators")
    base.volumes  # simpliciality: raises on a degenerate base cone
    plus = [max(b, 0) for b in beta]
    extra = sum(plus)

    slots = []
    ext_of = {}
    for i in range(count):
        slots.append((i, 0))
        for j in range(1, plus[i] + 1):
            ext_of[(i, j)] = len(ext_of)
            slots.append((i, j))
    slot_index = {s: pos for pos, s in enumerate(slots)}

    vectors = []
    for i, j in slots:
        if j == 0:
            tail = [0] * extra
            for jj in range(1, plus[i] + 1):
                tail[ext_of[(i, jj)]] = -1
            vectors.append(gens[i] + tuple(tail))
        else:
            tail = [0] * extra
            tail[ext_of[(i, j)]] = 1
            vectors.append((0,) * rank + tuple(tail))

    cones = []
    cones_over = []
    for sigma in base.max_cones:
        inside = set(sigma)
        members = [slot_index[(i, j)] for (i, j) in slots if i in inside]
        outside = [i for i in range(count) if i not in inside]
        above = []
        for choice in itertools.product(*(range(plus[i] + 1) for i in outside)):
            cone = list(members)
            for i, skip in zip(outside, choice):
                cone.extend(
                    slot_index[(i, j)] for j in range(plus[i] + 1) if j != skip
                )
            above.append((choice, tuple(sorted(cone))))
        cones.extend(cone for _, cone in above)
        cones_over.append(tuple(above))
    expected = sum(
        _product(plus[i] + 1 for i in range(count) if i not in set(sigma))
        for sigma in base.max_cones
    )
    if len(cones) != len(set(cones)) or len(cones) != expected:
        raise InvariantError(
            f"pushout produced {len(cones)} cones, expected {expected} distinct"
        )
    fan = Fan(vectors, cones)
    fan.interior_walls   # completeness: every wall shared by exactly two cones
    return PushoutFan(
        fan=fan,
        slots=tuple(slots),
        slot_index=slot_index,
        beta=beta,
        base_count=count,
        base=base,
        cones_over=tuple(cones_over),
    )


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def mp_class(pushout, P, parts=None):
    """The top-degree class P * Phi_beta on a pushout fan, as factors.

    Returns (polynomial, power) pairs for :func:`evaluate_top_class`, never
    their expanded product.  ``P`` is a polynomial in the base variables,
    moved to the copy-0 slots (power 1).  Phi contributes the monomial
    prod x_{i,0}^(beta_i^-) (power 1) and, when ``parts`` lists a partition
    of base indices, the linear form -sum_{i in E_j} x_{i,0} to the power
    k_j per part, with k_j the beta-total of the part (which must be
    nonnegative).
    """
    width = len(pushout.slots)
    phi_exps = [0] * width
    for i, b in enumerate(pushout.beta):
        if b < 0:
            phi_exps[pushout.slot_index[(i, 0)]] = -b
    embedded = {}
    for exps, coeff in P.items():
        key = pushout.embed(exps)
        embedded[key] = embedded.get(key, Fraction(0)) + Fraction(coeff)
    factors = [(embedded, 1), (monomial(phi_exps), 1)]
    for part in parts or ():
        k = sum(pushout.beta[i] for i in part)
        if k < 0:
            raise GeometryError(
                f"part {tuple(part)} has negative class total {k}; "
                "the moving factor is undefined"
            )
        linear = {}
        for i in part:
            key = [0] * width
            key[pushout.slot_index[(i, 0)]] = 1
            linear[tuple(key)] = Fraction(-1)
        factors.append((linear, k))
    return factors


def mp_evaluate(pushout, class_factors):
    """Intersection number of a factored top-degree class on the pushout fan.

    The Brion sum of :func:`~toricres.jk.evaluate_top_class`, over the same
    cones at the same generic points, with the same degree check, pole
    retries and constancy check; that function is its reference.  Only the
    cone coordinates are found differently: none is solved for, each is
    read off the pushout structure (:func:`_structured_sum`).  The fan's
    cone count, simpliciality and walls were checked by :func:`mp_fan`.
    """
    fan = pushout.fan
    if zero_top_class(class_factors, fan.rank):
        return Fraction(0)
    factors = []
    scale = 1
    for poly, power in class_factors:
        denom = lcm(*(Fraction(c).denominator for c in poly.values()))
        terms = tuple(
            (int(Fraction(c) * denom),
             tuple((slot, e) for slot, e in enumerate(exps) if e))
            for exps, c in poly.items()
        )
        factors.append((terms, power))
        scale *= denom ** power

    def brion_sum(point):
        total = _structured_sum(pushout, factors, point)
        return None if total is None else total / scale

    return brion_constant(fan.rank, brion_sum)


def _structured_sum(pushout, factors, point):
    """Brion sum of integer factors at one point, or None at a pole.

    Over a base cone sigma with signed determinant D and adjugate adj, let
    p_ij be the point's coordinate on the fresh ray of copy (i, j), j >= 1.
    A pushout cone dropping copy s_i over each generator i outside sigma
    has the coordinates c = C / D with
      C_i0 = -D p_is for an outside i with s_i >= 1 (no slot when s_i = 0),
      C_sigma = adj p_base + sum of p_is adj v_i over those i,
      C_ij = D p_ij + C_i0 for every kept copy j >= 1 (C_i0 = 0 if dropped).
    Every C is an integer.  D cancels from each term
    prod f(c)^k / (vol prod c), because the factors are homogeneous with
    degrees (times powers) adding up to the rank, which is also the number
    of coordinates; so the term is prod f(C)^k / (vol prod C), where vol is
    |D| (:func:`mp_fan`).
    """
    base = pushout.base
    width = len(pushout.slots)
    copy0 = [pushout.slot_index[(i, 0)] for i in range(pushout.base_count)]
    fresh = [[] for _ in copy0]        # per base generator: fresh-ray slots
    p = [0] * width                    # the point on the fresh-ray slots
    k = base.rank
    for slot, (i, j) in enumerate(pushout.slots):
        if j:
            fresh[i].append(slot)
            p[slot] = point[k]
            k += 1
    p_base = point[:base.rank]
    total = Fraction(0)
    for sigma, (det, adj, adj_outside), above in zip(
            base.max_cones, base.cone_adjugates, pushout.cones_over):
        outside = sorted(adj_outside)
        start = [sum(a * b for a, b in zip(row, p_base)) for row in adj]
        dp = [det * x for x in p]
        vol = abs(det)
        for skips, cone in above:
            vals = [0] * width
            coords = start
            for i, s in zip(outside, skips):
                if s:
                    ps = p[fresh[i][s - 1]]
                    vals[copy0[i]] = -det * ps
                    coords = [c + ps * a for c, a in zip(coords, adj_outside[i])]
            for i, c in zip(sigma, coords):
                vals[copy0[i]] = c
            skip_of = dict(zip(outside, skips))
            for i, slots in enumerate(fresh):
                c0 = vals[copy0[i]]
                s = skip_of.get(i, 0)
                for j, slot in enumerate(slots, 1):
                    if j != s:
                        vals[slot] = dp[slot] + c0
            den = vol
            for slot in cone:
                if not vals[slot]:
                    return None
                den *= vals[slot]
            num = 1
            for terms, power in factors:
                value = 0
                for c, powers in terms:
                    for slot, e in powers:
                        c *= vals[slot] ** e
                    value += c
                num *= value ** power
            total += Fraction(num, den)
    return total


@dataclass(frozen=True)
class CrosscheckResult:
    """Series coefficient computed two ways: residues vs pushout evaluation."""

    beta: tuple
    series_value: Fraction
    pushout_value: Fraction

    @property
    def ok(self):
        return self.series_value == self.pushout_value


def crosscheck_coefficient(ctx, P, beta):
    """Compare the residue route and the pushout route for one coefficient.

    ``ctx`` is a ResidueContext, ``P`` a degree-rank polynomial over the base
    generators, ``beta`` a relation of the base fan.  The residue route sums
    rm_coefficient over the monomials of P; the pushout route evaluates
    P * Phi on the pushout of the completed fan along (0,) + beta.
    """
    beta = tuple(int(b) for b in beta)
    series_value = Fraction(0)
    for exps, coeff in sorted(P.items()):
        series_value += Fraction(coeff) * rm_coefficient(ctx, exps, beta)
    lifted = (0,) + beta
    pushout = mp_fan(ctx.completed, lifted)
    shifted = {}
    for exps, coeff in P.items():
        shifted[(0,) + tuple(exps)] = Fraction(coeff)
    value = mp_evaluate(pushout, mp_class(pushout, shifted))
    return CrosscheckResult(beta=beta, series_value=series_value,
                            pushout_value=value)


# ---------------------------------------------------------------------------
# the Cayley construction
# ---------------------------------------------------------------------------

class CayleyData:
    """A reflexive polytope with star triangulation and nef partition, bundled.

    Exposes the base (bar) side -- the complete fan over the boundary points
    -- and the Cayley side: generators (v_i, e_j) for point i in part j plus
    one apex (0, e_j) per part, with the induced coherent triangulation of
    the Cayley cone.  ``tri`` must be validated and carry the lifting that
    certifies its coherence; the constructor trusts both and checks only
    the induced Cayley triangulation.  Attributes:

    points, origin_index, triangulation : base data
    bar_points : non-origin points, lex order
    parts : partition by bar index
    bar_fan : complete fan over the boundary points
    fan : the Cayley fan (with support cone, height vector and lifting)
    apex_offset, r, dim_bar : layout numbers (apexes sit at the end)
    gen_part : part index of every Cayley generator
    """

    def __init__(self, polytope, tri, parts_points):
        points = tri.points
        if not polytope.is_reflexive():
            raise GeometryError("the Cayley construction needs a reflexive polytope")
        dim_bar = polytope.dim
        origin = (0,) * dim_bar
        if origin not in points:
            raise GeometryError("the origin is not a lattice point of the polytope")
        origin_index = points.index(origin)
        for s in tri.simplices:
            if origin_index not in s:
                raise GeometryError(
                    f"simplex {s} misses the origin: not a star triangulation"
                )

        indices = set(range(len(points)))
        seen = set()
        cleaned = []
        for part in parts_points:
            part = tuple(sorted(int(i) for i in part))
            if not part:
                raise GeometryError("empty part in the partition")
            if any(i not in indices for i in part):
                raise GeometryError(f"part {part} references a missing point")
            if origin_index in part:
                raise GeometryError("the origin cannot belong to a part")
            if seen & set(part):
                raise GeometryError(f"part {part} overlaps an earlier part")
            seen |= set(part)
            cleaned.append(part)
        if seen != indices - {origin_index}:
            missing = sorted(indices - {origin_index} - seen)
            raise GeometryError(f"points {missing} belong to no part")
        parts_points = tuple(cleaned)
        r = len(parts_points)

        point_of_bar = tuple(i for i in range(len(points)) if i != origin_index)
        bar_of_point = {p: b for b, p in enumerate(point_of_bar)}
        bar_points = tuple(points[p] for p in point_of_bar)
        parts = tuple(
            tuple(sorted(bar_of_point[p] for p in part)) for part in parts_points
        )
        part_of_bar = [None] * len(bar_points)
        for j, part in enumerate(parts):
            for b in part:
                part_of_bar[b] = j
        part_of_bar = tuple(part_of_bar)

        lifting_bar = tri.lifting
        if lifting_bar is None:
            raise GeometryError(
                "the Cayley construction needs the lifting that certifies "
                "the star triangulation"
            )

        bar_cones = tuple(
            tuple(sorted(bar_of_point[p] for p in s if p != origin_index))
            for s in tri.simplices
        )
        shift = lifting_bar[origin_index]
        bar_ample = tuple(lifting_bar[p] - shift for p in point_of_bar)
        bar_fan = Fan(bar_points, bar_cones, lifting=bar_ample)
        bar_fan.volumes
        bar_fan.interior_walls

        _check_nef_partition(bar_fan, parts, polytope, points, parts_points,
                             origin_index)

        apex_offset = len(bar_points)
        gens = []
        for b, v in enumerate(bar_points):
            unit = [0] * r
            unit[part_of_bar[b]] = 1
            gens.append(tuple(v) + tuple(unit))
        for j in range(r):
            unit = [0] * r
            unit[j] = 1
            gens.append(origin + tuple(unit))
        apexes = tuple(range(apex_offset, apex_offset + r))
        cones = tuple(
            tuple(sorted(cone)) + apexes for cone in bar_cones
        )
        height = (0,) * dim_bar + (1,) * r
        support = cone_facet_normals(gens)

        lifting_tilde = tuple(
            [lifting_bar[p] for p in point_of_bar] + [shift] * r
        )
        tilde = Triangulation(gens, cones, lifting=lifting_tilde)
        if not verify_coherence(tilde, lifting_tilde):
            found = find_lifting(tilde)
            if found is None:
                raise InvariantError(
                    "the induced Cayley triangulation admits no coherent lifting"
                )
            lifting_tilde = found

        fan = Fan(
            gens,
            cones,
            support_facets=support,
            height_dual=height,
            lifting=lifting_tilde,
        )
        fan.volumes
        fan.interior_walls  # pseudomanifold check against the support boundary

        self.points = points
        self.origin_index = origin_index
        self.triangulation = tri
        self.bar_points = bar_points
        self.parts = parts
        self.bar_fan = bar_fan
        self.fan = fan
        self.apex_offset = apex_offset
        self.r = r
        self.dim_bar = dim_bar
        self.gen_part = part_of_bar + tuple(range(r))


def _check_nef_partition(bar_fan, parts, polytope, points, parts_points,
                         origin_index):
    """The partition must induce nonnegative integral convex support functions.

    Convexity is the wall criterion (each part's indicator values pair
    nonnegatively with every wall relation); integrality solves the linear
    extension on every maximal cone; and each part polytope conv({0} u part)
    may contain no other lattice point of the base polytope.
    """
    for j, part in enumerate(parts):
        members = set(part)
        for rel in bar_fan.wall_relations:
            pairing = sum(rel[b] for b in members)
            if pairing < 0:
                raise GeometryError(
                    f"part {j} is not nef: support function bends the wrong "
                    f"way across the wall with relation {rel}"
                )
        for cone in bar_fan.max_cones:
            mat = [list(bar_fan.generators[b]) for b in cone]
            rhs = [Fraction(int(b in members)) for b in cone]
            w = solve_rational(mat, rhs)
            if w is None:
                raise InvariantError(f"cone {cone} has no linear extension")
            if any(x.denominator != 1 for x in w):
                raise GeometryError(
                    f"part {j} support function is not integral on cone {cone}"
                )

    dim = polytope.dim
    for j, part in enumerate(parts_points):
        verts = [(0,) * dim] + [points[p] for p in part]
        allowed = set(verts)
        for p in points:
            if p in allowed:
                continue
            if _in_hull(verts, p):
                raise GeometryError(
                    f"part {j} spans extra lattice point {p}; the Cayley "
                    "generators would not exhaust the lattice points"
                )


def _in_hull(vertices, point):
    """Exact membership of a lattice point in conv(vertices), any dimension."""
    nvars = len(vertices)
    constraints = []
    for k in range(nvars):
        coeffs = [Fraction(0)] * nvars
        coeffs[k] = Fraction(1)
        constraints.append((tuple(coeffs), Fraction(0)))
    ones = tuple(Fraction(1) for _ in range(nvars))
    constraints.append((ones, Fraction(-1)))
    constraints.append((tuple(-x for x in ones), Fraction(1)))
    for k in range(len(point)):
        row = tuple(Fraction(v[k]) for v in vertices)
        constraints.append((row, Fraction(-point[k])))
        constraints.append((tuple(-x for x in row), Fraction(point[k])))
    return feasible_point(constraints, nvars) is not None


# --- class dictionary -------------------------------------------------------

def part_degrees(cayley, beta_bar):
    """Per-part totals of a base class (the nef support function degrees)."""
    return tuple(sum(beta_bar[b] for b in part) for part in cayley.parts)


def beta_lift(cayley, beta_bar):
    """The Cayley-fan class matching a base class: minus part totals on apexes."""
    beta_bar = tuple(int(b) for b in beta_bar)
    if not cayley.bar_fan.is_relation(beta_bar):
        raise GeometryError(f"{beta_bar} is not a relation of the base fan")
    degrees = part_degrees(cayley, beta_bar)
    full = beta_bar + tuple(-k for k in degrees)
    if not cayley.fan.is_relation(full):
        raise InvariantError(f"lift {full} is not a relation of the Cayley fan")
    return full


# --- series on the base fan -------------------------------------------------

def _validated_bar_poly(cayley, P):
    clean = {}
    for exps, coeff in P.items():
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        exps = tuple(int(e) for e in exps)
        if len(exps) != cayley.apex_offset:
            raise GeometryError(
                f"monomial {exps} has the wrong number of base variables"
            )
        if any(e < 0 for e in exps):
            raise GeometryError(f"monomial {exps} has a negative exponent")
        if sum(exps) != cayley.dim_bar:
            raise GeometryError(
                f"monomial {exps} has degree {sum(exps)}, "
                f"expected {cayley.dim_bar}"
            )
        clean[exps] = coeff
    return clean


def ci_series_coefficient(cayley, P, beta_bar):
    """One series coefficient by pushout evaluation on the base fan.

    ``P`` is a polynomial over the base generators, homogeneous of degree
    equal to the base dimension; ``beta_bar`` is a class of the base fan
    whose part totals must be nonnegative.
    """
    P = _validated_bar_poly(cayley, P)
    beta_bar = tuple(int(b) for b in beta_bar)
    if not cayley.bar_fan.is_relation(beta_bar):
        raise GeometryError(f"{beta_bar} is not a relation of the base fan")
    return _pushout_coefficient(cayley, P, beta_bar)


def _pushout_coefficient(cayley, P, beta_bar):
    """ci_series_coefficient for a validated P and a relation beta_bar."""
    pushout = mp_fan(cayley.bar_fan, beta_bar)
    return mp_evaluate(pushout, mp_class(pushout, P, parts=cayley.parts))


def ci_series(cayley, P, bound):
    """Series table over the effective base classes up to the degree bound.

    P is validated once for the table; the classes are relations by
    construction.
    """
    P = _validated_bar_poly(cayley, P)
    rows = tuple(
        (beta_bar, _pushout_coefficient(cayley, P, beta_bar))
        for beta_bar in enumerate_effective(cayley.bar_fan, bound)
    )
    return SeriesTable(
        entries=rows,
        bound=bound,
        ample=tuple(cayley.bar_fan.lifting),
        v0=None,
    )


# --- the residue route upstairs ---------------------------------------------

def interior_polynomial(cayley, P):
    """Move a base polynomial to the Cayley variables, times all apexes.

    Every monomial gains one factor per apex, which makes its image interior
    to the Cayley cone: this is the polynomial the residue route consumes.
    """
    P = _validated_bar_poly(cayley, P)
    out = {}
    for exps, coeff in P.items():
        full = tuple(exps) + (1,) * cayley.r
        out[full] = coeff
    return out


def cayley_rm_coefficient(ctx, cayley, P, beta_bar):
    """The same series coefficient via residues on the completed Cayley fan."""
    full = beta_lift(cayley, beta_bar)
    total = Fraction(0)
    for exps, coeff in sorted(interior_polynomial(cayley, P).items()):
        total += coeff * rm_coefficient(ctx, exps, full)
    return total


def substitution_value_pair(cayley, ctx, bar_exps, part_exps):
    """Both sides of the apex-replacement identity, as (upstairs, base).

    Upstairs: the residue of x^bar_exps * prod_j x_apex_j^part_exps_j / x_0 on
    the completed Cayley fan.  Base: the residue on the base fan after
    substituting each apex variable by minus the sum of its part's variables.
    """
    bar_exps = tuple(int(e) for e in bar_exps)
    part_exps = tuple(int(k) for k in part_exps)
    if len(bar_exps) != cayley.apex_offset or len(part_exps) != cayley.r:
        raise GeometryError("exponent blocks have the wrong lengths")
    if any(k < 0 for k in part_exps):
        raise GeometryError("apex exponents must be nonnegative to substitute")
    upstairs = ctx.engine.residue((-1,) + bar_exps + part_exps)

    width = cayley.apex_offset
    substituted = monomial(bar_exps)
    for j, k in enumerate(part_exps):
        linear = {}
        for b in cayley.parts[j]:
            key = [0] * width
            key[b] = 1
            linear[tuple(key)] = Fraction(-1)
        substituted = poly_mul(substituted, poly_pow(linear, k))
    base = JKEngine(cayley.bar_fan).residue_of_terms(
        (coeff, exps) for exps, coeff in sorted(substituted.items())
    )
    return upstairs, base


def evaluation_value_pair(cayley, P):
    """Both sides of the evaluation compatibility, as (base, Cayley).

    A top class P on the base fan has the same value as apexes * P on the
    Cayley fan; the latter evaluation is legitimate without completing
    because the class vanishes on the support boundary.
    """
    P = _validated_bar_poly(cayley, P)
    base = evaluate_top_class(cayley.bar_fan, [(P, 1)])
    lifted = {}
    for exps, coeff in P.items():
        lifted[tuple(exps) + (1,) * cayley.r] = coeff
    cayley_side = evaluate_top_class(cayley.fan, [(lifted, 1)],
                                     allow_incomplete=True)
    return base, cayley_side
