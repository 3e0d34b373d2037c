"""Seeded request streams for the toricres benchmark.

Every request is a `toricres` command line over a problem file written by
this module.  The program under test only ever reads those files; the seed
decides the values in them (polynomials, completion rays, bounds, liftings;
mori_lp takes its bounds and liftings from a catalog) and the order of the
series_mix and verify_deep streams.  Those streams are built in blocks: each
block holds every family of its workload at every bound of the family's
range once, in seeded order, and the number of monomials, the completion
ray and the segment go through their ranges from block to block, so that
every block, and the mix of request costs in a run, costs about the same
whatever the seed.

Families, and why each is in a pool:

series_mix (the main user path, `series`):
  p1, p2, square_r2, nonreflexive  the bundled problems, reseeded; p1 also
                                   has the closed form c * 4^k.
  segment                          plain segments [-a, b], a + b <= 4 (Mori
                                   rank <= 3), lifting left for the program
                                   to find.
  p2_star, f1_star, p1xp1_star     small reflexive polygons with a one-part
                                   nef partition and no lifting: the Cayley
                                   route (mpcayley -> jk.evaluate_top_class)
                                   plus find_lifting on every request.
verify_deep (`verify`, the identity battery): the bundled problems, f1_star
  and plain segments at bounds where one battery takes 0.2 to 1 s, so that
  a run holds about thirty; the battery reruns the same residues and
  enumerations.  Deeper bounds (nonreflexive at 7 takes 4 s) leave too few
  requests in a run for a steady median.
mori_lp (`series` and `validate`): triangulated two-row strips with seven
  lattice points, so the Mori cone has rank 4 and membership tests
  (lattice.feasible_point) dominate.  Every catalog entry of
  mori_catalog.json (see make_catalog.py) is a different triangulation and
  runs once per pass over the stream; the catalog fixes its lifting, bound
  and command, and every validate request omits the lifting.  The seed
  adds an affine function to each lifting (which leaves the induced
  triangulation and every wall degree unchanged) and picks the completion
  ray and the polynomial; the order is fixed (see mori_lp).  A pass over
  the catalog took 17 to 27 s on a 2-vCPU host whose speed varies, and a
  run takes 20 s and the rest of its last block, so only in a fast spell
  does a run's last block repeat fans from the start of the stream.

Left out on purpose: polytopes whose Mori cone needs five or more wall
relations after enumeration (the reflexive hexagon and its relatives).  One
`series` request on them takes minutes with the current enumeration, so no
run could finish; a faster feasible_point or enumeration would let a later
benchmark widen the pool with them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED = ROOT / "problems"
CATALOG = HERE / "mori_catalog.json"
GOLDEN = HERE / "golden_classes.json"

COEFFICIENTS = (1, 2, -1, 3, "1/2", "-2/3")


# ---------------------------------------------------------------------------
# small geometry, independent of the package under test
# ---------------------------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Vertices of a 2D point set in counter-clockwise order (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def lattice_points(vertices):
    """Lattice points of a segment or polygon, in lexicographic order."""
    if len(vertices[0]) == 1:
        lo = min(v[0] for v in vertices)
        hi = max(v[0] for v in vertices)
        return [(x,) for x in range(lo, hi + 1)]
    hull = convex_hull(vertices)
    xs = [v[0] for v in hull]
    ys = [v[1] for v in hull]
    out = []
    for p in itertools.product(range(min(xs), max(xs) + 1),
                               range(min(ys), max(ys) + 1)):
        if all(_cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0
               for i in range(len(hull))):
            out.append(p)
    return out


def strictly_inside(vertices, point, height):
    """Is point/height in the interior of the polytope spanned by vertices?"""
    if len(vertices[0]) == 1:
        lo = min(v[0] for v in vertices)
        hi = max(v[0] for v in vertices)
        return lo * height < point[0] < hi * height
    hull = convex_hull(vertices)
    scaled = [(x * height, y * height) for x, y in hull]
    return all(_cross(scaled[i], scaled[(i + 1) % len(scaled)], point) > 0
               for i in range(len(scaled)))


def lower_hull_triangles(points, heights):
    """Triangles of the regular subdivision a generic lifting induces (2D)."""
    tris = []
    for tri in itertools.combinations(range(len(points)), 3):
        (x1, y1), (x2, y2), (x3, y3) = (points[i] for i in tri)
        det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if det == 0:
            continue
        below = True
        for q, (x, y) in enumerate(points):
            if q in tri:
                continue
            l2 = Fraction((x - x1) * (y3 - y1) - (x3 - x1) * (y - y1), det)
            l3 = Fraction((x2 - x1) * (y - y1) - (x - x1) * (y2 - y1), det)
            l1 = 1 - l2 - l3
            interp = l1 * heights[tri[0]] + l2 * heights[tri[1]] \
                + l3 * heights[tri[2]]
            if not interp < heights[q]:
                below = False
                break
        if below:
            tris.append(list(tri))
    return tris


def star_triangles(points):
    """Star triangulation from the origin of a polygon with interior origin."""
    origin = points.index((0, 0))
    ring = sorted((i for i, p in enumerate(points) if p != (0, 0)),
                  key=lambda i: math.atan2(points[i][1], points[i][0]))
    return [sorted((origin, ring[k], ring[(k + 1) % len(ring)]))
            for k in range(len(ring))]


def strip(rows, shear):
    """Two-row strip: `rows[0]` points at y=0, `rows[1]` points at y=1 shifted."""
    bottom, top = rows
    vertices = [[0, 0], [bottom - 1, 0], [shear, 1], [shear + top - 1, 1]]
    return vertices, lattice_points(vertices)


# ---------------------------------------------------------------------------
# shapes: a triangulated polytope, optionally with a nef partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    dimension: int
    vertices: tuple
    points: tuple          # lattice points, lexicographic
    simplices: tuple
    lifting: tuple         # or None: the program searches for one
    nef_partition: tuple   # or None for a plain problem

    def v0_candidates(self):
        """Small admissible completion rays: minus a primitive lattice point
        interior to the support cone (plain: a point of h * polytope, h <= 2;
        nef: the apex sum, once or twice, plus at most one generator)."""
        out = []
        if self.nef_partition is None:
            for h in (1, 2):
                scaled = [tuple(h * x for x in v) for v in self.vertices]
                for point in lattice_points(scaled):
                    if strictly_inside(self.vertices, point, h):
                        out.append(tuple(point) + (h,))
        else:
            r = len(self.nef_partition)
            for m in (1, 2):
                base = (0,) * self.dimension + (m,) * r
                out.append(base)
                for j, part in enumerate(self.nef_partition):
                    for i in part:
                        z = list(base)
                        for k, x in enumerate(self.points[i]):
                            z[k] += x
                        z[self.dimension + j] += 1
                        out.append(tuple(z))
        rays = []
        for z in out:
            g = math.gcd(*z)
            ray = [-x // g for x in z]
            if ray not in rays:
                rays.append(ray)
        return rays

    def polynomial(self, rng, terms):
        """Seeded polynomial of `terms` distinct monomials the series accepts."""
        n = len(self.points)
        if self.nef_partition is None:
            degree = self.dimension + 1
            slots = range(n)
        else:
            degree = self.dimension
            slots = [i for i, p in enumerate(self.points) if any(p)]
        candidates = []
        for combo in itertools.combinations_with_replacement(slots, degree):
            exps = [0] * n
            for i in combo:
                exps[i] += 1
            if self.nef_partition is None:
                image = [sum(self.points[i][k] for i in combo)
                         for k in range(self.dimension)]
                if not strictly_inside(self.vertices, image, degree):
                    continue
            candidates.append(exps)
        chosen = rng.sample(candidates, min(terms, len(candidates)))
        return [[rng.choice(COEFFICIENTS), exps] for exps in sorted(chosen)]

    def problem(self, name, rng, bound, terms, v0=None, lifting=None,
                keep_lifting=True):
        data = {
            "name": name,
            "dimension": self.dimension,
            "vertices": [list(v) for v in self.vertices],
            "simplices": [list(s) for s in self.simplices],
            "v0": v0 or rng.choice(self.v0_candidates()),
            "bound": bound,
            "polynomial": self.polynomial(rng, terms),
        }
        lifting = lifting if lifting is not None else self.lifting
        if keep_lifting and lifting is not None:
            data["lifting"] = list(lifting)
        if self.nef_partition is not None:
            data["nef_partition"] = [list(p) for p in self.nef_partition]
        return data


def bundled(name):
    with open(BUNDLED / f"{name}.json") as handle:
        data = json.load(handle)
    vertices = tuple(tuple(v) for v in data["vertices"])
    nef = data.get("nef_partition")
    return Shape(
        dimension=data["dimension"],
        vertices=vertices,
        points=tuple(lattice_points(vertices)),
        simplices=tuple(tuple(s) for s in data["simplices"]),
        lifting=tuple(data["lifting"]) if "lifting" in data else None,
        nef_partition=None if nef is None else tuple(tuple(p) for p in nef),
    )


def segment(a, b):
    vertices = ((-a,), (b,))
    points = tuple(lattice_points(vertices))
    return Shape(1, vertices, points,
                 tuple((i, i + 1) for i in range(len(points) - 1)), None, None)


def reflexive_star(vertices):
    """A reflexive polygon, star-triangulated, with a one-part partition."""
    points = tuple(lattice_points(vertices))
    part = tuple(i for i, p in enumerate(points) if p != (0, 0))
    return Shape(2, tuple(vertices), points,
                 tuple(tuple(s) for s in star_triangles(list(points))),
                 None, (part,))


def strip_shape(entry):
    vertices, points = strip(entry["rows"], entry["shear"])
    tris = lower_hull_triangles(points, entry["heights"])
    return Shape(2, tuple(map(tuple, vertices)), tuple(points),
                 tuple(tuple(t) for t in tris), tuple(entry["heights"]), None)


P2_STAR = ((1, 0), (0, 1), (-1, -1))
F1_STAR = ((1, 0), (0, 1), (-1, -1), (0, -1))
P1XP1_STAR = ((1, 0), (0, 1), (-1, 0), (0, -1))
SEGMENTS = ((1, 2), (2, 1), (1, 3), (2, 2), (3, 1))


# ---------------------------------------------------------------------------
# request streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One `toricres` command over a generated problem file; every request
    in these workloads is valid, so each expects exit code 0."""

    family: str
    command: str
    problem: dict
    extra: tuple = ()
    closed_form: str = None   # "p1": coefficients c * 4^k on the diagonal
    classes: str = None       # series: key of the expected class set


def class_key(family, shape, bound):
    """Key of a series request's class set in golden_classes.json.  The set
    depends on the fan, the lifting's degrees and the bound, not on the
    polynomial or the completion ray; each shape here has one lifting."""
    return json.dumps([family, [list(v) for v in shape.vertices],
                       [list(s) for s in shape.simplices], bound],
                      separators=(",", ":"))


def _series_families():
    """(family, shape for a visit number, bound range, terms range)."""
    return [
        ("p1", lambda b: bundled("p1"), (8, 10), (1, 2)),
        ("p2", lambda b: bundled("p2"), (4, 6), (1, 3)),
        ("square_r2", lambda b: bundled("square_r2"), (4, 6), (1, 3)),
        ("nonreflexive", lambda b: bundled("nonreflexive"), (4, 6), (1, 3)),
        ("segment", lambda b: segment(*SEGMENTS[b % len(SEGMENTS)]),
         (1, 2), (1, 3)),
        ("p2_star", lambda b: reflexive_star(P2_STAR),
         (3, 4), (1, 3)),
        ("f1_star", lambda b: reflexive_star(F1_STAR),
         (2, 3), (1, 3)),
        ("p1xp1_star", lambda b: reflexive_star(P1XP1_STAR),
         (2, 3), (1, 3)),
    ]


def _verify_families():
    return [
        ("p1", lambda b: bundled("p1"), (7, 7)),
        ("p2", lambda b: bundled("p2"), (6, 7)),
        ("square_r2", lambda b: bundled("square_r2"), (4, 4)),
        ("nonreflexive", lambda b: bundled("nonreflexive"), (4, 4)),
        ("f1_star", lambda b: reflexive_star(F1_STAR), (2, 2)),
        ("segment", lambda b: segment(*SEGMENTS[b % 2]), (2, 2)),
    ]


def _spread(lo, hi, index):
    """The value in lo..hi for a running index: every value equally often,
    whatever the seed, since the value drives the request's cost."""
    return lo + index % (hi - lo + 1)


def _blocks(rng, families, count):
    """`count` (family tuple, bound, visit, phase) items in blocks.  A block
    holds every (family, bound) pair once, in seeded order, so that all
    blocks cost about the same; `visit` numbers a family's requests and
    `phase` (block plus the bound's place in the range) turns the number of
    monomials through its range across the blocks."""
    out, visits = [], {}
    for block in itertools.count():
        items = []
        for family in families:
            lo, hi = family[2]
            for j, bound in enumerate(range(lo, hi + 1)):
                visit = visits.get(family[0], 0)
                visits[family[0]] = visit + 1
                items.append((family, bound, visit, block + j))
        rng.shuffle(items)
        out.extend(items)
        if len(out) >= count:
            return out[:count]


def block_size(families):
    return sum(hi - lo + 1 for _, _, (lo, hi), *_ in families)


def _completion_ray(rng, offsets, family, shape, visit):
    """The family's completion rays in turn from a seeded start: no ray
    repeats before all have run, since the ray also drives the cost."""
    rays = shape.v0_candidates()
    start = offsets.setdefault(family, rng.randrange(len(rays)))
    return rays[(start + visit) % len(rays)]


def series_mix(rng, count):
    requests, offsets = [], {}
    for (family, make, _, (tlo, thi)), bound, visit, phase in _blocks(
            rng, _series_families(), count):
        shape = make(visit)
        v0 = _completion_ray(rng, offsets, family, shape, visit)
        problem = shape.problem(family, rng, bound, _spread(tlo, thi, phase),
                                v0=v0)
        requests.append(Request(family, "series", problem,
                                closed_form="p1" if family == "p1" else None,
                                classes=class_key(family, shape, bound)))
    return requests


def verify_deep(rng, count):
    requests, offsets = [], {}
    for (family, make, _), bound, visit, phase in _blocks(
            rng, _verify_families(), count):
        shape = make(visit)
        v0 = _completion_ray(rng, offsets, family, shape, visit)
        problem = shape.problem(family, rng, bound, _spread(1, 2, phase),
                                v0=v0)
        requests.append(Request(family, "verify", problem,
                                extra=("--seed", str(rng.randint(0, 999)))))
    return requests


def load_catalog():
    with open(CATALOG) as handle:
        return json.load(handle)["entries"]


#: mori_lp: series requests per validate request.
SERIES_PER_VALIDATE = 3


def _balanced_blocks(entries, size):
    """The entries, dearest first, each into the cheapest block of `size`
    that is not full yet, for len(entries) // size blocks: the blocks cost
    nearly the same.  The cheapest entries left over follow at the end."""
    blocks = [[] for _ in range(len(entries) // size)]
    ranked = sorted(entries, key=lambda e: e["series_s"], reverse=True)
    for entry in ranked[:len(blocks) * size]:
        open_blocks = [b for b in blocks if len(b) < size]
        min(open_blocks, key=lambda b: sum(e["series_s"] for e in b)).append(
            entry)
    return blocks, ranked[len(blocks) * size:]


def mori_lp(rng, count):
    """Every catalog entry once, truncated to `count`, in an order fixed by
    the catalog: blocks of SERIES_PER_VALIDATE series entries whose catalog
    times add up to nearly the same, each followed by a validate entry.
    Series costs differ sixfold between entries, so with a seeded order, or
    blocks of unequal cost, the median block would depend on the seed and
    on how many blocks a run gets through."""
    catalog = load_catalog()
    series = [e for e in catalog if e["command"] == "series"]
    checks = [e for e in catalog if e["command"] == "validate"]
    blocks, rest = _balanced_blocks(series, SERIES_PER_VALIDATE)
    stream = []
    for block in blocks:
        stream.extend(block)
        if checks:
            stream.append(checks.pop(0))
    stream.extend(rest + checks)

    requests = []
    for entry in stream[:count]:
        shape = strip_shape(entry)
        c0, cx, cy = (rng.randint(-2, 2) for _ in range(3))
        lifting = [h + c0 + cx * x + cy * y
                   for h, (x, y) in zip(entry["heights"], shape.points)]
        command = entry["command"]
        family = f"strip_{command}"
        problem = shape.problem(family, rng, entry["bound"], 1,
                                lifting=lifting,
                                keep_lifting=command == "series")
        requests.append(Request(
            family, command, problem,
            classes=class_key(family, shape, entry["bound"])
            if command == "series" else None))
    return requests


def series_class_keys():
    """(key, family, shape, bound) of every series request a stream can
    make: the inputs of make_golden.py."""
    out = {}
    for family, make, (lo, hi), _ in _series_families():
        for block in range(len(SEGMENTS)):
            shape = make(block)
            for bound in range(lo, hi + 1):
                out[class_key(family, shape, bound)] = (family, shape, bound)
    for entry in load_catalog():
        if entry["command"] == "series":
            shape = strip_shape(entry)
            key = class_key("strip_series", shape, entry["bound"])
            out[key] = ("strip_series", shape, entry["bound"])
    return [(key, *value) for key, value in out.items()]


WORKLOADS = {
    "series_mix": series_mix,
    "verify_deep": verify_deep,
    "mori_lp": mori_lp,
}

#: Requests per block: a run measures whole blocks, and the blocks of a
#: workload cost about the same (series_mix and verify_deep: every family at
#: every bound of its range; mori_lp: SERIES_PER_VALIDATE series entries of
#: nearly equal total cost and one validate entry), so the request mix of a
#: run does not depend on where the deadline falls.
BLOCK = {"series_mix": block_size(_series_families()),
         "verify_deep": block_size(_verify_families()),
         "mori_lp": SERIES_PER_VALIDATE + 1}

#: Distinct request files generated (and validated) per workload; a run that
#: outlasts them cycles through the same files again.  series_mix and
#: verify_deep take whole blocks, enough for every number of monomials at
#: every bound; mori_lp takes the whole catalog, each entry once.
STREAM_LENGTH = {"series_mix": 3 * BLOCK["series_mix"],
                 "verify_deep": 4 * BLOCK["verify_deep"],
                 "mori_lp": len(load_catalog())}
