"""Problem files: a small JSON schema, and the one path that assembles them.

A problem file describes one polytope with a triangulation and the input
polynomial, plus optional nef-partition data, a completion ray and a degree
bound.  Exponent vectors in the file always run over the lattice points of
the polytope in lexicographic order -- the same order the triangulation
indices use -- which keeps every index in the file pointing at one list.

    {
      "name":          "p1",          optional label
      "dimension":     1,             dimension of the polytope
      "vertices":      [[-1], [1]],   its vertices (any generating set works)
      "simplices":     [[0, 1], [1, 2]],      indices into the lattice points
      "lifting":       [1, 0, 1],     optional coherence certificate
      "nef_partition": [[0], [4]],    optional parts, non-origin point indices
      "v0":            [0, -1],       optional completion ray
      "bound":         4,             default degree bound for series work
      "polynomial":    [["1/2", [1, 1, 0]], [1, [0, 2, 0]]]
    }

With a nef partition present the polytope is the base of a Cayley
construction; polynomial exponents still run over the point list, with the
origin slot required to be zero (the apex factors are supplied by the
pipeline, never written in the file).

``ProblemContext`` assembles a parsed file in named stages, in this order:

    polytope       the vertices' hull, its dimension and lattice points
    triangulation  the simplices cover the polytope and meet properly
    coherence      the given lifting certifies them, or one is found
    nef-partition  the Cayley data (only with a nef partition)
    completion     the working fan, completed by the v0 ray
    polynomial     interior monomials of the right degree

Every command builds its context this way and stops at the first failing
stage; ``validate`` runs the same stages one at a time and reports each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .fan import (
    Triangulation,
    build_fan,
    find_lifting,
    validate_triangulation,
    verify_coherence,
)
from .lattice import LatticePolytope
from .mirror import ResidueContext, validate_polynomial
from .mpcayley import CayleyData, interior_polynomial


class ProblemError(ValueError):
    """A problem file is malformed or semantically invalid."""


_KNOWN_KEYS = {
    "name", "dimension", "vertices", "simplices", "lifting",
    "nef_partition", "v0", "bound", "polynomial",
}


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed, type-checked contents of a problem file."""

    name: str
    dimension: int
    vertices: tuple
    simplices: tuple
    lifting: tuple          # or None
    nef_partition: tuple    # or None
    v0: tuple               # or None
    bound: int
    polynomial: tuple       # of (Fraction, exponent tuple)


def parse_fraction(value):
    """Exact rational from an int or a 'p/q' (or plain 'p') string."""
    if isinstance(value, bool):
        raise ProblemError(f"{value!r} is not a rational number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(f"cannot read rational {value!r}: {exc}") from None
    raise ProblemError(
        f"{value!r} is not an exact rational; use an integer or a 'p/q' string"
    )


def _int_vector(value, what):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ProblemError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def parse_problem(data, name="problem"):
    """Validate a decoded JSON object against the schema above."""
    if not isinstance(data, dict):
        raise ProblemError("the problem file must hold a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ProblemError(f"unknown keys in problem file: {', '.join(unknown)}")
    for key in ("dimension", "vertices", "simplices", "bound", "polynomial"):
        if key not in data:
            raise ProblemError(f"problem file is missing the {key!r} field")

    label = data.get("name", name)
    if not isinstance(label, str):
        raise ProblemError("name must be a string")

    dimension = data["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool) \
            or dimension < 1:
        raise ProblemError(f"dimension must be a positive integer, got {dimension!r}")

    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ProblemError("vertices must be a nonempty list")
    vertices = tuple(_int_vector(v, "each vertex") for v in vertices)
    if any(len(v) != dimension for v in vertices):
        raise ProblemError(f"every vertex needs exactly {dimension} coordinates")

    simplices = data["simplices"]
    if not isinstance(simplices, list) or not simplices:
        raise ProblemError("simplices must be a nonempty list")
    simplices = tuple(_int_vector(s, "each simplex") for s in simplices)

    lifting = data.get("lifting")
    if lifting is not None:
        lifting = _int_vector(lifting, "lifting")

    nef = data.get("nef_partition")
    if nef is not None:
        if not isinstance(nef, list) or not nef:
            raise ProblemError("nef_partition must be a nonempty list of parts")
        nef = tuple(_int_vector(p, "each part") for p in nef)

    v0 = data.get("v0")
    if v0 is not None:
        v0 = _int_vector(v0, "v0")
        expected = dimension + (len(nef) if nef is not None else 1)
        if len(v0) != expected:
            raise ProblemError(
                f"v0 needs {expected} coordinates for this problem, got {len(v0)}"
            )

    bound = data["bound"]
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ProblemError(f"bound must be a nonnegative integer, got {bound!r}")

    raw_poly = data["polynomial"]
    if not isinstance(raw_poly, list) or not raw_poly:
        raise ProblemError("polynomial must be a nonempty list of terms")
    terms = []
    for item in raw_poly:
        if not isinstance(item, list) or len(item) != 2:
            raise ProblemError(
                f"each polynomial term must be [coefficient, exponents], got {item!r}"
            )
        coeff = parse_fraction(item[0])
        exps = _int_vector(item[1], "each exponent vector")
        if any(e < 0 for e in exps):
            raise ProblemError(f"exponent vector {exps} has a negative entry")
        terms.append((coeff, exps))

    return ProblemSpec(
        name=label,
        dimension=dimension,
        vertices=vertices,
        simplices=simplices,
        lifting=lifting,
        nef_partition=nef,
        v0=v0,
        bound=bound,
        polynomial=tuple(terms),
    )


def load_problem(path):
    """Read and validate a problem file from disk.

    Unreadable or syntactically broken files raise OSError or
    json.JSONDecodeError (usage-level failures); schema and semantic
    problems raise ProblemError.
    """
    with open(path) as handle:
        data = json.load(handle)
    stem = str(path).rsplit("/", 1)[-1]
    if stem.endswith(".json"):
        stem = stem[:-5]
    return parse_problem(data, name=stem)


class ProblemContext:
    """Everything the commands need, assembled from a problem spec.

    Assembly runs the stages of ``stages()`` in order and stops at the
    first error: polytope, triangulation, coherence, nef-partition (files
    with a nef partition only), completion, polynomial.

    Attributes: spec, polytope, points, triangulation (with its certifying
    lifting), cayley (None when the file has no nef partition), fan (the
    working fan the residue machinery runs on), residue (its
    ResidueContext), polynomial (exponents over the working generators:
    the lattice points, or the non-origin points of the base when a nef
    partition is present) and residue_polynomial (the validated polynomial
    the residue route consumes: the same one, times every apex on nef
    files).
    """

    def __init__(self, spec, v0=None):
        self._start(spec, v0)
        for _, stage in self.stages():
            stage()

    @classmethod
    def unassembled(cls, spec, v0=None):
        """The context before any stage has run, to step through stages()."""
        context = cls.__new__(cls)
        context._start(spec, v0)
        return context

    def _start(self, spec, v0):
        self.spec = spec
        self._v0 = v0 if v0 is not None else spec.v0
        self.cayley = None

    @property
    def is_nef(self):
        return self.cayley is not None

    def stages(self):
        """The assembly stages in order, as (name, step) pairs.

        Each step sets its part of the context and returns a one-line
        detail; it raises ProblemError, GeometryError or InvariantError
        when its part of the file is invalid.  Later steps read what
        earlier ones set.
        """
        stages = [
            ("polytope", self._polytope),
            ("triangulation", self._triangulation),
            ("coherence", self._coherence),
        ]
        if self.spec.nef_partition is not None:
            stages.append(("nef-partition", self._nef_partition))
        return stages + [
            ("completion", self._completion),
            ("polynomial", self._polynomial),
        ]

    def _polytope(self):
        spec = self.spec
        self.polytope = LatticePolytope(spec.vertices)
        if self.polytope.dim != spec.dimension:
            raise ProblemError(
                f"vertices span dimension {self.polytope.dim}, file says "
                f"{spec.dimension}"
            )
        self.points = self.polytope.lattice_points
        return (f"dimension {self.polytope.dim}, {len(self.points)} lattice "
                f"points, {len(self.polytope.facets)} facets")

    def _triangulation(self):
        spec = self.spec
        if spec.lifting is not None and len(spec.lifting) != len(self.points):
            raise ProblemError(
                f"lifting has {len(spec.lifting)} values for "
                f"{len(self.points)} lattice points"
            )
        tri = Triangulation(self.points, spec.simplices, lifting=spec.lifting)
        validate_triangulation(tri, self.polytope)
        self.triangulation = tri
        return f"{len(tri.simplices)} simplices cover the polytope"

    def _coherence(self):
        tri = self.triangulation
        if tri.lifting is not None:
            if not verify_coherence(tri):
                raise ProblemError("the given lifting does not certify coherence")
            return "the given lifting certifies coherence"
        found = find_lifting(tri)
        if found is None:
            raise ProblemError("the triangulation admits no coherent lifting")
        self.triangulation = Triangulation(self.points, tri.simplices,
                                           lifting=found)
        return f"found certifying lifting {found}"

    def _nef_partition(self):
        self.cayley = CayleyData(self.polytope, self.triangulation,
                                 self.spec.nef_partition)
        sizes = "+".join(str(len(p)) for p in self.cayley.parts)
        return f"{self.cayley.r} parts ({sizes} points), Cayley data assembled"

    def _completion(self):
        if self.cayley is None:
            self.fan = build_fan(self.triangulation, self.polytope)
        else:
            self.fan = self.cayley.fan
        self.residue = ResidueContext(self.fan, self._v0)
        return f"completion ray {self.residue.v0} accepted"

    def _polynomial(self):
        self.polynomial = read_polynomial(self.spec, len(self.points),
                                          self.cayley)
        work = self.polynomial if self.cayley is None else \
            interior_polynomial(self.cayley, self.polynomial)
        self.residue_polynomial = validate_polynomial(self.residue, work)
        return (f"{len(self.residue_polynomial)} interior monomials of the "
                "right degree")


def read_polynomial(spec, width, cayley=None):
    """The file's polynomial as a dict over the working generators.

    Exponent vectors must cover the ``width`` lattice points.  With Cayley
    data the origin slot must be zero and is dropped, leaving exponents over
    the non-origin points of the base.  Equal monomials are merged and zero
    terms dropped.
    """
    origin = None if cayley is None else cayley.origin_index
    poly = {}
    for coeff, exps in spec.polynomial:
        if len(exps) != width:
            raise ProblemError(
                f"exponent vector {exps} does not cover the {width} "
                "lattice points"
            )
        if origin is not None:
            if exps[origin] != 0:
                raise ProblemError(
                    f"exponent vector {exps} is nonzero at the origin slot "
                    f"{origin}; apex factors are added by the pipeline"
                )
            exps = exps[:origin] + exps[origin + 1:]
        key = tuple(exps)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return {k: c for k, c in poly.items() if c != 0}


def build_context(spec, v0=None):
    return ProblemContext(spec, v0=v0)
