"""Plane and sphere curves: cusped wheel curves, segments, arcs, lifts.

The building blocks of every synthesized boundary are k-cusped hypocycloids
(implicitized exactly by a closed form, which replaces the resultant that
first gave the same polynomial), straight segments (realized on the sphere
by a non-polynomial but analytic closed form), and circles. This module
owns their parametric forms, the exact implicit polynomials, rational affine
deformation, and the stereographic transfer between plane and sphere. It
also holds the seeded stream of doubles that orbit starts and the synthesis
spot check draw from.

Conventions: the plane is identified with the sphere minus the north pole via
stereographic projection from (0,0,1); plane coordinates are (x, y), sphere
coordinates (x, y, z) with the unit-sphere constraint applied by callers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly_core import (
    Polynomial,
    check_keys,
    format_rational,
    json_int,
    json_list,
    parse_point,
    parse_rational,
    rational_point,
)

PLANE_VARS = ("x", "y")
SPHERE_VARS = ("x", "y", "z")
HOMOGENEOUS_VARS = ("x", "y", "w")


class DomainError(ValueError):
    """Evaluation requested where a function is not defined/analytic."""


# -- component form -----------------------------------------------------------
#
# Numeric kernels take the coordinates x, y, z either as Python floats (one
# point) or as equal-length numpy columns (a batch), and use only +, -, *,
# comparisons and `component_sqrt`, so one formula serves both shapes.
# numpy is imported only where a batch is handled, so the exact algebra, and
# the commands that need no more (`implicitize`, `classify`), never load it.
# Python floats raise where numpy returns inf or NaN: `**` raises
# OverflowError and division by an exact zero raises ZeroDivisionError. So
# kernels use no `**`, and divide only once `component_any` has ruled out a
# zero divisor; non-finite values stay values.


def component_sqrt(v):
    """Square root of a float or of a numpy column."""
    if isinstance(v, float):
        return math.sqrt(v)
    import numpy as np

    return np.sqrt(v)


def component_any(mask) -> bool:
    """Whether a comparison holds for the point, or for any point of a batch."""
    return mask if isinstance(mask, bool) else bool(mask.any())


# -- parametric hypocycloid -------------------------------------------------


def param_point(k: int, theta: float) -> tuple[float, float]:
    """Point of the k-cusped hypocycloid at parameter theta."""
    if k < 3:
        raise ValueError("cusp count must be at least 3")
    n = k - 1
    return (
        n * math.cos(theta) + math.cos(n * theta),
        n * math.sin(theta) - math.sin(n * theta),
    )


def cusp_angles(k: int) -> list[float]:
    if k < 3:
        raise ValueError("cusp count must be at least 3")
    return [2.0 * math.pi * j / k for j in range(k)]


def cusps(k: int) -> list[tuple[float, float]]:
    """The k cusp points k*(cos 2pi j/k, sin 2pi j/k), j = 0..k-1."""
    if k < 3:
        raise ValueError("cusp count must be at least 3")
    return [
        (k * math.cos(a), k * math.sin(a)) for a in cusp_angles(k)
    ]


# -- affine maps --------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """Rational affine map p -> M p + b of the plane."""

    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))

    def determinant(self) -> Fraction:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def apply(self, point):
        (a, b), (c, d) = self.matrix
        x, y = point
        return (a * x + b * y + self.offset[0], c * x + d * y + self.offset[1])

    def inverse(self) -> "AffineMap":
        (a, b), (c, d) = self.matrix
        det = self.determinant()
        if det == 0:
            raise ValueError("affine matrix is singular")
        inv = ((d / det, -b / det), (-c / det, a / det))
        e, f = self.offset
        ioff = (-(inv[0][0] * e + inv[0][1] * f), -(inv[1][0] * e + inv[1][1] * f))
        return AffineMap(inv, ioff)


# -- exact implicitization -----------------------------------------------------

# The largest cusp count a leaf is laid out with: a leaf's k is a multiple of
# 4 in [4, K_MAX], which layouts and bundle readers check before any curve is
# implicitized. A framed pair synthesizes up to K_MAX, and overflowed doubles
# in the synthesis spot check at k = 20 when the cap was higher. A leaf with a
# sprig already overflows at k = 13, which lays out as 16, so for punctured
# shrubs the cap is in effect 12.
K_MAX = 16


def _hypocycloid_root(k: int) -> dict:
    """R_k = 2^k (2n)^n Q_k, n = k - 1, an integer plane polynomial of
    degree 2n whose real zero set is the k-cusped hypocycloid, as a map
    from exponents (a, b) of x^a y^b to nonzero integer coefficients, with

        Q_k = Re((x + iy)^k) - sum_{j=0..k} C(k, j) n^j T_|j-n|(c),
        c = (x^2 + y^2 - n^2 - 1) / (2n),

    T_m the m-th Chebyshev polynomial. Why: `param_point` is
    z = n e^(it) + e^(-int); with q = e^(ikt), |z|^2 = n^2 + 1 + 2n cos kt,
    so c = cos kt, and z^k = q^(-n) (nq + 1)^k, whose real part is the sum.

    S_m = (2n)^m T_m(c) is an integer polynomial in u = 2n c, by
    S_(m+1) = 2u S_m - (2n)^2 S_(m-1), so (2n)^n clears every denominator;
    2^k keeps the scale of the resultant the closed form replaced. Each S_m
    is an integer list in u, and u^i expands binomially in x^2 + y^2.
    """
    n = k - 1
    s = [[1], [0, 1]]
    for _ in range(n - 1):
        shifted = [0] + [2 * c for c in s[-1]]
        for i, c in enumerate(s[-2]):
            shifted[i] -= 4 * n * n * c
        s.append(shifted)
    chebyshev_sum = [0] * (n + 1)
    for j in range(k + 1):
        m = abs(j - n)
        scale = math.comb(k, j) * n**j * (2 * n) ** (n - m)
        for i, c in enumerate(s[m]):
            chebyshev_sum[i] += scale * c
    root: dict[tuple[int, int], int] = {}
    for b in range(0, k + 1, 2):
        root[(k - b, b)] = (2 * n) ** n * math.comb(k, b) * (-1) ** (b // 2)
    constant = -(n * n + 1)
    for power in range(n + 1):
        # coefficient of (x^2 + y^2)^power in the sum
        c = sum(
            p * math.comb(i, power) * constant ** (i - power)
            for i, p in enumerate(chebyshev_sum)
            if i >= power
        )
        for t in range(power + 1):
            key = (2 * t, 2 * (power - t))
            root[key] = root.get(key, 0) - c * math.comb(power, t)
    # terms ordered by y's exponent, then x's, as the resultant this replaced
    # gave them: float sums over the terms, and so the `implicitize`
    # reports, keep their bits
    return {e: 2**k * root[e] for e in sorted(root, key=lambda e: e[::-1]) if root[e]}


def _square(terms: dict) -> dict:
    """The square of {exponents: coefficient}, with its terms in the order
    `Polynomial.__mul__` gives them: that of the first pair (i, j) landing
    on each. That pair has i <= j, so the loop visits only those."""
    items = list(terms.items())
    out: dict = {}
    for i, ((a1, b1), c1) in enumerate(items):
        key = (a1 + a1, b1 + b1)
        out[key] = out.get(key, 0) + c1 * c1
        twice = 2 * c1
        for (a2, b2), c2 in items[i + 1 :]:
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + twice * c2
    return out


_implicit_cache: dict[int, Polynomial] = {}


def implicitize(k: int) -> Polynomial:
    """Exact plane polynomial whose real zero set is the k-cusped hypocycloid.

    F = R_k^2 >= 0 with the closed form R_k of `_hypocycloid_root`. The
    closed form replaces a Sylvester resultant in the curve parameter, which
    gave the same polynomial; the tests keep that resultant as an oracle. F
    is kept raw (no content normalization) for reproducibility; the integer
    content is recorded in `implicit_metadata`.
    """
    if k < 3:
        raise ValueError("cusp count must be at least 3")
    if k not in _implicit_cache:
        _implicit_cache[k] = Polynomial(PLANE_VARS, _square(_hypocycloid_root(k)))
    return _implicit_cache[k]


def implicit_metadata(k: int) -> dict:
    """Degree/content bookkeeping for the exact implicit form; R_k, the
    root the resultant gave, has degree 2(k - 1)."""
    f = implicitize(k)
    return {
        "k": k,
        "degree": f.total_degree(),
        "terms": len(f.terms),
        "integer_content": f.integer_content(),
        "resultant_degree": 2 * (k - 1),
    }


def normalized_residuals(poly: Polynomial, points) -> list[float]:
    """|F(p)| scaled by coefficient mass and radius^degree, for each point p.

    Raw implicit coefficients are huge; dividing by the coefficient 1-norm
    times max(1, r)^deg makes residual tolerances independent of k. The norm
    and the degree are taken once per sweep.
    """
    l1_norm = poly.coeff_l1_norm()
    degree = poly.total_degree()
    out = []
    for point in points:
        coords = tuple(float(c) for c in point)
        value = abs(float(poly.evaluate(coords)))
        r = max(1.0, math.hypot(*coords))
        out.append(value / (1.0 + l1_norm * r**degree))
    return out


def poly_gradient(poly: Polynomial) -> tuple[Polynomial, ...]:
    return tuple(poly.diff(v) for v in poly.variables)


def homogenize(p: Polynomial) -> Polynomial:
    """The form w^n p(x/w, y/w), n = deg p, in the variables (x, y, w).

    Composed with the linear map (x, y, z) -> (x, y, 1 - z) it is the
    stereographic lift of p; composed with an inverse affine map in
    homogeneous coordinates it is the lift of the moved curve.
    """
    if p.variables != PLANE_VARS:
        raise ValueError("homogenize expects a plane polynomial in (x, y)")
    n = p.total_degree()
    return Polynomial(
        HOMOGENEOUS_VARS, {(a, b, n - a - b): c for (a, b), c in p.terms.items()}
    )


# -- stereographic transfer ----------------------------------------------------


def plane_to_sphere(point) -> tuple:
    """Inverse stereographic image of a plane point; exact on rational input."""
    u, v = point
    s = u * u + v * v
    d = s + 1
    return (2 * u / d, 2 * v / d, (s - 1) / d)


def sphere_to_plane(point) -> tuple:
    """Stereographic image of a sphere point, exact on rational input; the
    coordinates may also be numpy columns (see `component_any`)."""
    x, y, z = point
    if component_any(z == 1):
        raise DomainError("north pole has no stereographic image")
    return (x / (1 - z), y / (1 - z))


# -- sphere arc functions -------------------------------------------------------


@dataclass(frozen=True)
class SphereArcFunction:
    """Nonnegative closed-form function vanishing exactly on a sphere arc;
    the boundary factor of a segment.

    The arc is the piece of the circle (sphere intersect plane {u.n = d})
    on the side {u.m <= e}; with A(u) = u.n - d and B(u) = u.m - e the
    function is A^2 + (sqrt(A^2+B^2) + B)^2. It is analytic everywhere on
    the sphere except at the two arc endpoints {A = B = 0}, where the square
    root loses smoothness. Coefficients are exact rationals. The factor
    also writes and reads its bundle entry and samples its arc (`zero_set`).
    """

    kind = "arc"

    n: tuple
    d: Fraction
    m: tuple
    e: Fraction
    endpoints: tuple  # the two exceptional sphere points, exact
    label: str = ""

    @classmethod
    def from_bundle(cls, item: dict) -> "SphereArcFunction":
        """The factor of a bundle entry; ValueError on an entry that
        `bundle_entry` cannot write, such as an endpoint off the unit sphere,
        the circle plane or the side plane (`sphere_arc` puts it on all three)."""
        planes = ("circle_normal", "circle_offset", "side_normal", "side_offset")
        check_keys(item, "arc factor", ("kind", *planes, "endpoints"), ("label",))
        n, m = (
            tuple(json_int(c, key) for c in json_list(item, key))
            for key in ("circle_normal", "side_normal")
        )
        if len(n) != 3 or len(m) != 3 or not any(n) or not any(m):
            raise ValueError("an arc's normals are nonzero integer 3-vectors")
        d, e = (parse_rational(item[key]) for key in ("circle_offset", "side_offset"))
        endpoints = tuple(parse_point(q) for q in json_list(item, "endpoints"))
        if len(set(endpoints)) != 2 or len(endpoints) != 2:
            raise ValueError("an arc factor has two distinct endpoints")
        for q in endpoints:
            dots = tuple(sum(a * b for a, b in zip(v, q)) for v in (q, n, m))
            if len(q) != 3 or dots != (1, d, e):
                raise ValueError(f"arc endpoint {rational_point(q)} is off its arc")
        return cls(n, d, m, e, endpoints, label=item.get("label", ""))

    def bundle_entry(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "circle_normal": [int(c) for c in self.n],
            "circle_offset": format_rational(self.d),
            "side_normal": [int(c) for c in self.m],
            "side_offset": format_rational(self.e),
            "endpoints": [rational_point(p) for p in self.endpoints],
        }

    @property
    def exceptional_points(self) -> tuple:
        return self.endpoints

    @cached_property
    def _float_coefficients(self) -> tuple:
        """(n0, n1, n2, d, m0, m1, m2, e) as floats."""
        return tuple(float(c) for c in (*self.n, self.d, *self.m, self.e))

    def value_and_gradient(self, x, y, z) -> tuple:
        """(F, dF/dx, dF/dy, dF/dz) in component form (see `component_sqrt`).

        Raises DomainError when the point, or any point of a batch, is an
        arc endpoint, where the gradient does not exist.
        """
        n0, n1, n2, d, m0, m1, m2, e = self._float_coefficients
        a = x * n0 + y * n1 + z * n2 - d
        b = x * m0 + y * m1 + z * m2 - e
        r = component_sqrt(a * a + b * b)
        if component_any(r == 0.0):
            raise DomainError("arc factor gradient at an endpoint")
        s = r + b
        two_a = 2.0 * a
        two_s = 2.0 * s
        return (
            a * a + s * s,
            two_a * n0 + two_s * ((a * n0 + b * m0) / r + m0),
            two_a * n1 + two_s * ((a * n1 + b * m1) / r + m1),
            two_a * n2 + two_s * ((a * n2 + b * m2) / r + m2),
        )

    def zero_set(self) -> tuple:
        """(length, sampler) of the arc; sampler(count) spreads count points
        evenly from the first endpoint to the second, both included."""
        import numpy as np

        nv = np.array([float(c) for c in self.n])
        mv = np.array([float(c) for c in self.m])
        d = float(self.d)
        e = float(self.e)
        n2 = float(nv @ nv)
        center = (d / n2) * nv
        radius = math.sqrt(max(0.0, 1.0 - d * d / n2))
        q1 = np.array([float(c) for c in self.endpoints[0]])
        q2 = np.array([float(c) for c in self.endpoints[1]])
        e1 = q1 - center
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nv, e1)
        e2 /= np.linalg.norm(e2)
        w2 = q2 - center
        ang2 = math.atan2(float(w2 @ e2), float(w2 @ e1))
        mid = center + radius * (
            math.cos(ang2 / 2) * e1 + math.sin(ang2 / 2) * e2
        )
        if float(mid @ mv) - e < 0.0:
            span = ang2
        else:
            span = ang2 - math.tau if ang2 > 0.0 else ang2 + math.tau
        length = radius * abs(span)

        def sampler(count: int) -> np.ndarray:
            ts = np.linspace(0.0, span, count)
            pts = (
                center
                + radius * np.cos(ts)[:, None] * e1
                + radius * np.sin(ts)[:, None] * e2
            )
            return pts / np.linalg.norm(pts, axis=1)[:, None]

        return length, sampler


def _primitive_int_vector(vec) -> tuple[int, int, int]:
    fracs = [Fraction(v) for v in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector")
    ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def sphere_arc(q1, q2, q3, label: str = "") -> SphereArcFunction:
    """Arc function through rational sphere points q1 -> q2 passing q3.

    q1 and q2 are the endpoints; q3 is any interior point of the intended arc
    (it selects which of the two circle arcs is the zero set). All inputs must
    be exact rational points on the unit sphere.
    """
    q1 = tuple(Fraction(v) for v in q1)
    q2 = tuple(Fraction(v) for v in q2)
    q3 = tuple(Fraction(v) for v in q3)
    for q in (q1, q2, q3):
        if q[0] ** 2 + q[1] ** 2 + q[2] ** 2 != 1:
            raise ValueError(f"{q} is not on the unit sphere")
    if len({q1, q2, q3}) != 3:
        raise ValueError("arc points must be pairwise distinct")
    chord = tuple(q2[i] - q1[i] for i in range(3))
    other = tuple(q3[i] - q1[i] for i in range(3))
    normal = _cross(chord, other)
    if not any(normal):
        raise ValueError("arc points are collinear, no unique circle plane")
    n = _primitive_int_vector(normal)
    d = sum(n[i] * q1[i] for i in range(3))
    m_raw = _cross(n, chord)
    m = _primitive_int_vector(m_raw)
    e = sum(m[i] * q1[i] for i in range(3))
    b3 = sum(m[i] * q3[i] for i in range(3)) - e
    if b3 == 0:
        raise ValueError("interior point lies on the chord plane")
    if b3 > 0:
        m = tuple(-v for v in m)
        e = -e
    return SphereArcFunction(n=n, d=d, m=m, e=e, endpoints=(q1, q2), label=label)


# -- seeded sampling -------------------------------------------------------------
#
# Orbit starts and the synthesis spot check draw from one seeded stream of
# doubles, the stream of `numpy.random.default_rng(seed).random()`. It is
# computed here in Python integers, so that no command loads `numpy.random`:
# numpy's SeedSequence turns the seed into four 64-bit words, which seed a
# PCG64 generator (O'Neill 2014, 128-bit LCG with the XSL-RR output), and
# each double takes the top 53 bits of one output.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(4, uint64)`."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def seeded_doubles(seed: int):
    """Endless doubles in [0, 1), bit for bit those of
    `numpy.random.default_rng(seed).random()`; same seed, same stream."""
    w0, w1, w2, w3 = _seed_words(seed)
    inc = (w2 << 64 | w3) << 1 | 1
    state = (inc + (w0 << 64 | w1)) * _PCG64_MULTIPLIER + inc & _MASK128
    while True:
        state = state * _PCG64_MULTIPLIER + inc & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        word = (word >> rot | word << (64 - rot)) & _MASK64
        yield (word >> 11) * 2.0**-53
