"""Exact polynomial arithmetic: coefficients and sparse polynomials.

Coefficient layer: integers and `Fraction` rationals, the `"p/q"` text forms
used by every JSON artifact, and the strict record checks that every JSON
reader shares.

Polynomial layer: sparse multivariate polynomials over those coefficients.
A polynomial is a map from exponent vectors to coefficients; no floating
point enters any ring operation. Terms live in a dict and are ordered
graded-lexicographically in the text form.
"""
from __future__ import annotations

import math
import re as _re
from fractions import Fraction


_RAT_RE = _re.compile(r"^(-?\d+)(?:/(0*[1-9]\d*))?$")


def format_rational(value) -> str:
    """Render an int or Fraction as 'p' or 'p/q' (used by all JSON output)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    m = _RAT_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def rational_point(value) -> list[str]:
    """Format a tuple of rationals as a JSON-ready list of strings."""
    return [format_rational(v) for v in value]


def parse_point(items) -> tuple[Fraction, ...]:
    if not isinstance(items, list):
        raise ValueError(f"a point must be a JSON list, not {items!r}")
    return tuple(parse_rational(v) for v in items)


# -- strict JSON records ------------------------------------------------------
# Readers refuse with ValueError what no writer produces: unknown keys, a
# count that is not a plain int, a rational that is not a string.


def check_keys(obj, what, required, optional=()):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {obj!r}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")


def json_list(obj, key):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, not {value!r}")
    return value


def json_int(value, what):
    # bool is an int subclass, but true is not a count or an index
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def rational_circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """Rational point on the unit circle from the slope parameter t.

    ((1-t^2)/(1+t^2), 2t/(1+t^2)); t sweeps all rational points except (-1, 0).
    """
    t = Fraction(t)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


Coeff = int | Fraction


def _norm_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Polynomial:
    """Multivariate polynomial with exact coefficients.

    `variables` fixes the meaning and order of exponent-vector slots; all
    binary operations require identical variable tuples. Nothing changes
    `terms` after construction, so the hash is computed once, when first
    asked for.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError(
                    f"exponent vector {exps} does not match variables {self.variables}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _norm_coeff(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, c: Coeff, variables) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, name: str, variables) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: 1})

    # -- ring structure -----------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.variables)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.variables)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Polynomial({self.variables}, {self.to_text()!r})"

    # -- queries -------------------------------------------------------

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coeff_l1_norm(self) -> float:
        total = 0.0
        for c in self.terms.values():
            total += abs(float(c))
        return total

    def integer_content(self) -> int:
        """gcd of all integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            if isinstance(c, int):
                g = math.gcd(g, abs(c))
            else:
                raise ValueError("integer content requires integer coefficients")
        return g

    # -- calculus and evaluation ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        idx = self.variables.index(name)
        out: dict[tuple[int, ...], Coeff] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            out[key] = out.get(key, 0) + c * e
        return Polynomial(self.variables, out)

    def evaluate(self, point):
        """Horner-style evaluation; exact for rational input, float otherwise.

        Polynomial arguments compose: p.evaluate((u, v)) is p(u, v). The zero
        polynomial evaluates to the int 0, and a constant to its coefficient.
        """
        point = tuple(point)
        if len(point) != len(self.variables):
            raise ValueError("point dimension mismatch")
        if not self.terms:
            return 0
        return _horner(self.terms, point, 0, len(self.variables))

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exps]
            bits = [format_rational(c)]
            for name, e in zip(self.variables, exps):
                if e == 1:
                    bits.append(name)
                elif e > 1:
                    bits.append(f"{name}^{e}")
            parts.append("*".join(bits))
        return " + ".join(parts)

    @classmethod
    def from_text(cls, text: str, variables) -> "Polynomial":
        variables = tuple(variables)
        if not isinstance(text, str):
            raise ValueError(f"a polynomial must be a text, not {text!r}")
        text = text.strip()
        if text == "0":
            return cls.zero(variables)
        terms: dict[tuple[int, ...], Coeff] = {}
        for raw in text.split(" + "):
            bits = raw.strip().split("*")
            c = _norm_coeff(parse_rational(bits[0]))
            exps = [0] * len(variables)
            for bit in bits[1:]:
                if "^" in bit:
                    name, _, e = bit.partition("^")
                    power = int(e)
                else:
                    name, power = bit, 1
                if name not in variables:
                    raise ValueError(f"unknown variable {name!r} in {raw!r}")
                exps[variables.index(name)] += power
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
        return cls(variables, terms)


def _horner(terms, point, idx, nvars):
    if idx == nvars - 1:
        by_e = sorted(((e[idx], c) for e, c in terms.items()), reverse=True)
        acc = 0
        prev = None
        for e, c in by_e:
            if prev is not None:
                acc = acc * point[idx] ** (prev - e)
            acc = acc + c
            prev = e
        return acc * point[idx] ** prev if prev else acc

    groups: dict[int, dict] = {}
    for exps, c in terms.items():
        groups.setdefault(exps[idx], {})[exps] = c
    acc = 0
    prev = None
    for e in sorted(groups, reverse=True):
        val = _horner(groups[e], point, idx + 1, nvars)
        if prev is not None:
            acc = acc * point[idx] ** (prev - e)
        acc = acc + val
        prev = e
    return acc * point[idx] ** prev if prev else acc
