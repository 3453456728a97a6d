"""Exact sparse polynomials in x, y and the indexed families x_g, y_g.

Two rings are provided:

* :class:`MultiPoly` -- integer polynomials in ``x``, ``y`` and the families
  ``x_g``, ``y_g`` (``g`` an integer index).
* :class:`HalfExpPoly` -- integer polynomials in ``alpha``, ``beta`` (integer
  exponents, possibly negative) and ``a``, ``b`` whose exponents are counted
  in halves and stored doubled.

Coefficients are Python ints, so they are arbitrary precision.  Both rings
render to a canonical text form that parses back exactly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable


class PolyError(ValueError):
    pass


@dataclass(frozen=True)
class Monomial:
    ex: int = 0
    ey: int = 0
    exg: tuple[tuple[int, int], ...] = ()  # (index, exponent), sorted, exponent != 0
    eyg: tuple[tuple[int, int], ...] = ()

    def degree(self) -> int:
        return self.ex + self.ey + sum(e for _, e in self.exg) \
            + sum(e for _, e in self.eyg)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self.ex + other.ex, self.ey + other.ey,
                        _merge(self.exg, other.exg), _merge(self.eyg, other.eyg))

    def sort_key(self):
        return (self.degree(), self.ex, self.ey, self.exg, self.eyg)

    def render_factors(self) -> list[str]:
        out = []
        if self.ex:
            out.append("x" if self.ex == 1 else f"x^{self.ex}")
        if self.ey:
            out.append("y" if self.ey == 1 else f"y^{self.ey}")
        for g, e in self.exg:
            out.append(f"x_{g}" if e == 1 else f"x_{g}^{e}")
        for g, e in self.eyg:
            out.append(f"y_{g}" if e == 1 else f"y_{g}^{e}")
        return out


def _merge(a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]):
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted((g, e) for g, e in d.items() if e))


class _PolyBase:
    """Shared term-dict arithmetic; subclasses fix the monomial type."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    t[m] = t.get(m, 0) + c
                    if not t[m]:
                        del t[m]
        self.terms = t

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c: int):
        return cls({cls._unit(): c})

    @classmethod
    def sum(cls, polys: Iterable["_PolyBase"]):
        """One sum of ``polys``, without a copy per term."""
        return cls(itertools.chain.from_iterable(p.terms.items()
                                                 for p in polys))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = type(self).const(other)
        return type(self).sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({m: c * other for m, c in self.terms.items()})
        t: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                t[m] = t.get(m, 0) + c1 * c2
        return type(self)(t)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power of a polynomial")
        out = type(self).const(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical_text()!r})"

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key(),
                      reverse=True)

    def canonical_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (m, c) in enumerate(self._sorted_terms()):
            factors = m.render_factors()
            mag = abs(c)
            if mag != 1 or not factors:
                factors = [str(mag)] + factors
            body = "*".join(factors)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


class MultiPoly(_PolyBase):
    """Polynomial in x, y, x_g, y_g with integer coefficients."""

    @staticmethod
    def _unit() -> Monomial:
        return Monomial()

    @classmethod
    def x(cls, n: int = 1):
        return cls({Monomial(ex=n): 1})

    @classmethod
    def y(cls, n: int = 1):
        return cls({Monomial(ey=n): 1})

    @classmethod
    def xg(cls, g: int):
        return cls({Monomial(exg=((g, 1),)): 1})

    @classmethod
    def yg(cls, g: int):
        return cls({Monomial(eyg=((g, 1),)): 1})

    def swap_xy(self) -> "MultiPoly":
        """Exchange x with y and every x_g with y_g."""
        return MultiPoly({Monomial(m.ey, m.ex, m.eyg, m.exg): c
                          for m, c in self.terms.items()})

    def reindex_halved(self) -> "MultiPoly":
        """Map x_g -> x_{g/2}, y_g -> y_{g/2}; every index must be even."""
        for m in self.terms:
            for g, _ in m.exg + m.eyg:
                if g % 2:
                    raise PolyError(f"odd family index {g} under a half reindex")
        return MultiPoly((Monomial(m.ex, m.ey,
                                   tuple((g // 2, e) for g, e in m.exg),
                                   tuple((g // 2, e) for g, e in m.eyg)), c)
                         for m, c in self.terms.items())

    def substitute(self, x=None, y=None,
                   xg: Callable[[int], "_PolyBase"] | None = None,
                   yg: Callable[[int], "_PolyBase"] | None = None,
                   ring=None) -> "_PolyBase":
        """Homomorphic image; rules must cover every variable that occurs.

        ``x``/``y`` are replacement polynomials, ``xg``/``yg`` map a family
        index to one.  ``ring`` is the target ring class (defaults to
        MultiPoly).
        """
        ring = ring or MultiPoly
        powers: dict = {}   # (variable, index, exponent) -> its image
        terms = []
        for m, c in self.terms.items():
            term = ring.const(c)
            for var, rule, g, e in (("x", x, None, m.ex), ("y", y, None, m.ey),
                                    *(("x", xg, g, e) for g, e in m.exg),
                                    *(("y", yg, g, e) for g, e in m.eyg)):
                if not e:
                    continue
                if (var, g, e) not in powers:
                    if rule is None:
                        raise PolyError("no substitution rule for " + (
                            var if g is None else f"{var}_{g}"))
                    powers[var, g, e] = (rule if g is None else rule(g)) ** e
                term = term * powers[var, g, e]
            terms.append(term)
        return ring.sum(terms)


@dataclass(frozen=True)
class HalfMonomial:
    """Exponents of alpha, beta, a, b; the a and b exponents are doubled."""
    ealpha: int = 0
    ebeta: int = 0
    ea2: int = 0
    eb2: int = 0

    def mul(self, other: "HalfMonomial") -> "HalfMonomial":
        return HalfMonomial(self.ealpha + other.ealpha, self.ebeta + other.ebeta,
                            self.ea2 + other.ea2, self.eb2 + other.eb2)

    def degree(self):
        return 2 * (self.ealpha + self.ebeta) + self.ea2 + self.eb2

    def sort_key(self):
        return (self.degree(), self.ealpha, self.ebeta, self.ea2, self.eb2)

    def render_factors(self) -> list[str]:
        out = []
        for name, e in (("alpha", self.ealpha), ("beta", self.ebeta)):
            if e:
                out.append(name if e == 1 else f"{name}^{e}")
        for name, e2 in (("a", self.ea2), ("b", self.eb2)):
            if e2:
                if e2 % 2 == 0:
                    out.append(name if e2 == 2 else f"{name}^{e2 // 2}")
                else:
                    out.append(f"{name}^{e2}/2")
        return out


class HalfExpPoly(_PolyBase):
    """Polynomial in alpha, beta and half-integer powers of a, b."""

    def __init__(self, terms=None):
        super().__init__(terms)
        for m in self.terms:
            if m.ea2 < 0 or m.eb2 < 0:
                raise PolyError("negative a/b exponent")

    @staticmethod
    def _unit() -> HalfMonomial:
        return HalfMonomial()

    @classmethod
    def alpha(cls, n: int = 1):
        return cls({HalfMonomial(ealpha=n): 1})

    @classmethod
    def beta(cls, n: int = 1):
        return cls({HalfMonomial(ebeta=n): 1})

    @classmethod
    def a_half(cls, doubled: int):
        """a to the power doubled/2."""
        return cls({HalfMonomial(ea2=doubled): 1})

    @classmethod
    def b_half(cls, doubled: int):
        return cls({HalfMonomial(eb2=doubled): 1})

    def substitute(self, alpha=None, beta=None, a=None, b=None,
                   ring=None) -> "_PolyBase":
        """Substitute polynomials for alpha/beta and integers 0/1 for a/b.

        a and b replacements are restricted to the constants 0 and 1 so that
        half-integer exponents never leak into the target ring.
        """
        if a not in (None, 0, 1) or b not in (None, 0, 1):
            raise PolyError("a/b may only be substituted by 0 or 1")
        ring = ring or MultiPoly
        terms = []
        for m, c in self.terms.items():
            if m.ea2:
                if a is None:
                    raise PolyError("no substitution rule for a")
                if a == 0:
                    continue
            if m.eb2:
                if b is None:
                    raise PolyError("no substitution rule for b")
                if b == 0:
                    continue
            term = ring.const(c)
            for e, repl, name in ((m.ealpha, alpha, "alpha"),
                                  (m.ebeta, beta, "beta")):
                if e:
                    if repl is None:
                        raise PolyError(f"no substitution rule for {name}")
                    if e < 0:
                        raise PolyError(f"negative {name} exponent under "
                                        "polynomial substitution")
                    term = term * (repl ** e)
            terms.append(term)
        return ring.sum(terms)


# ---------------------------------------------------------------------------
# canonical text parsing

_TOKEN = re.compile(r"\s*(\^|\*|\+|-|\d+|[a-z]+(?:_-?\d+)?|/2)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolyError(f"cannot parse polynomial at position {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(text: str):
    """Parse canonical polynomial text.

    Returns a MultiPoly when only x/y variables occur (and for "0"), a
    HalfExpPoly when alpha/beta/a/b occur; mixing the two families is an
    error.
    """
    toks = _tokenize(text.strip())
    if toks == ["0"]:
        return MultiPoly.zero()
    terms: list[tuple[int, dict]] = []
    i = 0
    n = len(toks)
    sign = 1
    families = set()

    def parse_term():
        nonlocal i
        coeff = 1
        factors: dict[str, int] = {}
        seen_any = False
        while i < n and toks[i] not in ("+", "-"):
            tok = toks[i]
            if tok == "*":
                i += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
                seen_any = True
                continue
            var = tok
            i += 1
            exp2 = 2  # exponents stored doubled during parsing
            if i < n and toks[i] == "^":
                i += 1
                neg = i < n and toks[i] == "-"
                i += neg
                if i >= n:
                    raise PolyError("dangling exponent")
                val = toks[i]
                if not val.isdigit():
                    raise PolyError(f"bad exponent {val}")
                exp2 = 2 * int(val) * (-1 if neg else 1)
                i += 1
                if i < n and toks[i] == "/2":
                    exp2 //= 2
                    i += 1
            factors[var] = factors.get(var, 0) + exp2
            seen_any = True
        if not seen_any:
            raise PolyError("empty term")
        return coeff, factors

    first = True
    while i < n:
        if not first:
            if toks[i] == "+":
                sign = 1
            elif toks[i] == "-":
                sign = -1
            else:
                raise PolyError(f"expected + or -, got {toks[i]}")
            i += 1
        elif toks[i] == "-":
            sign = -1
            i += 1
        coeff, factors = parse_term()
        terms.append((sign * coeff, factors))
        first = False
        sign = 1

    for _, factors in terms:
        for var in factors:
            if var in ("alpha", "beta", "a", "b"):
                families.add("half")
            elif var == "x" or var == "y" or re.fullmatch(r"[xy]_-?\d+", var):
                families.add("multi")
            else:
                raise PolyError(f"unknown variable {var}")
    if families == {"half"}:   # one term at a time, so each is checked
        return HalfExpPoly.sum(HalfExpPoly({HalfMonomial(
            f.get("alpha", 0) // 2, f.get("beta", 0) // 2, f.get("a", 0),
            f.get("b", 0)): coeff}) for coeff, f in terms)
    if "half" in families:
        raise PolyError("mixed variable families")
    monos = []
    for coeff, factors in terms:
        if any(e2 % 2 for e2 in factors.values()):
            raise PolyError("half exponents only allowed on a and b")
        exps = {var: e2 // 2 for var, e2 in factors.items()}
        xg, yg = (tuple(sorted((int(var[2:]), e) for var, e in exps.items()
                               if var.startswith(p))) for p in ("x_", "y_"))
        monos.append((Monomial(exps.get("x", 0), exps.get("y", 0), xg, yg),
                      coeff))
    return MultiPoly(monos)
