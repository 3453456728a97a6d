from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonpoly.poly import (HalfExpPoly, HalfMonomial, Monomial, MultiPoly,
                             PolyError, parse_poly)


@st.composite
def multi_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = Monomial(
            ex=draw(st.integers(0, 3)),
            ey=draw(st.integers(0, 3)),
            exg=tuple(sorted({draw(st.integers(-2, 3)): draw(st.integers(1, 2))
                              for _ in range(draw(st.integers(0, 2)))}.items())),
            eyg=tuple(sorted({draw(st.integers(-2, 3)): draw(st.integers(1, 2))
                              for _ in range(draw(st.integers(0, 2)))}.items())))
        terms[m] = draw(st.integers(-5, 5))
    return MultiPoly(terms)


@st.composite
def half_polys(draw, min_exp=0):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = HalfMonomial(*(draw(st.integers(min_exp, 3)) for _ in range(2)),
                         *(draw(st.integers(0, 3)) for _ in range(2)))
        terms[m] = draw(st.integers(-5, 5))
    return HalfExpPoly(terms)


def outcome(substitution):
    """The image, or the message of the PolyError raised instead."""
    try:
        return substitution()
    except PolyError as ex:
        return str(ex)


def substitute_term_by_term(p, x=None, y=None, xg=None, yg=None, ring=None):
    """:meth:`MultiPoly.substitute` one term at a time, each power
    recomputed and each image added to the running sum."""
    ring = ring or MultiPoly
    out = ring.zero()
    for m, c in p.terms.items():
        term = ring.const(c)
        for name, rule, e in (("x", x, m.ex), ("y", y, m.ey)):
            if e:
                if rule is None:
                    raise PolyError(f"no substitution rule for {name}")
                term = term * rule ** e
        for name, rule, pairs in (("x", xg, m.exg), ("y", yg, m.eyg)):
            for g, e in pairs:
                if rule is None:
                    raise PolyError(f"no substitution rule for {name}_{g}")
                term = term * rule(g) ** e
        out = out + term
    return out


def half_substitute_term_by_term(p, alpha=None, beta=None, a=None, b=None,
                                 ring=None):
    """:meth:`HalfExpPoly.substitute` one term at a time, each power
    recomputed and each image added to the running sum."""
    if a not in (None, 0, 1) or b not in (None, 0, 1):
        raise PolyError("a/b may only be substituted by 0 or 1")
    ring = ring or MultiPoly
    out = ring.zero()
    for m, c in p.terms.items():
        if m.ea2 and a is None:
            raise PolyError("no substitution rule for a")
        if m.ea2 and a == 0:
            continue
        if m.eb2 and b is None:
            raise PolyError("no substitution rule for b")
        if m.eb2 and b == 0:
            continue
        term = ring.const(c)
        for e, rule, name in ((m.ealpha, alpha, "alpha"),
                              (m.ebeta, beta, "beta")):
            if e:
                if rule is None:
                    raise PolyError(f"no substitution rule for {name}")
                if e < 0:
                    raise PolyError(f"negative {name} exponent under "
                                    "polynomial substitution")
                term = term * rule ** e
        out = out + term
    return out


def test_basic_arithmetic():
    p = MultiPoly.xg(0) * MultiPoly.yg(0)
    assert p * MultiPoly.yg(0) == MultiPoly({
        Monomial(exg=((0, 1),), eyg=((0, 2),)): 1})
    q = MultiPoly.x() + MultiPoly.y(2)
    assert q + q * (-1) == MultiPoly.zero()
    assert (q - q).canonical_text() == "0"


def test_large_coefficients_stay_exact():
    p = (MultiPoly.x() + 1) ** 64
    assert p.terms[Monomial(ex=32)] == 1832624140942590534


@settings(max_examples=120, deadline=None)
@given(multi_polys(), multi_polys(), multi_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=120, deadline=None)
@given(multi_polys())
def test_canonical_text_round_trips(p):
    assert parse_poly(p.canonical_text()) == p


@settings(max_examples=80, deadline=None)
@given(multi_polys(), multi_polys())
def test_canonical_text_injective(p, q):
    if p != q:
        assert p.canonical_text() != q.canonical_text()


def test_canonical_text_examples():
    assert MultiPoly.zero().canonical_text() == "0"
    assert (MultiPoly.xg(0) * MultiPoly.yg(0)).canonical_text() == "x_0*y_0"
    assert (MultiPoly.x() - MultiPoly.const(3)).canonical_text() == "x - 3"
    assert (MultiPoly.xg(-1) * 2).canonical_text() == "2*x_-1"


def test_half_exp_text():
    h = HalfExpPoly.alpha() * HalfExpPoly.a_half(3) + 1
    assert h.canonical_text() == "alpha*a^3/2 + 1"
    assert parse_poly(h.canonical_text()) == h
    h2 = HalfExpPoly({HalfMonomial(ealpha=-2, eb2=4): 1})
    assert h2.canonical_text() == "alpha^-2*b^2"
    assert parse_poly(h2.canonical_text()) == h2


def test_half_exp_rejects_negative_surface_exponent():
    with pytest.raises(PolyError):
        HalfExpPoly({HalfMonomial(ea2=-1): 1})


def test_parse_rejects_mixed_families():
    with pytest.raises(PolyError):
        parse_poly("x + alpha")
    with pytest.raises(PolyError):
        parse_poly("x + zz")


def test_substitute_krushkal_shape():
    p = MultiPoly.xg(0) * MultiPoly.yg(0) * MultiPoly.yg(0)
    one = HalfExpPoly.const(1)
    image = p.substitute(
        x=one, y=one,
        xg=lambda g: HalfExpPoly.beta() * HalfExpPoly.b_half(g),
        yg=lambda g: HalfExpPoly.alpha() * HalfExpPoly.a_half(g),
        ring=HalfExpPoly)
    assert image == HalfExpPoly.alpha(2) * HalfExpPoly.beta()


def test_substitute_requires_complete_rules():
    with pytest.raises(PolyError):
        (MultiPoly.x()).substitute(y=MultiPoly.const(1))


def test_reindex_halved():
    p = MultiPoly.x(2) * MultiPoly.xg(2) * MultiPoly.yg(0)
    assert p.reindex_halved() == MultiPoly.x(2) * MultiPoly.xg(1) * \
        MultiPoly.yg(0)
    with pytest.raises(PolyError):
        (MultiPoly.xg(1)).reindex_halved()


def test_substitution_composes():
    p = MultiPoly.x() * MultiPoly.yg(2)
    s1 = p.substitute(x=MultiPoly.x() + 1, yg=MultiPoly.yg)
    s2 = s1.substitute(x=MultiPoly.y(), y=MultiPoly.y(),
                       yg=lambda g: MultiPoly.yg(g))
    direct = p.substitute(x=MultiPoly.y() + 1, yg=MultiPoly.yg)
    assert s2 == direct


def test_swap_xy():
    p = MultiPoly.x(2) * MultiPoly.xg(1) + MultiPoly.y() * MultiPoly.yg(3)
    assert p.swap_xy() == MultiPoly.y(2) * MultiPoly.yg(1) + \
        MultiPoly.x() * MultiPoly.xg(3)
    assert p.swap_xy().swap_xy() == p


@st.composite
def family_rules(draw, polys, complete=False):
    """A rule for every index the strategies use, or ``None`` (no rule)
    unless ``complete``."""
    if not complete and draw(st.booleans()):
        return None
    table = {g: draw(polys) for g in range(-2, 4)}
    return table.__getitem__


@settings(max_examples=150, deadline=None)
@given(multi_polys(), st.sampled_from([MultiPoly, HalfExpPoly]), st.data())
def test_substitute_equals_term_by_term(p, ring, data):
    """Into both rings: the same image, or, with some rules missing, the
    same PolyError, raised at the same first missing rule."""
    polys = multi_polys() if ring is MultiPoly else half_polys()
    complete = data.draw(st.booleans())   # else some rules may be missing
    rules = {name: data.draw(polys if complete else st.none() | polys)
             for name in ("x", "y")}
    rules.update({name: data.draw(family_rules(polys, complete))
                  for name in ("xg", "yg")})
    assert (outcome(lambda: p.substitute(**rules, ring=ring))
            == outcome(lambda: substitute_term_by_term(p, **rules,
                                                       ring=ring)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_half_substitute_equals_term_by_term(data):
    """The same image, or the same PolyError with rules missing, negative
    alpha/beta exponents, or a or b outside 0 and 1."""
    complete = data.draw(st.booleans())
    p = data.draw(half_polys(min_exp=0 if complete else -1))
    rules = {name: data.draw(multi_polys() if complete
                             else st.none() | multi_polys())
             for name in ("alpha", "beta")}
    rules.update({name: data.draw(st.sampled_from(
        [0, 1] if complete else [None, 0, 1, 2])) for name in ("a", "b")})
    assert (outcome(lambda: p.substitute(**rules, ring=MultiPoly))
            == outcome(lambda: half_substitute_term_by_term(
                p, **rules, ring=MultiPoly)))


@pytest.mark.parametrize("rules", [{"a": 5}, {"b": 2}, {"a": 0, "b": -1}])
def test_half_substitute_checks_a_and_b_without_terms(rules):
    with pytest.raises(PolyError, match="a/b may only be substituted"):
        HalfExpPoly.zero().substitute(**rules)


def test_substitute_reports_the_first_missing_rule():
    p = MultiPoly({Monomial(ex=1, eyg=((2, 1),)): 1,
                   Monomial(exg=((-1, 2),)): 3})
    with pytest.raises(PolyError, match=r"^no substitution rule for y_2$"):
        p.substitute(x=MultiPoly.y())
    with pytest.raises(PolyError, match=r"^no substitution rule for x_-1$"):
        p.substitute(x=MultiPoly.y(), yg=MultiPoly.xg)
    with pytest.raises(PolyError, match=r"^no substitution rule for x$"):
        p.substitute(xg=MultiPoly.yg, yg=MultiPoly.xg)
    h = HalfExpPoly({HalfMonomial(ealpha=1, ea2=1): 1})
    with pytest.raises(PolyError, match=r"^no substitution rule for a$"):
        h.substitute(alpha=MultiPoly.x())
    with pytest.raises(PolyError, match=r"^no substitution rule for alpha$"):
        h.substitute(a=1)
    assert h.substitute(a=0) == MultiPoly.zero()


def merged(*term_lists):
    """The term dict of the sum of ``term_lists``, zeros dropped."""
    out: dict = {}
    for terms in term_lists:
        for m, c in terms:
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.tuples(multi_polys(), multi_polys()),
                 st.tuples(half_polys(min_exp=-1), half_polys())),
       st.integers(-3, 3))
def test_sum_and_difference_merge_terms(pq, k):
    """In both rings, with a polynomial or an int on either side."""
    p, q = pq
    unit = type(p)._unit()
    assert (p + q).terms == merged(p.terms.items(), q.terms.items())
    assert (p - q).terms == merged(p.terms.items(),
                                   ((m, -c) for m, c in q.terms.items()))
    assert (p + k).terms == (k + p).terms == merged(p.terms.items(),
                                                    [(unit, k)])
    assert (p - k).terms == merged(p.terms.items(), [(unit, -k)])


FACTORS = {"x": MultiPoly.x(), "y": MultiPoly.y(), "x_0": MultiPoly.xg(0),
           "x_-1": MultiPoly.xg(-1), "y_2": MultiPoly.yg(2)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.lists(st.tuples(
    st.sampled_from(sorted(FACTORS)), st.integers(1, 2)), max_size=4)),
    min_size=1, max_size=5))
def test_parse_multiplies_factors_and_adds_terms(raw):
    """Text that is not canonical, with repeated and unordered factors,
    repeated monomials and terms that cancel, parses to the sum of the
    products it spells."""
    text, want = "", {}
    for i, (c, factors) in enumerate(raw):
        text += ("-" if c < 0 else "") if i == 0 else (" - " if c < 0
                                                      else " + ")
        text += "*".join([str(abs(c))] + [f"{v}^{e}" for v, e in factors])
        term = MultiPoly.const(c)
        for v, e in factors:
            term = term * FACTORS[v] ** e
        want = merged(want.items(), term.terms.items())
    assert parse_poly(text).terms == want


def test_parse_rejects_a_dangling_exponent():
    for text in ("x^", "x^-", "a^-"):
        with pytest.raises(PolyError, match=r"^dangling exponent$"):
            parse_poly(text)
    with pytest.raises(PolyError, match=r"^bad exponent -$"):
        parse_poly("x^--1")


def test_parse_checks_each_half_term():
    assert parse_poly("a^1/2*alpha^-1 + alpha^-1*a^1/2 - b") == HalfExpPoly(
        {HalfMonomial(ealpha=-1, ea2=1): 2, HalfMonomial(eb2=2): -1})
    with pytest.raises(PolyError, match=r"^negative a/b exponent$"):
        parse_poly("a^-1 - a^-1")
    with pytest.raises(PolyError,
                       match=r"^half exponents only allowed on a and b$"):
        parse_poly("x + y^1/2")


@settings(max_examples=120, deadline=None)
@given(multi_polys())
def test_reindex_halved_term_by_term(p):
    odd = [g for m in p.terms for g, _ in m.exg + m.eyg if g % 2]
    if odd:
        with pytest.raises(PolyError, match=rf"^odd family index {odd[0]} "):
            p.reindex_halved()
        return
    assert p.reindex_halved().terms == {
        Monomial(m.ex, m.ey, tuple((g // 2, e) for g, e in m.exg),
                 tuple((g // 2, e) for g, e in m.eyg)): c
        for m, c in p.terms.items()}
