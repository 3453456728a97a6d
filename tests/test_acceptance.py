"""Acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
directly to the real stderr so the lines survive pytest's capture.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

import conftest
from conftest import CORPUS_SEED, rg
from ribbonpoly.invariants import (cross_validate, classical_tutte,
                                   krushkal, krushkal_quasitree, pst_delcon,
                                   pst_quasitree, pst_state_sum,
                                   underlying_multigraph)
from ribbonpoly.packaged import PackagedRibbonGraph, packaged_dual
from ribbonpoly.poly import MultiPoly, parse_poly
from ribbonpoly.ribbon import (activities, certificate, contract_edge, counts,
                               delete_edge, dual_correspondences,
                               enumerate_quasi_trees, euler_genus, isomorphic,
                               partial_dual, restrict, trace_boundaries)
from packaged_oracle import krushkal_quasitree_oracle, krushkal_substitution

THETA_POLY = ("x^3*x_2*y_0^2 + 2*x^2*x_2*y_0 + x^2*y*x_0*y_0^2"
              " + 3*x*y*x_0*y_0 + y^2*x_0*y_2")

SWEEP_ORDERS = 3


def report(n: int, desc: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n}: {status} - {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    assert ok, f"acceptance criterion {n} failed: {desc}"


@pytest.fixture(scope="session")
def sweep(corpus4):
    """Three-way cross-validation of every packaged instance under random
    edge orders; shared by criteria 4 and 7.  ``cross_validate`` runs
    deletion-contraction on the compiled minor, so the string-keyed
    ``pst_delcon`` behind ``compute --method delcon`` is checked against
    the same state sum on each instance too."""
    rng = random.Random(CORPUS_SEED)
    mismatches = []
    shape_failures = []
    state_sums = []
    start = time.monotonic()
    for i, (g, pg) in enumerate(corpus4):
        edges = list(g.edges)
        orders = []
        for _ in range(SWEEP_ORDERS):
            o = edges[:]
            rng.shuffle(o)
            orders.append(tuple(o))
        rep = cross_validate(pg, orders)
        if not rep.equal or pst_delcon(pg) != rep.state_sum:
            mismatches.append(i)
        if not rep.shape_checks_passed:
            shape_failures.append(i)
        state_sums.append(rep.state_sum)
    elapsed = time.monotonic() - start
    return {"mismatches": mismatches, "shape_failures": shape_failures,
            "state_sums": state_sums, "elapsed": elapsed}


def test_criterion_01_example_polynomial(theta):
    start = time.monotonic()
    expected = parse_poly(THETA_POLY)
    results = [pst_state_sum(theta), pst_delcon(theta),
               pst_quasitree(theta, ["e", "f", "g"])]
    elapsed = time.monotonic() - start
    ok = all(p == expected for p in results) and elapsed < 1.0
    report(1, "worked example polynomial via all three methods in "
              f"{elapsed:.3f}s", ok)


def test_criterion_02_activity_fixtures(theta):
    g = theta.graph
    order = ["e", "f", "g"]
    a_f = activities(g, {"f"}, order)
    a_g = activities(g, {"g"}, order)
    a_all = activities(g, {"e", "f", "g"}, order)
    ok = (a_f.external_live_orientable == {"e"}
          and a_f.internal_live_orientable == {"f"}
          and a_f.external_dead == {"g"}
          and a_g.external_live_orientable == {"e"}
          and a_g.external_dead == {"f"}
          and a_g.internal_dead == {"g"}
          and a_all.internal_live_orientable == {"e"}
          and a_all.internal_dead == {"f", "g"}
          and not (a_f.internal_live_nonorientable
                   | a_f.external_live_nonorientable
                   | a_g.internal_live_nonorientable
                   | a_g.external_live_nonorientable
                   | a_all.internal_live_nonorientable
                   | a_all.external_live_nonorientable))
    report(2, "activity classes for Q={f}, {g}, {e,f,g}", ok)


def test_criterion_03_quasitree_census(theta):
    qts = set(enumerate_quasi_trees(theta.graph))
    ok = qts == {frozenset({"f"}), frozenset({"g"}),
                 frozenset({"e", "f", "g"})}
    report(3, "quasi-tree census of the worked example", ok)


def test_criterion_04_three_way_sweep(corpus4, sweep):
    ok = (not sweep["mismatches"]) and sweep["elapsed"] < 300.0
    report(4, f"three-way equivalence on {len(corpus4)} packaged instances "
              f"x {SWEEP_ORDERS} orders in {sweep['elapsed']:.1f}s "
              f"({len(sweep['mismatches'])} mismatches)", ok)


def test_criterion_05_topological_calibration(disc, annulus, mobius, handle,
                                              theta):
    table = [(disc, 1, 0), (annulus, 2, 0), (mobius, 1, 1),
             (handle, 1, 2), (theta.graph, 1, 2)]
    ok = all(counts(g)[3] == b and euler_genus(g) == gamma
             for g, b, gamma in table)
    report(5, "boundary count and euler genus calibration table", ok)


def test_criterion_06_structural_identities(graphs4):
    import itertools
    failures = []
    for g in graphs4:
        edges = list(g.edges)
        gd, _, _ = dual_correspondences(g)

        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                b1 = counts(restrict(g, combo))[3]
                b2 = counts(restrict(gd, set(edges) - set(combo)))[3]
                if b1 != b2:
                    failures.append(("boundary-complement", certificate(g)))

        for e in edges:
            lhs, _ = contract_edge(g, e)
            rhs = delete_edge(partial_dual(g, {e}), e)
            if not isomorphic(lhs, rhs):
                failures.append(("contract-identity", certificate(g), e))

        if len(edges) >= 2:
            step = g
            for e in edges:
                step = partial_dual(step, {e})
            if certificate(step) != certificate(partial_dual(g, edges)):
                failures.append(("pdual-order", certificate(g)))

        gdd, _, _ = dual_correspondences(gd)
        if not isomorphic(gdd, g):
            failures.append(("dual-involution", certificate(g)))

        order = sorted(edges)
        qts = set(enumerate_quasi_trees(g))
        qts_dual = set(enumerate_quasi_trees(gd))
        if qts_dual != {frozenset(set(edges) - q) for q in qts}:
            failures.append(("quasitree-duality", certificate(g)))
        for q in qts:
            a1 = activities(g, q, order)
            a2 = activities(gd, frozenset(set(edges) - q), order)
            swapped = (a1.internal_dead == a2.external_dead
                       and a1.external_dead == a2.internal_dead
                       and a1.internal_live_orientable
                       == a2.external_live_orientable
                       and a1.external_live_orientable
                       == a2.internal_live_orientable
                       and a1.internal_live_nonorientable
                       == a2.external_live_nonorientable
                       and a1.external_live_nonorientable
                       == a2.internal_live_nonorientable)
            if not swapped:
                failures.append(("activity-duality", certificate(g), q))
    report(6, f"structural identities over {len(graphs4)} graphs "
              f"({len(failures)} failures)", not failures)


def test_criterion_07_minor_shapes(sweep):
    report(7, "quasi-tree minor shape checks across the sweep "
              f"({len(sweep['shape_failures'])} failures)",
           not sweep["shape_failures"])


def test_criterion_08_krushkal_triconsistency(graphs4):
    failures = []
    for g in graphs4:
        direct, via_subst = krushkal(g), krushkal_substitution(g)
        expansion = krushkal_quasitree(g, sorted(g.edges))
        # the library's expansion maps the packaged one; Butler's form on
        # string graphs keeps an independent expansion in the gate
        butler = krushkal_quasitree_oracle(g, sorted(g.edges))
        if not (direct == via_subst == expansion == butler):
            failures.append(certificate(g))
    literal_broken = any(
        krushkal_quasitree_oracle(g, sorted(g.edges), subset_nullity=False)
        != krushkal(g)
        for g in graphs4 if len(g.edges) <= 3)
    ok = not failures and literal_broken
    report(8, "four-variable polynomial tri-consistency "
              f"({len(failures)} failures; literal nullity reading "
              f"{'breaks' if literal_broken else 'does not break'} "
              "a small instance)", ok)


def test_criterion_09_plane_specialization(graphs4):
    failures = []
    for g in graphs4:
        if euler_genus(g) != 0:
            continue
        tutte_image = krushkal(g).substitute(alpha=MultiPoly.x() - 1,
                                             beta=MultiPoly.y() - 1,
                                             a=1, b=1, ring=MultiPoly)
        if tutte_image != classical_tutte(underlying_multigraph(g)):
            failures.append(certificate(g))
    report(9, "plane instances specialize to the classical Tutte polynomial "
              f"({len(failures)} failures)", not failures)


def test_criterion_10_duality_swap(corpus4, sweep):
    failures = []
    for (g, pg), ss in zip(corpus4, sweep["state_sums"]):
        if pst_state_sum(packaged_dual(pg)) != ss.swap_xy():
            failures.append(certificate(g))
    report(10, "x/y exchange under geometric duality across the corpus "
               f"({len(failures)} failures)", not failures)


def test_criterion_11_scale_check():
    rng = random.Random(77)
    names = [f"e{i}" for i in range(1, 11)]
    slots = [(n, i) for n in names for i in (1, 2)]
    rng.shuffle(slots)
    g = rg({"v1": slots[:10], "v2": slots[10:]},
           {n: rng.choice((1, -1)) for n in names})
    from ribbonpoly.ribbon import connected_components
    assert len(connected_components(g)) == 1
    start = time.monotonic()
    p = pst_state_sum(PackagedRibbonGraph.discrete(g))
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0 and p.terms
    report(11, f"10-edge state sum ({len(p.terms)} terms) in {elapsed:.2f}s",
           ok)
