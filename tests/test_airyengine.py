"""Constraint-engine tests.

The coefficient tables are validated against independent residue-pairing
oracles built from the curve basis series, and the solved tensors against
closed-form low-level values plus alternative-slot consistency (the same
entry re-derived from a different constraint instance must agree).
"""

from collections import Counter
from fractions import Fraction

import pytest

from superrec.airyengine import AirySolver, ConstraintCoeffs, run_airy
from superrec.curve import CurveBases, CurveData
from superrec.scalars import Ring
from superrec.series import FormalSeries
from superrec.store import index_bound
from superrec.trengine import run_tr
from superrec.zoo import ZooSpec, zoo_build

RING = Ring([])


def rat(value):
    return RING.rational(Fraction(value))


def airy_curve(trunc=26):
    return CurveData(RING, 3, {3: rat(1)}, {}, {}, {}, trunc)


def rich_curve(trunc=30):
    return CurveData(
        RING, 3,
        {3: rat(1), 5: rat("2/3"), 4: rat("1/2")},
        {(1, 1): rat("1/2"), (1, 2): rat(-3), (2, 2): rat("1/5")},
        {1: rat(2), 2: rat("-1/3")},
        {(1, 2): rat("1/7"), (2, 3): rat(4)},
        trunc)


def irregular_curve(trunc=30):
    return CurveData(
        RING, 1,
        {1: rat(1), 2: rat("1/2"), 3: rat("-1/3")},
        {(1, 1): rat(1), (1, 3): rat("2/7")},
        {1: rat("-1/2"), 3: rat(1)},
        {(1, 2): rat(3)},
        trunc)


# --- residue-pairing oracles for the coefficient tables --------------------


def dxi_of(bases, j):
    """Basis one-form paired with the bosonic argument j (0 drops out)."""
    if j == 0:
        return FormalSeries.zero(RING, bases.trunc, 1, 0)
    return bases.dxi_minus(j) if j > 0 else bases.dxi_plus(-j)


def eta_of(bases, k):
    """Basis odd series paired with the fermionic argument k."""
    return bases.eta_minus(k) if k >= 0 else bases.eta_plus(-k)


def kernel(bases, c, theta):
    return FormalSeries.monomial(RING, 1, 2 * c - 3, bases.trunc, -1, theta)


def hat_c_bb(bases, c, j, k):
    a, b = dxi_of(bases, j), dxi_of(bases, k)
    prod = a * b.sigma() + a.sigma() * b
    return -(kernel(bases, c, 0) * prod).residue() \
        * RING.rational(Fraction(1, 2))


def hat_c_ff(bases, c, j, k):
    def half_term(u, v):
        du = u.derive()
        prod = du * v.sigma() + du.sigma() * v
        return -(kernel(bases, c, 0) * prod).residue() \
            * RING.rational(Fraction(1, 4))
    a, b = eta_of(bases, j), eta_of(bases, k)
    return half_term(a, b) - half_term(b, a)


def hat_c_bf(bases, c, j, k):
    a, b = dxi_of(bases, j), eta_of(bases, k)
    prod = a * b.sigma() + a.sigma() * b
    return -(kernel(bases, c, 1) * prod).residue() \
        * RING.rational(Fraction(1, 2))


def hat_d(bases, c):
    return -(kernel(bases, c, 0) * bases.f0_diagonal).residue() \
        * RING.rational(Fraction(1, 2))


@pytest.mark.parametrize(
    "curve", [airy_curve(), rich_curve(), irregular_curve()],
    ids=["airy", "rich", "irregular"])
def test_coefficient_tables_match_residue_oracles(curve):
    bases = CurveBases(curve)
    coeffs = ConstraintCoeffs(curve)
    for c in range(1, 6):
        assert coeffs.d(c) == hat_d(bases, c), ("d", c)
        for j in range(-6, 7):
            for k in range(-6, 7):
                assert coeffs.c_bb(c, j, k) == hat_c_bb(bases, c, j, k), \
                    ("bb", c, j, k)
                assert coeffs.c_ff(c, j, k) == hat_c_ff(bases, c, j, k), \
                    ("ff", c, j, k)
                assert coeffs.c_bf(c, j, k) == hat_c_bf(bases, c, j, k), \
                    ("bf", c, j, k)


def test_trivial_polarization_table_deltas():
    coeffs = ConstraintCoeffs(airy_curve())
    for c in range(1, 5):
        for j in range(0, 6):
            for k in range(0, 6):
                expect_bb = rat(1 if (c, j, k) == (1, 1, 1) else 0)
                assert coeffs.c_bb(c, -j, -k) == expect_bb
                expect_ff = RING.zero()
                if c == 1 and (j, k) == (2, 0):
                    expect_ff = rat(1)
                if c == 1 and (j, k) == (0, 2):
                    expect_ff = rat(-1)
                assert coeffs.c_ff(c, -j, -k) == expect_ff
                expect_bf = rat(1 if (c, j, k) == (1, 1, 0) else 0)
                assert coeffs.c_bf(c, -j, -k) == expect_bf


@pytest.mark.parametrize("kind", ["bb", "ff", "bf"])
def test_nonzero_table_is_the_parity_allowed_dense_grid(kind):
    # a bosonic slot holds odd indices >= 1, a fermionic slot even ones
    kmax = 9
    odd, even = range(1, kmax + 1, 2), range(0, kmax + 1, 2)
    firsts = even if kind == "ff" else odd
    seconds = odd if kind == "bb" else even
    coeffs = ConstraintCoeffs(rich_curve())
    dense = getattr(ConstraintCoeffs(rich_curve()), "c_" + kind)
    sizes = []
    for c in range(1, 6):
        expected = [(k, l, dense(c, k, l))
                    for k in range(kmax + 1) for l in range(kmax + 1)
                    if k in firsts and l in seconds and dense(c, k, l)]
        assert coeffs.nonzero(kind, c, firsts, seconds) == expected, c
        sizes.append(len(expected))
    assert max(sizes) > 0


def test_each_coefficient_is_evaluated_once(monkeypatch):
    calls = Counter()
    for kind in ("bb", "ff", "bf"):
        def counted(self, c, j, k, kind=kind,
                    original=getattr(ConstraintCoeffs, "c_" + kind)):
            calls[(kind, c, j, k)] += 1
            return original(self, c, j, k)
        monkeypatch.setattr(ConstraintCoeffs, "c_" + kind, counted)
    curve = zoo_build(ZooSpec("ramond", trunc=28))
    tensor = run_airy(curve, 5)
    monkeypatch.undo()
    assert calls
    assert [key for key, n in calls.items() if n > 1] == []
    assert tensor.nonzero_equal(run_tr(curve, 5))


def test_d_values():
    assert ConstraintCoeffs(airy_curve()).d(2) == rat("1/4")
    assert ConstraintCoeffs(airy_curve()).d(1) == RING.zero()
    rich = ConstraintCoeffs(rich_curve())
    # d(1) = phi_11/2 + psi_02/2 with psi_02 = psi0_2 read from the curve
    assert rich.d(1) == rat("1/2") * rat("1/2") + rat("1/2") * rat("-1/3")


# --- solved tensors ---------------------------------------------------------


def test_airy_base_level_values():
    tensor = run_airy(airy_curve(), 3)
    assert tensor.get(0, (1, 1, 1), ()) == rat(-1)
    assert tensor.get(1, (3,), ()) == rat("-1/4")
    assert tensor.get(0, (1,), (2, 0)) == rat("-1/2")
    assert tensor.get(0, (1,), (0, 2)) == rat("1/2")
    # everything else at this level vanishes
    expected = {(0, (1, 1, 1), ()), (1, (3,), ()), (0, (1,), (0, 2))}
    assert set(tensor.keys_at_chi(3)) == expected


def test_airy_known_higher_values():
    tensor = run_airy(airy_curve(), 5)
    # classical values of the cubic model: D3 = <tau_0^3 tau_1> etc. map to
    # F(1,1,1,3) = <tau_0^3 tau_1> * (scaling); fix them by the recursion's
    # own chi=4 instance, solved by hand:
    # F_{0,4}(1,1,1,3): constraint c=2 with J=(1,1,1):
    #   tau3 F(3,1,1,1) + sum_l i_l C_2^{-i_l,k|} F(k, J\i_l) = 0
    # C_2^{-1,k|} = delta_{k,1} gives 3 * F_{0,3}(1,1,1) = -3.
    assert tensor.get(0, (1, 1, 1, 3), ()) == rat(3)
    # F_{1,1|2}-type mixed entry exists and is consistent both ways (below)
    assert tensor.get(0, (1, 1, 1, 1), ()) == RING.zero()
    # index reach exceeds 2*chi-3: the fermionic-slot instance c=3 for the
    # genus-one no-boson sector reads
    #   F(|6,0) + F_{0,1|2}(1|2,0) + F_{1,1}(3)/2 = 0  =>  F(|6,0) = 5/8,
    # a nonzero entry at index 3*(chi-2) = 6, level chi = 4
    assert tensor.get(1, (), (6, 0)) == rat("5/8")
    # and the genus-two one-point sector reaches index 9 = 3*(5-2)
    assert tensor.get(2, (9,), ()) != RING.zero()


def consistency_sample(curve, chi_max):
    """Re-derive stored entries from alternative constraint instances."""
    solver = AirySolver(curve, chi_max)
    tensor = solver.run()
    checked = 0
    for (g, bos, fer) in tensor.sorted_keys():
        stored = tensor.get(g, bos, fer)
        if len(bos) >= 2:
            # solve with the smallest bosonic index leading instead
            alt = solver.solve_bosonic_entry(g, bos, fer)
            assert alt == stored, (g, bos, fer, "bosonic alt")
            checked += 1
        if bos and len(fer) >= 2:
            # mixed entry: fermionic-leading instance must agree
            if fer[0] == 0:
                alt = -solver.solve_fermionic_entry(
                    g, bos, (fer[1], 0) + fer[2:])
            else:
                alt = solver.solve_fermionic_entry(g, bos, fer)
            assert alt == stored, (g, bos, fer, "fermionic alt")
            checked += 1
    return checked


@pytest.mark.parametrize(
    "curve", [airy_curve(), rich_curve(), irregular_curve()],
    ids=["airy", "rich", "irregular"])
def test_alternative_instance_consistency(curve):
    assert consistency_sample(curve, 5) > 0


def test_base_level_fermionic_route_agrees():
    # the engine seeds F_{0,1|2} from the bosonic-slot instance; the
    # fermionic-slot instance must reproduce it
    for curve in (rich_curve(), irregular_curve()):
        solver = AirySolver(curve, 3)
        tensor = solver.run()
        eps = curve.epsilon
        for j in range(1, 4, 2):
            for f in range(2, 4, 2):
                for k in range(0, 4, 2):
                    if k == f:
                        continue
                    alt = solver.solve_fermionic_entry(0, (j,), (f, k))
                    assert alt == tensor.get(0, (j,), (f, k)), (j, f, k)


def test_index_parity_and_bounds_respected():
    tensor = run_airy(rich_curve(), 5)
    for (g, bos, fer) in tensor.sorted_keys():
        chi = 2 * g + len(bos) + len(fer)
        bound = index_bound(chi)
        assert all(i % 2 == 1 and 1 <= i <= bound for i in bos)
        assert all(j % 2 == 0 and 0 <= j <= bound for j in fer)


def test_dilaton_table_order_independence():
    # entries with several higher dilaton coefficients once depended on the
    # iteration order of the tau table: a product term with an unstable
    # (vanishing) partner factor recursed into a same-level entry whose
    # leading-sum dependency was still mid-computation, and the memoized
    # read silently returned zero. All orderings must agree with each
    # other (and they are pinned against the residue engine elsewhere).
    coeffs = [(3, rat(1)), (5, rat("1/4")), (7, rat("-2/3"))]
    orders = [coeffs, coeffs[::-1], [coeffs[0], coeffs[2], coeffs[1]]]
    reference = None
    for order in orders:
        curve = CurveData(RING, 3, dict(order), {}, {}, {}, 24)
        tensor = run_airy(curve, 5)
        if reference is None:
            reference = tensor
            assert run_tr(curve, 5).nonzero_equal(tensor)
        else:
            assert tensor.nonzero_equal(reference), [p for p, _ in order]


@pytest.mark.parametrize("curve", [
    rich_curve(), irregular_curve(),
    CurveData(RING, 3, {3: rat(1), 5: rat("1/4"), 7: rat("-2/3"),
                        9: rat("1/3"), 11: rat(2)}, {}, {}, {}, 24)],
    ids=["rich", "irregular", "tau-3-to-11"])
def test_no_lookup_above_the_index_simplex(monkeypatch, curve):
    # every term of a constraint reads entries inside the simplex: the
    # leading sum stops at the first tau_p whose entry would lie above it
    above = []
    inner = AirySolver.flookup

    def flookup(solver, g, bos, fer):
        chi = 2 * g + len(bos) + len(fer)
        if chi > 2 and sum(bos) + sum(fer) > index_bound(chi, curve.epsilon):
            above.append((g, bos, fer))
        return inner(solver, g, bos, fer)

    monkeypatch.setattr(AirySolver, "flookup", flookup)
    assert run_airy(curve, 6).entries
    assert above == []
