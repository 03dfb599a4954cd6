"""Residue-recursion engine tests.

The decisive oracle is the constraint solver: both engines must produce
identical nonzero tensors on every test curve. On top of that, the known
closed-form low-level values, the slot-symmetrization property (any choice
of output slot yields the same entry), and the sector vanishing statements
are checked directly.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from superrec.airyengine import run_airy
from superrec.curve import CurveBases, CurveData
from superrec.scalars import Ring
from superrec.series import FormalSeries, TruncationError
from superrec.store import (IndexBoundError, LazyTensor, MissingDependency,
                            index_bound, insert_index, slot_ranges)
from superrec.trengine import KernelWeights, TrSolver, run_tr
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


def test_airy_base_and_known_values():
    tensor = run_tr(airy_curve(), 5)
    assert tensor.get(0, (1, 1, 1), ()) == rat(-1)
    assert tensor.get(1, (3,), ()) == rat("-1/4")
    assert tensor.get(0, (1,), (2, 0)) == rat("-1/2")
    assert tensor.get(0, (1, 1, 1, 3), ()) == rat(3)
    assert tensor.get(1, (), (6, 0)) == rat("5/8")
    assert tensor.get(2, (9,), ()) != RING.zero()


@pytest.mark.parametrize(
    "curve", [airy_curve(), rich_curve(), irregular_curve()],
    ids=["airy", "rich", "irregular"])
def test_engine_equivalence(curve):
    """Residue and constraint solvers agree entry for entry."""
    assert run_tr(curve, 5).nonzero_equal(run_airy(curve, 5))


@pytest.mark.parametrize(
    "curve", [airy_curve(), rich_curve()], ids=["airy", "rich"])
def test_slot_symmetrization(curve):
    """Extracting any bosonic slot (or the fermionic route) agrees."""
    solver = TrSolver(curve, 5)
    tensor = solver.run()
    checked = 0
    for (g, bos, fer) in tensor.sorted_keys():
        stored = tensor.get(g, bos, fer)
        for pos in range(len(bos)):
            assert solver.bosonic_value(g, bos, fer, pos) == stored, \
                (g, bos, fer, pos)
            checked += 1
        if fer and not bos:
            # recompute with a different leading fermionic index
            reordered = (fer[-1],) + fer[1:-1] + (fer[0],)
            alt = solver.fermionic_value(g, bos, reordered)
            want = -stored if len(fer) > 1 and fer[0] != fer[-1] else stored
            assert alt == want, (g, bos, fer)
            checked += 1
    assert checked > 0


def test_permuted_slots_are_sorted_before_assembly():
    """The routes take indices in any order: the bosonic remainder and the
    fermions are sorted, with their sign, before the lower entries are
    read from the sector index."""
    solver = TrSolver(rich_curve(), 5)
    tensor = solver.run()
    permuted = swapped = 0
    for (g, bos, fer) in tensor.sorted_keys():
        stored = tensor.get(g, bos, fer)
        if len(bos) > 2 and len(set(bos)) > 1:
            # some orders leave an unsorted remainder beside slot 0
            for perm in permutations(bos):
                assert solver.bosonic_value(g, perm, fer, 0) == stored, \
                    (g, perm, fer)
                permuted += 1
        if bos and len(fer) == 2:
            reversed_fer = fer[::-1]
            assert solver.bosonic_value(g, bos, reversed_fer) == -stored
            assert solver.fermionic_value(g, bos, reversed_fer) == -stored
            swapped += 1
    assert permuted and swapped


def test_sector_vanishing():
    """No-boson multi-fermion sectors of genus zero vanish."""
    tensor = run_tr(airy_curve(), 6)
    for (g, bos, fer) in tensor.sorted_keys():
        assert not (g == 0 and len(fer) >= 4 and len(bos) <= 1), (g, bos, fer)
    rich = run_tr(rich_curve(), 5)
    for (g, bos, fer) in rich.sorted_keys():
        assert not (g == 0 and len(fer) >= 4 and len(bos) <= 1), (g, bos, fer)


def test_extraction_columns_have_correct_parity():
    solver = TrSolver(rich_curve(), 5)
    solver.run()
    for (_, _, _, fermionic), column in solver._columns.items():
        if fermionic:
            assert all(l % 2 == 0 and l >= 2 for l in column)
        else:
            assert all(l % 2 == 1 for l in column)


def test_missing_dependency_guard():
    solver = TrSolver(airy_curve(), 4)
    with pytest.raises(MissingDependency):
        solver.flookup(2, (1,), ())


def _code(g, bos, fer):
    """A distinct nonzero rational for each canonical key in the simplex
    sum(bos) + sum(fer) <= B(chi), and zero above it."""
    if sum(bos) + sum(fer) > index_bound(2 * g + len(bos) + len(fer)):
        return RING.zero()
    return RING.rational(int("9" + "".join(f"{i:02d}" for i in bos)
                             + "8" + "".join(f"{j:02d}" for j in fer)
                             + str(g)))


class HandFilled(LazyTensor):
    """Every canonical entry in the simplex is its own _code; no recursion
    runs."""

    def compute_entry(self, g, bos, fer):
        return _code(g, bos, fer)


class HandFilledTr(TrSolver):
    compute_entry = HandFilled.compute_entry


# (g, J, K) of an F_{g-1} term, with an even index opened in front of K.
# At genus one the simplex leaves room for nonzero entries with the opened
# index at an odd and at an even position of K, e.g. a = 2 and a = 6 into
# K = (0, 4).
FF_CASES = [(1, (), (0, 4)), (1, (), (2, 6)), (1, (1,), (0, 4))]


def _budget(g, J, K):
    """What J and K leave to b + a of the level bound of F_g(J | b, a, K)."""
    return index_bound(2 * g + len(J) + len(K) + 2) - sum(J) - sum(K)


def test_ff_lead_slice_sign():
    """sign * slice[b] is F(J | b, a, K) whether a sorts into an odd or an
    even position of K: the convention the (F, F) F_{g-1} term relies on."""
    tensor = HandFilled(RING, 7, 3)
    positions = set()
    for g, J, K in FF_CASES:
        budget = _budget(g, J, K)
        for a in slot_ranges(budget)[1]:
            opened, sign = insert_index(a, True, J, K)
            if not sign:
                continue
            bos, fer = opened
            assert bos == J
            positions.add(fer.index(a) % 2)
            row = tensor.slice(g, J, fer, True)
            for b in slot_ranges(budget - a)[1]:
                want = tensor.value(g, J, (b, a) + K)
                assert sign * row.get(b, tensor.zero) == want, (a, b, K)
                assert b in (a,) + K or want, (a, b, K)
    assert positions == {0, 1}


def test_ff_lead_term_of_the_assembly():
    """Each (F, F) F_{g-1} term that trengine assembles, weight times
    factor, is sum_b F(J | b, a, K) eta_b, with both slots open."""
    solver = HandFilledTr(airy_curve(), 7)
    eta = solver.bases.eta_minus
    odd_seen = 0
    for g, J, K in FF_CASES:
        budget = _budget(g, J, K)
        g += 1
        lead = {id(eta(a)): a for a in slot_ranges(budget)[1]}
        for _, _, x, y, weight in solver._factor_pairs(
                g, J, K, [(1, 1)]):
            a = lead.get(id(x))
            if a is None:
                continue  # a split product, not an F_{g-1} term
            want = FormalSeries.zero(RING, solver.bases.trunc, 0, 1)
            for b in slot_ranges(budget - a)[1]:
                entry = solver.flookup(g - 1, J, (b, a) + K)
                want = want + eta(b).scale(entry)
            assert y.scale(weight) == want, (g, J, K, a)
            odd_seen += weight < 0
    assert odd_seen


# (curve, chi_max) on which the assembly cut must not change a column: the
# psi curve, the fitted ramond curve, phi11(t) and an epsilon-1 curve
CUT_CASES = [
    (lambda: rich_curve(), 5),
    (lambda: zoo_build(ZooSpec("ramond", trunc=27)), 6),
    (lambda: zoo_build(ZooSpec("phi11", trunc=24)), 6),
    (lambda: zoo_build(ZooSpec("bessel", trunc=20)), 7),
]


@pytest.mark.parametrize("make, chi_max", CUT_CASES,
                         ids=["psi", "ramond", "phi11_t", "bessel"])
def test_assembly_cut_keeps_every_column(monkeypatch, make, chi_max):
    """The quadratic series is assembled only through the kernel's top
    exponent; every extraction column equals the one from uncut factors."""
    curve = make()
    cut = TrSolver(curve, chi_max)
    cut.run()
    assert cut.kernel.top < cut.bases.trunc
    monkeypatch.setattr(FormalSeries, "cut", lambda series, top: series)
    whole = TrSolver(curve, chi_max)
    whole.run()
    assert cut._columns == whole._columns
    assert sum(map(len, cut._columns.values())) > 20


def test_assembly_stops_at_the_kernel_top():
    solver = TrSolver(rich_curve(), 5)
    solver.run()
    top = solver.kernel.top
    assert top == 0  # -2 plus the epsilon - 1 pole order of 1/delta-omega
    for g, J, K, fermionic in ((1, (), (), False), (0, (1,), (0,), True)):
        q = solver._assemble(g, J, K, fermionic)
        assert q.trunc == top and q.coeffs


def airy_kernel():
    return KernelWeights(CurveBases(airy_curve(), 5))


def test_extraction_refuses_a_series_cut_below_the_top():
    kernel = airy_kernel()
    low = FormalSeries(RING, {-2: rat(1)}, kernel.top - 1, 2, 0)
    with pytest.raises(TruncationError):
        kernel.extract_bosonic(low, 5)
    # the same series known through top is read
    at_top = FormalSeries(RING, {-2: rat(1)}, kernel.top, 2, 0)
    assert kernel.extract_bosonic(at_top, 5) == {3: rat("1/2")}


def test_extraction_refuses_an_index_past_the_bound():
    kernel = airy_kernel()
    q = FormalSeries(RING, {-2: rat(1)}, kernel.top, 2, 0)
    with pytest.raises(IndexBoundError):
        kernel.extract_bosonic(q, 1)
