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
from superrec.curve import CurveData
from superrec.scalars import Ring
from superrec.trengine import MissingDependency, TrSolver, run_tr

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
