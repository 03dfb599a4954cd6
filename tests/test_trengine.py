"""Residue-recursion engine tests.

The decisive oracle is the constraint solver: both engines must produce
identical nonzero tensors on every test curve. On top of that, the known
closed-form low-level values, the slot-symmetrization property (any choice
of output slot yields the same entry), and the sector vanishing statements
are checked directly.
"""

import warnings
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import inf

import pytest

from superrec import trengine
from superrec.airyengine import run_airy
from superrec.curve import CurveBases, CurveData
from superrec.scalars import Ring
from superrec.series import FormalSeries, TruncationError
from superrec.store import (IndexBoundError, LazyTensor, MissingDependency,
                            ParityError, distinct_splits, index_bound,
                            insert_index, iter_partitions, slot_ranges)
from superrec.trengine import KernelWeights, TrSolver, run_tr
from superrec.zoo import ZooSpec, zoo_build

from oracles import as_raw, as_series

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
    assert run_tr(curve, 5).entries == run_airy(curve, 5).entries


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
    factor, is sum_b F(J | b, a, K) eta_b, with both slots open, beside
    eta_a; both factors are cut at the row top."""
    solver = HandFilledTr(airy_curve(), 7)
    eta = solver.bases.eta_minus
    odd_seen = 0
    for g, J, K in FF_CASES:
        budget = _budget(g, J, K)
        g += 1
        lead = {id(solver._slot_rows(True, a)): a
                for a in slot_ranges(budget)[1]}
        for _, _, x, y, weight in solver._factor_pairs(
                g, J, K, [(1, 1)]):
            a = lead.get(id(x))
            if a is None:
                continue  # a split product, not an F_{g-1} term
            x, y = as_series(RING, x, True), as_series(RING, y, True)
            assert x == eta(a)
            want = FormalSeries.zero(RING, solver.bases.trunc, 0, 1)
            for b in slot_ranges(budget - a)[1]:
                entry = solver.flookup(g - 1, J, (b, a) + K)
                want = want + eta(b).scale(entry)
            assert y.scale(weight) == want, (g, J, K, a)
            assert x.trunc == y.trunc == solver._row_top < want.trunc
            odd_seen += weight < 0
    assert odd_seen


def super_jt_curve():
    """super_jt at trunc 12: epsilon 1, with its seven dilaton coefficients
    in the symbols sqrt2 and pi2."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "the cosine one-form")
        return zoo_build(ZooSpec("super_jt", trunc=12))


# (curve, chi_max) on which the assembly cut must not change a column: the
# psi curve, the fitted ramond curve, phi11(t) and two epsilon-1 curves
CUT_CASES = [
    (lambda: rich_curve(), 5),
    (lambda: zoo_build(ZooSpec("ramond", trunc=27)), 6),
    (lambda: zoo_build(ZooSpec("phi11", trunc=24)), 6),
    (lambda: zoo_build(ZooSpec("bessel", trunc=20)), 7),
    (super_jt_curve, 8),
]
CUT_IDS = ["psi", "ramond", "phi11_t", "bessel", "super_jt"]


@pytest.mark.parametrize("make, chi_max", CUT_CASES, ids=CUT_IDS)
def test_assembly_cut_keeps_every_column(make, chi_max):
    """The quadratic is assembled only through the kernel's top exponent,
    from factors summed only through the row top; every extraction column
    equals the one from uncut factors."""
    curve = make()
    cut = TrSolver(curve, chi_max)
    cut.run()
    assert cut.kernel.top < cut._row_top < cut.bases.trunc
    whole = TrSolver(curve, chi_max)
    whole._row_top = inf  # each slot basis row is read to its truncation
    whole.run()
    assert cut._columns == whole._columns
    assert sum(map(len, cut._columns.values())) > 20


@pytest.mark.parametrize("make, chi_max", CUT_CASES, ids=CUT_IDS)
def test_raw_division_equals_the_series_quotient(make, chi_max):
    """Every column, divided by delta-omega on the quadratic's raw sums,
    equals the column read off the finished quadratic times the series
    1/delta-omega, at each exponent -l-1 <= -2 that product knows."""
    solver = TrSolver(make(), chi_max)
    solver.run()
    inv_delta = solver.bases.delta_omega.invert()
    assert inv_delta.coeffs
    read = 0
    for (g, J, K, fermionic), column in solver._columns.items():
        q = as_series(solver.ring, solver._assemble(g, J, K, fermionic),
                      fermionic)
        r = q * inv_delta
        assert r.trunc >= -2 or r.min_exp > -2
        assert column == {-k - 1: c for k, c in r.coeffs.items() if k <= -2}
        read += len(column)
    assert read > 20


def test_perfbench_names_stay_on_the_path(monkeypatch):
    """Each column is one call of assemble_QBB_FF or assemble_QFB and one
    of extract_bosonic or extract_fermionic, the names perfbench times as
    trengine.assemble_s and trengine.extract_s."""
    calls = Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, wrapper)

    for name in ("assemble_QBB_FF", "assemble_QFB"):
        counted(TrSolver, name)
    for name in ("extract_bosonic", "extract_fermionic"):
        counted(KernelWeights, name)
    solver = TrSolver(rich_curve(), 5)
    solver.run()
    kinds = Counter(key[3] for key in solver._columns)
    assert kinds[False] and kinds[True]
    assert calls == {"assemble_QBB_FF": kinds[False],
                     "extract_bosonic": kinds[False],
                     "assemble_QFB": kinds[True],
                     "extract_fermionic": kinds[True]}


def ordered_bb_splits(solver, g, J, K):
    """Every (B, B) split term of the assembly of F(l, J | K), in both
    orders, as (g1, J1, K1, g2, J2, K2, weight): each distinct split of J,
    each genus and each positioned split of K with an even first part, both
    factors nonzero and neither the one-point line factor."""
    for J1, J2, mult in distinct_splits(J):
        for g1 in range(g + 1):
            g2 = g - g1
            for K1, K2, rho in iter_partitions(K):
                if len(K1) % 2 or not (g1 or J1 or K1) or \
                        not (g2 or J2 or K2):
                    continue
                if solver.eval_lower(g1, J1, K1, False) is None or \
                        solver.eval_lower(g2, J2, K2, False) is None:
                    continue
                yield g1, J1, K1, g2, J2, K2, rho * mult


def factor_keys(solver):
    """id of each memoized lower factor -> its (g, bos, fer)."""
    return {id(rows): key[:3] for key, rows in solver._factors.items()}


@pytest.mark.parametrize("make, chi_max", CUT_CASES, ids=CUT_IDS)
def test_each_assembly_is_the_sum_of_its_mirrored_terms(make, chi_max):
    """Every quadratic series equals the sum, term by term, of x.sigma(y)
    for (B, B), over both orders of each split, x.sigma(y) + sigma(x).y for
    (B, F) and (1/2)(x'.sigma(y) + sigma(x').y) for (F, F), from uncut
    factors: adding the mirrored half as one sigma-image changes no
    assembly."""
    solver = TrSolver(make(), chi_max)
    solver.run()
    ring = solver.ring
    half = ring.rational(Fraction(1, 2))
    keys = factor_keys(solver)
    kinds = set()
    for g, J, K, fermionic in list(solver._columns):
        pairs = ((False, True),) if fermionic else ((False, False),
                                                    (True, True))
        want = FormalSeries.zero(ring, min(solver.bases.trunc,
                                           solver.kernel.top),
                                 1 if fermionic else 2, int(fermionic))
        if g == 1 and not J and not K and not fermionic:
            want = want + solver.bases.f0_diagonal
        for pair in pairs:
            for first, _, x, y, weight in solver._factor_pairs(g, J, K,
                                                               (pair,)):
                if pair == (False, False) and id(x) in keys:
                    continue  # a (B, B) split: summed in both orders below
                x, y = as_series(ring, x, first), as_series(ring, y, pair[1])
                if first:
                    x, weight = x.derive(), half * weight
                term = x * y.sigma()
                if pair != (False, False):
                    term = term + x.sigma() * y
                want = want + term.scale(weight)
        if not fermionic:
            for g1, J1, K1, g2, J2, K2, weight in ordered_bb_splits(
                    solver, g, J, K):
                x = as_series(ring, solver.eval_lower(g1, J1, K1, False),
                              False)
                y = as_series(ring, solver.eval_lower(g2, J2, K2, False),
                              False)
                want = want + (x * y.sigma()).scale(weight)
        got = as_series(ring, solver._assemble(g, J, K, fermionic),
                        fermionic)
        assert got == want, (g, J, K, fermionic)
        assert (got.trunc, got.min_exp) == (want.trunc, want.min_exp)
        kinds.add(fermionic)
    assert kinds == {False, True}


@pytest.mark.parametrize("make, chi_max", CUT_CASES, ids=CUT_IDS)
def test_bb_splits_are_listed_once_per_swap(make, chi_max):
    """The (B, B) split terms of each assembly, a mirrored one together
    with its swap, are exactly the ordered splits, weights included, and
    at least one split is listed once for two."""
    solver = TrSolver(make(), chi_max)
    solver.run()
    keys = factor_keys(solver)
    halved = 0
    for g, J, K, fermionic in list(solver._columns):
        if fermionic:
            continue
        listed = Counter()
        for _, mirrored, x, y, weight in solver._factor_pairs(
                g, J, K, ((False, False),)):
            if id(x) not in keys:
                assert not mirrored
                continue  # an F_{g-1} term
            first, second = keys[id(x)], keys[id(y)]
            listed[first + second + (weight,)] += 1
            if mirrored:
                assert first < second
                listed[second + first + (weight,)] += 1
                halved += 1
            else:
                assert first == second
        assert listed == Counter(ordered_bb_splits(solver, g, J, K)), \
            (g, J, K)
    assert halved


def test_mirrored_terms_are_summed_at_one_parity(monkeypatch):
    """A mirrored term m + sigma(m), for (B, F), (F, F) and the lower of
    a swapped pair of (B, B) splits, vanishes at the exponents of the
    other parity than the assembly's dz weight: each assembly makes one
    `mul_into` call per coefficient pair of a plain term, and per pair
    of a mirrored term at that parity only, below its truncation."""
    solver = TrSolver(rich_curve(), 5)
    solver.run()
    calls = [0]
    counted = trengine.mul_into

    def counting(*args):
        calls[0] += 1
        counted(*args)

    monkeypatch.setattr(trengine, "mul_into", counting)
    kept = skipped = 0
    for g, J, K, fermionic in list(solver._columns):
        pairs = ((False, True),) if fermionic else ((False, False),
                                                    (True, True))
        dz_weight = 1 if fermionic else 2
        calls[0] = 0
        trunc = solver._assemble(g, J, K, fermionic)[1]
        made = calls[0]
        want = 0
        for first, mirrored, x, y, _ in solver._factor_pairs(g, J, K,
                                                             pairs):
            x = as_series(RING, x, first)
            y = as_series(RING, y, dict(pairs)[first])
            if first:
                x = x.derive()
            odd = x.theta and y.theta
            for k1 in x.coeffs:
                for k2 in y.coeffs:
                    k = k1 + k2 + odd
                    if k > trunc:
                        continue
                    if not (first or mirrored):
                        want += 1
                    elif (k - dz_weight) % 2:
                        skipped += 1
                    else:
                        want += 1
                        kept += 1
        assert made == want, (g, J, K, fermionic)
    assert kept and skipped


def test_assembly_stops_at_the_kernel_top():
    solver = TrSolver(rich_curve(), 5)
    solver.run()
    top = solver.kernel.top
    assert top == 0  # -2 plus the epsilon - 1 pole order of 1/delta-omega
    for g, J, K, fermionic in ((1, (), (), False), (0, (1,), (0,), True)):
        q = as_series(RING, solver._assemble(g, J, K, fermionic), fermionic)
        assert q.trunc == top and q.coeffs


def airy_kernel():
    return KernelWeights(CurveBases(airy_curve()))


def test_extraction_refuses_a_series_cut_below_the_top():
    kernel = airy_kernel()
    low = FormalSeries(RING, {-2: rat(1)}, kernel.top - 1, 2, 0)
    with pytest.raises(TruncationError):
        kernel.extract_bosonic(as_raw(low, False), 5)
    # the same series known through top is read
    at_top = FormalSeries(RING, {-2: rat(1)}, kernel.top, 2, 0)
    assert kernel.extract_bosonic(as_raw(at_top, False), 5) == {3: rat("1/2")}


def test_extraction_refuses_an_index_past_the_bound():
    kernel = airy_kernel()
    q = FormalSeries(RING, {-2: rat(1)}, kernel.top, 2, 0)
    with pytest.raises(IndexBoundError):
        kernel.extract_bosonic(as_raw(q, False), 1)


def test_extraction_refuses_an_index_of_the_wrong_parity():
    # on airy a z^e weight-(2, 0) series extracts to index 1 - e, and so
    # does a z^e weight-(1, 1) one: z^-1 dz^2 reaches the even index 2,
    # and z^-2 T dz the odd index 3
    kernel = airy_kernel()
    bosonic = FormalSeries(RING, {-1: rat(1)}, kernel.top, 2, 0)
    with pytest.raises(ParityError, match="index 2"):
        kernel.extract_bosonic(as_raw(bosonic, False), 5)
    fermionic = FormalSeries(RING, {-2: rat(1)}, kernel.top, 1, 1)
    with pytest.raises(ParityError, match="index 3"):
        kernel.extract_fermionic(as_raw(fermionic, True), 5)
    # the neighbouring exponent lands each on its own parity
    assert kernel.extract_bosonic(as_raw(
        FormalSeries(RING, {-2: rat(1)}, kernel.top, 2, 0), False), 5) == \
        {3: rat("1/2")}
    assert kernel.extract_fermionic(as_raw(
        FormalSeries(RING, {-1: rat(1)}, kernel.top, 1, 1), True), 5) == \
        {2: rat("1/2")}
