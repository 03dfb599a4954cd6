"""End-to-end acceptance tests: one test and one printed verdict line per
shipped guarantee.

Each test prints exactly one line "criterion N: PASS/FAIL (...)" (visible
with -s or in captured output) and then asserts the verdict. Shared engine
runs are cached at module level so the criteria can reuse each other's
tensors without recomputation.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, \
    permutations

import pytest

from superrec.airyengine import run_airy, run_bosonic
from superrec.curve import CurveBases, CurveData, pairing_B, pairing_F
from superrec.scalars import Ring
from superrec.series import FormalSeries
from superrec.store import index_bound
from superrec.svir import (FockPoly, check_airy_axioms, check_commutator,
                           check_heisenberg_clifford)
from superrec.trengine import TrSolver, run_tr
from superrec.zoo import ZooSpec, zoo_build, zoo_validate
from test_svir import annihilation_report, exp_state

RING = Ring([])


def rat(value):
    return RING.rational(Fraction(value))


def report(number, failures, detail):
    """Print the verdict line: the success detail on PASS, the first
    failures on FAIL."""
    first = "; ".join(str(f) for f in failures[:10])
    verdict = f"FAIL ({first})" if failures else f"PASS ({detail})"
    print(f"criterion {number}: {verdict}")
    assert not failures, f"criterion {number}: " + "; ".join(
        str(f) for f in failures[:10])


# --- shared curves and cached engine runs -----------------------------------


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


def random_curve(seed, dilaton_only=False, chi=6):
    """Sparse random curve data; epsilon alternates with the seed."""
    rng = random.Random(seed)

    def value(nonzero=False):
        num = rng.randint(1, 6) if nonzero else rng.randint(-5, 5)
        return rat(Fraction(num if num else 1, rng.randint(1, 4))
                   * rng.choice((1, -1)))

    epsilon = 3 if (seed % 2 == 0 or dilaton_only) else 1
    tau = {epsilon: value(nonzero=True)}
    for _ in range(rng.randint(1, 2)):
        l = rng.randint(epsilon + 1, epsilon + 4)
        tau[l] = value()
    phi, psi0, psiA = {}, {}, {}
    if not dilaton_only:
        for _ in range(rng.randint(1, 2)):
            k, l = sorted((rng.randint(1, 3), rng.randint(1, 3)))
            phi[(k, l)] = value()
        for _ in range(rng.randint(0, 2)):
            psi0[rng.randint(1, 3)] = value()
        if rng.random() < 0.7:
            k = rng.randint(1, 2)
            psiA[(k, rng.randint(k + 1, 3))] = value()
    trunc = index_bound(chi, epsilon) + epsilon + 4
    return CurveData(RING, epsilon, tau, phi, psi0, psiA, trunc)


def zoo_curves_for_engines():
    """The named curves, expanded deep enough for exact chi <= 6 output."""
    return {
        "airy": airy_curve(),
        "bessel": CurveData(RING, 1, {1: rat(1)}, {}, {}, {}, 12),
        "phi11(t=1)": zoo_build(ZooSpec("phi11", trunc=18,
                                        free_params={"t": 1})),
        "ramond(M=1)": zoo_build(ZooSpec("ramond", trunc=28)),
        "ns_plus(M=1)": zoo_build(ZooSpec("ns_plus", trunc=28)),
    }


_TENSORS = {}


def chi6_tensors():
    """(label -> (curve, tensor at chi_max=6)) for the shared test set."""
    if not _TENSORS:
        curves = dict(zoo_curves_for_engines())
        for seed in range(1, 6):
            curves[f"random{seed}"] = random_curve(seed)
        for label, curve in curves.items():
            _TENSORS[label] = (curve, run_tr(curve, 6))
    return _TENSORS


# --- criteria ----------------------------------------------------------------


def test_criterion_1_closed_form_chi3():
    start = time.monotonic()
    tensor = run_tr(airy_curve(trunc=10), 3)
    elapsed = time.monotonic() - start
    failures = []
    if tensor.get(0, (1, 1, 1), ()) != rat(-1):
        failures.append("F(0;1,1,1|) != -1")
    if tensor.get(0, (1,), (2, 0)) != rat("-1/2"):
        failures.append("F(0;1|2,0) != -1/2")
    chi3 = {key for key in tensor.entries
            if 2 * key[0] + len(key[1]) + len(key[2]) == 3}
    extra = chi3 - {(0, (1, 1, 1), ()), (0, (1,), (0, 2)), (1, (3,), ())}
    # the genus-one dilaton entry belongs to the chi=3 level as well
    if tensor.get(1, (3,), ()) != rat("-1/4"):
        failures.append("F(1;3|) != -1/4")
    if extra:
        failures.append(f"unexpected chi=3 entries {extra}")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s >= 1s")
    report(1, failures, f"chi=3 closed forms exact in {elapsed:.3f}s")


def test_criterion_2_bosonic_free_coefficient():
    ring = Ring([("t", None)])
    t = ring.symbol("t")
    curve = CurveData(ring, 3, {3: ring.one()}, {(1, 1): t}, {}, {}, 24)
    start = time.monotonic()
    tensor = run_tr(curve, 8)
    elapsed = time.monotonic() - start
    failures = []
    sector = {key: val for key, val in tensor.entries.items()
              if key[0] == 2 and not key[1] and len(key[2]) == 4}
    if set(sector) != {(2, (), (0, 2, 4, 6))}:
        failures.append(f"sector support is {sorted(sector)}, expected "
                        "exactly the orbit of fermionic indices (0,2,4,6)")
    value = tensor.get(2, (), (0, 2, 4, 6))
    # full antisymmetry under slot exchange, e.g. one transposition
    if tensor.get(2, (), (2, 0, 4, 6)) != -value:
        failures.append("value not antisymmetric under slot exchange")
    cubed = t * t * t
    if value != cubed * ring.rational(Fraction(15, 8)):
        failures.append(f"value {value} is not 15/8 times the cube of the "
                        "coupling")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s >= 5min")
    # The annihilation oracle of test_svir.py settles the coefficient
    # without either engine: the recombined L and G constraints for
    # i = 1..4 annihilate exp of the engine tensor through degree
    # chi_max - 2. Substituting a coefficient c * t^3 for this entry leaves
    # exactly three residuals, all at hbar^2 and each (15/8 - c) * t^3 up
    # to sign: on theta0 theta4 theta6 in G_{-1}, theta0 theta2 theta6 in
    # G_1 and theta0 theta2 theta4 in G_3. So 15/8 is the only value the
    # constraints allow, and the unit coefficient c = 1 is checked here as
    # false, with residuals of 7/8 * t^3. PAPER.md holds only the abstract;
    # whether the paper states 1 under another normalisation of the
    # fermionic modes cannot be settled from this repository.
    maxdeg = tensor.chi_max - 2
    residuals = annihilation_report(curve, exp_state(tensor, ring, maxdeg),
                                    maxdeg)
    if residuals:
        failures.append(f"constraints leave residuals {residuals} on the "
                        "engine state")
    tensor.set(2, (), (0, 2, 4, 6), cubed)
    residual = cubed * ring.rational(Fraction(7, 8))
    expected = {("G", -1): {((), (0, 4, 6), 2): residual},
                ("G", 1): {((), (0, 2, 6), 2): -residual},
                ("G", 3): {((), (0, 2, 4), 2): residual}}
    residuals = annihilation_report(curve, exp_state(tensor, ring, maxdeg),
                                    maxdeg)
    if residuals != expected:
        failures.append(f"unit coefficient leaves residuals {residuals}, "
                        "expected exactly +-7/8*t^3 on G_-1, G_1 and G_3")
    report(2, failures,
           f"support/antisymmetry/value 15/8*t^3 exact in {elapsed:.0f}s; "
           "oracle annihilates it and rejects the unit coefficient")


def test_criterion_3_engine_equivalence():
    failures = []
    details = []
    for label, (curve, tensor) in chi6_tensors().items():
        start = time.monotonic()
        other = run_airy(curve, 6)
        elapsed = time.monotonic() - start
        if not tensor.nonzero_equal(other):
            failures.append(f"{label}: engines disagree")
        if elapsed >= 300:
            failures.append(f"{label}: {elapsed:.0f}s >= 5min")
        details.append(f"{label} {elapsed:.0f}s")
    epsilons = {curve.epsilon for curve, _ in chi6_tensors().values()}
    if epsilons != {1, 3}:
        failures.append("random curves must cover both epsilon values")
    report(3, failures,
           f"{len(chi6_tensors())} curves identical at chi<=6: "
           + ", ".join(details))


def test_criterion_4_both_routes():
    failures = []
    checked = 0
    for curve in (airy_curve(), rich_curve(), irregular_curve(),
                  random_curve(2)):
        solver = TrSolver(curve, 6)
        tensor = solver.run()
        for (g, bos, fer) in tensor.sorted_keys():
            if not bos or not fer:
                continue
            stored = tensor.get(g, bos, fer)
            if solver.bosonic_value(g, bos, fer, 0) != stored:
                failures.append(f"bosonic route differs at {(g, bos, fer)}")
            if solver.fermionic_value(g, bos, fer) != stored:
                failures.append(f"fermionic route differs at {(g, bos, fer)}")
            checked += 1
    if checked == 0:
        failures.append("no mixed entries exercised")
    report(4, failures, f"both routes agree on {checked} mixed entries")


def test_criterion_5_vanishing():
    failures = []
    for label, (curve, tensor) in chi6_tensors().items():
        for key in tensor.entries:
            g, bos, fer = key
            if (g, len(bos), len(fer)) in ((0, 0, 4), (0, 1, 4), (0, 0, 6)):
                failures.append(f"{label}: nonzero entry at {key}")
    dilaton_curves = [airy_curve(trunc=20), random_curve(11, True, chi=7),
                      random_curve(12, True, chi=7)]
    for curve in dilaton_curves:
        assert curve.epsilon == 3 and not curve.phi and not curve.psi0 \
            and not curve.psiA
        tensor = run_tr(curve, 7)
        for key in tensor.entries:
            if len(key[2]) >= 4:
                failures.append(
                    f"zero-polarization curve has nonzero entry {key}")
    report(5, failures,
           "genus-zero few-boson multi-fermion sectors and the m>=2 "
           "sectors of zero-polarization curves vanish through chi=7")


def test_criterion_6_genus_weighted_reduction():
    failures = []
    checked = 0
    for seed in (21, 22, 23):
        curve = random_curve(seed, dilaton_only=True)
        full = run_tr(curve, 6)
        bosonic = run_bosonic(curve, 6)
        keys = {key for key in full.entries if not key[2]} \
            | set(bosonic.entries)
        for (g, bos, fer) in keys:
            if fer or g > 2:
                continue
            want = bosonic.get(g, bos, ()) * rat(2 ** g)
            if full.get(g, bos, ()) != want:
                failures.append(f"seed {seed}: mismatch at {(g, bos)}")
            checked += 1
    if checked == 0:
        failures.append("no purely bosonic entries exercised")
    report(6, failures,
           f"fermion-free sectors equal 2^g times the bosonic-only "
           f"solver on {checked} entries across 3 random dilaton shifts")


def test_criterion_7_operator_algebra():
    start = time.monotonic()
    cap = 20
    samples = []
    for nb in range(4):
        for bos in combinations_with_replacement(range(1, 4), nb):
            for nf in range(min(3, 6 - nb) + 1):
                for fer in combinations(range(0, 4), nf):
                    samples.append(FockPoly.monomial(RING, cap, bos, fer))
    failures = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            if not all(check_heisenberg_clifford(a, b, p) for p in samples):
                failures.append(f"heisenberg-clifford at {(a, b)}")
    for relation in ("comm1", "comm2", "comm3", "comm4", "comm5"):
        for n in range(-1, 4):
            for m in range(-1, 4):
                if not all(check_commutator(relation, n, m, p)
                           for p in samples):
                    failures.append(f"{relation} at {(n, m)}")
    structure = check_airy_axioms(airy_curve(), i_max=4, probe_max=6)
    failures.extend(f"structure {name} at {where}"
                    for name, where, _ in structure)
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.0f}s >= 2min")
    report(7, failures,
           f"all relation families hold on {len(samples)} monomials "
           f"in {elapsed:.0f}s")


def test_criterion_8_structural_invariants():
    failures = []
    bound = index_bound(6)
    curve = rich_curve()
    bases = CurveBases(curve)
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            if k and l:
                want = rat(Fraction(1, k)) if k + l == 0 else RING.zero()
                if pairing_B(bases.dxi(k), bases.dxi(l)) != want:
                    failures.append(f"bosonic pairing at {(k, l)}")
            want = RING.one() if k + l == 0 else RING.zero()
            if pairing_F(bases.eta(k), bases.eta(l)) != want:
                failures.append(f"fermionic pairing at {(k, l)}")

    # projection property on a seeded random one-form: the pole part is
    # reproduced, the holomorphic part is annihilated
    rng = random.Random(8)
    coeffs = {exp: rat(rng.randint(-5, 5)) for exp in range(-6, 5)
              if exp != -1}
    omega = FormalSeries(RING, {k: v for k, v in coeffs.items() if v},
                         bases.trunc, 1, 0)
    projected = FormalSeries.zero(RING, bases.trunc, 1, 0)
    for l in range(1, 10):
        c = pairing_B(bases.dxi_plus(l), omega) * rat(l)
        projected = projected + bases.dxi_minus(l) * c
    expected = FormalSeries.zero(RING, bases.trunc, 1, 0)
    for exp, val in coeffs.items():
        if exp < -1 and val:
            expected = expected + bases.dxi_minus(-exp - 1).scale(val)
    if projected != expected:
        failures.append("bosonic projection property")
    half = rat("1/2")
    target = bases.eta_minus(3).scale(rat(2)) + bases.eta_zero.scale(rat(-3))
    fproj = FormalSeries.zero(RING, bases.trunc, 0, 1)
    for l in range(1, 10):
        fproj = fproj + bases.eta_minus(l).scale(
            pairing_F(bases.eta_plus(l), target))
    fproj = fproj + bases.eta_zero.scale(
        half * pairing_F(bases.eta_zero, target))
    # the pole part is reproduced exactly; the zero mode is halved
    expected_f = bases.eta_minus(3).scale(rat(2)) \
        + bases.eta_zero.scale(rat("-3/2"))
    if fproj != expected_f:
        failures.append("fermionic projection property")

    # output index parity and slot symmetry across the shared tensors
    solver = TrSolver(rich_curve(), 5)
    tensor = solver.run()
    for label, (_, shared) in chi6_tensors().items():
        for (g, bos, fer) in shared.entries:
            if any(b % 2 == 0 for b in bos) or any(f % 2 for f in fer):
                failures.append(f"{label}: index parity at {(g, bos, fer)}")
    sym_checked = 0
    for (g, bos, fer) in tensor.sorted_keys():
        if bos and len(set(bos)) > 1:
            for perm in list(permutations(bos))[:3]:
                if solver.bosonic_value(g, perm, fer, 0) \
                        != tensor.get(g, bos, fer):
                    failures.append(f"slot symmetry at {(g, perm, fer)}")
                sym_checked += 1
        if len(fer) >= 2 and not bos:
            swapped = (fer[1], fer[0]) + fer[2:]
            if solver.fermionic_value(g, bos, swapped) \
                    != -tensor.get(g, bos, fer):
                failures.append(f"antisymmetry at {(g, bos, fer)}")
            sym_checked += 1
    if sym_checked == 0:
        failures.append("no permuted slots exercised")
    report(8, failures,
           f"pairings to index {bound}, projections, parity, and "
           f"{sym_checked} slot permutations all exact")


def test_criterion_9_curve_zoo_identities():
    failures = []
    orders = {}
    for name in ("ns_plus", "ns_minus", "ramond"):
        spec = ZooSpec(name, trunc=44)
        curve = zoo_build(spec)
        order = curve.max_polarization_index() - 1
        orders[name] = order
        if order < 20:
            failures.append(f"{name}: validation order {order} < 20")
        failures.extend(f"{name}: {entry}"
                        for entry in zoo_validate(curve, spec))
    for name in ("airy", "bessel", "phi11"):
        spec = ZooSpec(name, trunc=24)
        failures.extend(f"{name}: {entry}"
                        for entry in zoo_validate(zoo_build(spec), spec))
    spec = ZooSpec("super_jt", trunc=24)
    with pytest.warns(UserWarning):
        curve = zoo_build(spec)
    failures.extend(f"super_jt: {entry}"
                    for entry in zoo_validate(curve, spec))
    report(9, failures,
           "involution identities hold for all named curves; fitted "
           f"curves validated to orders {orders}")
