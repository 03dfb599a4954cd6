"""Operator-algebra verifier tests.

Mode actions are pinned by closed-form values, the commutation relations
are checked pointwise on a spanning set of monomials, and the recombined
operators' degree-one normalization is verified on curves of both parity
types, with a corrupted-polarization negative control. The quadratic modes,
which sum only over the pair labels that act on the polynomial's support,
are checked against fixed-window reference loops.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations)

import pytest

import superrec
from superrec import svir
from superrec.curve import CurveData
from superrec.scalars import Ring
from superrec.svir import (CapExceeded, FockPoly, ShiftData,
                           annihilation_report, apply_mode, check_airy_axioms,
                           check_commutator, check_heisenberg_clifford)
from superrec.trengine import run_tr

RING = Ring([])
CAP = 20


def rat(value):
    return RING.rational(Fraction(value))


def mono(bos=(), fer=(), hpow=0, coeff=1):
    return FockPoly.monomial(RING, CAP, bos, fer, hpow, coeff)


def airy_curve():
    return CurveData(RING, 3, {3: rat(1)}, {}, {}, {}, 26)


def rich_curve(lead=1):
    return CurveData(
        RING, 3,
        {3: rat(lead), 5: rat("2/3"), 4: rat("1/2")},
        {(1, 1): rat("1/2"), (1, 2): rat(-3), (2, 2): rat("1/5")},
        {1: rat(2), 2: rat("-1/3")},
        {(1, 2): rat("1/7"), (2, 3): rat(4)},
        30)


def irregular_curve(lead=1):
    return CurveData(
        RING, 1,
        {1: rat(lead), 2: rat("1/2"), 3: rat("-1/3")},
        {(1, 1): rat(1), (1, 3): rat("2/7")},
        {1: rat("-1/2"), 3: rat(1)},
        {(1, 2): rat(3)},
        30)


def monomials(max_degree=6, max_index=3, max_bos=3, max_fer=3):
    """Monomials of bounded degree over bounded variable indices."""
    bos_pool = range(1, max_index + 1)
    fer_pool = range(0, max_index + 1)
    out = []
    for nb in range(max_bos + 1):
        for bos in combinations_with_replacement(bos_pool, nb):
            for nf in range(min(max_fer, max_degree - nb) + 1):
                if nb + nf > max_degree:
                    continue
                for fer in combinations(fer_pool, nf):
                    out.append(mono(bos, fer))
    return out


def _fresh(p):
    """An equal polynomial that holds no images yet."""
    return FockPoly(p.ring, p.cap, p.terms)


# --- elementary actions -------------------------------------------------------


def test_pinned_mode_values():
    one = FockPoly.one(RING, CAP)
    assert apply_mode("Gamma", 0, one) == mono(fer=(0,), coeff=Fraction(1, 2))
    assert apply_mode("L", 0, one) == mono(hpow=1, coeff=Fraction(1, 4))
    assert apply_mode("J", 0, one).is_zero()
    assert apply_mode("J", -2, one) == mono(bos=(2,), coeff=2)
    assert apply_mode("Gamma", -3, one) == mono(fer=(3,))
    assert apply_mode("J", 2, mono(bos=(2, 2))) == \
        mono(bos=(2,), hpow=1, coeff=2)
    # left Grassmann derivative: sign from the position of the factor
    assert apply_mode("Gamma", 2, mono(fer=(0, 2))) == \
        mono(fer=(0,), hpow=1, coeff=-1)
    # annihilation beyond the monomial support vanishes
    assert apply_mode("J", 7, mono(bos=(1,))).is_zero()


def test_theta_ordering_signs():
    # theta^2 * theta^0 = -theta^0 theta^2
    p = mono(fer=(2,)).mul_theta(0)
    assert p == mono(fer=(0, 2))
    q = mono(fer=(0,)).mul_theta(2)
    assert q == mono(fer=(0, 2), coeff=-1)
    assert mono(fer=(1,)).mul_theta(1).is_zero()


def test_theta_order_is_read_the_same_everywhere():
    # monomial and component take the theta factors in the order written,
    # as chained mul_theta builds them: theta^2 theta^0 = -theta^0 theta^2
    assert mono(fer=(2, 0)) == -mono(fer=(0, 2))
    for size in range(5):
        for fer in permutations((0, 1, 3, 4), size):
            written = FockPoly.one(RING, CAP)
            for a in reversed(fer):
                written = written.mul_theta(a)
            inversions = sum(a > b for i, a in enumerate(fer)
                             for b in fer[i + 1:])
            sign = (-1) ** inversions
            assert mono(fer=fer) == written, fer
            assert written == mono(fer=sorted(fer), coeff=sign), fer
            assert written.component(fer=fer) == RING.one(), fer
            assert written.component(fer=sorted(fer)) == rat(sign), fer
    for fer in ((1, 1), (0, 2, 0), (3, 1, 4, 1)):
        with pytest.raises(ValueError, match="repeated theta"):
            mono(fer=fer)


def test_cap_exceeded_only_for_live_creators():
    small = FockPoly.monomial(RING, 2, bos=(1,))
    with pytest.raises(CapExceeded):
        small.mul_x(3)
    # L_{-2} on a cap-2 polynomial needs creators of index <= 2 only
    assert not apply_mode("L", -2, FockPoly.one(RING, 2)).is_zero()
    # a creator paired with a vanishing annihilator is never built: this
    # would overflow the cap-2 space only if some J_{k>2} acted nonzero
    apply_mode("L", 0, FockPoly.monomial(RING, 2, bos=(2,)))


def test_invalid_inputs_raise_under_optimized_python():
    # these checks guard public inputs, so they must not be asserts, which
    # `python -O` strips
    src = os.path.dirname(os.path.dirname(os.path.abspath(superrec.__file__)))
    code = """
from superrec.scalars import Ring
from superrec.svir import FockPoly, apply_mode
one = FockPoly.one(Ring([]), 4)
for make in (lambda: apply_mode("L", 3, one), lambda: apply_mode("G", 2, one),
             lambda: apply_mode("Q", 1, one),
             lambda: FockPoly.monomial(Ring([]), 4, fer=(1, 1)),
             lambda: FockPoly.monomial(Ring([]), 4, bos=(0,))):
    try:
        make()
    except ValueError as exc:
        print("ValueError:", exc)
    else:
        print("accepted")
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("ValueError: ")
                                   for line in lines), lines


# --- the pair sums act only where the polynomial has support ------------------
#
# The fixed-window loops below are the reference: they apply every pair label
# within cap + 2|n| + 3 (+ the shift's largest index) of zero, whatever the
# polynomial holds.


def _window(p, n, shift):
    reach = p.cap + 2 * abs(n) + 3
    if shift is not None:
        reach += shift.max_index
    return range(-reach, reach + 1)


def _window_sum(p, pairs, shift):
    out = FockPoly(p.ring, p.cap)
    for kind1, i1, kind2, i2, weight in pairs:
        if weight:
            out = out + svir._apply_pair(kind1, i1, kind2, i2, p,
                                         shift).scale(weight)
    return out


def window_L(n, p, shift):
    half = Fraction(1, 2)
    out = _window_sum(p, [("J", -j, "J", 2 * n + j, half if j % 2 else -half)
                          for j in _window(p, n, shift)], shift)
    out = out + _window_sum(
        p, [("Gamma", -j, "Gamma", j + 2 * n,
             Fraction(n + j, 2) * (1 if j % 2 == 0 else -1))
            for j in _window(p, n, shift)], shift)
    if n == 0:
        out = out + p.mul_hbar().scale(Fraction(1, 4))
    return out


def window_G(m, p, shift):
    return _window_sum(p, [("J", -j, "Gamma", j + 2 * m + 1,
                            1 if j % 2 else -1)
                           for j in _window(p, m, shift)], shift)


def window_rhs_LL(n, m, p, shift):
    if n == m:
        return FockPoly(p.ring, p.cap)
    total = 2 * n + 2 * m
    window = _window(p, abs(n) + abs(m), shift)
    out = window_L(total // 2, p, shift)
    out = out + _window_sum(
        p, [("J", -2 * j, "J", total + 2 * j, 1) for j in window], shift)
    out = out + _window_sum(
        p, [("Gamma", -2 * j - 1, "Gamma", 2 * j + total + 1,
             n + m + 2 * j + 1) for j in window], shift)
    return out.mul_hbar().scale(2 * (n - m))


def window_rhs_LG(n, m, p, shift):
    if n - 2 * m - 1 == 0:
        return FockPoly(p.ring, p.cap)
    window = _window(p, abs(n) + abs(m), shift)
    out = window_G(n + m, p, shift) + _window_sum(
        p, [("J", -2 * j, "Gamma", 2 * n + 2 * m + 2 * j + 1, 2)
            for j in window], shift)
    return out.mul_hbar().scale(n - 2 * m - 1)


def window_rhs_GG(n, m, p, shift):
    window = _window(p, abs(n) + abs(m) + 1, shift)
    out = window_L(n + m + 1, p, shift)
    out = out + _window_sum(
        p, [("J", -2 * j, "J", 2 * n + 2 * m + 2 * j + 2, 1)
            for j in window], shift)
    out = out + _window_sum(
        p, [("Gamma", -2 * j - 1, "Gamma", 2 * j + 2 * n + 2 * m + 3,
             n + m + 2 * j + 2) for j in window], shift)
    return out.mul_hbar().scale(2)


LABELS = range(-1, 4)


def window_samples():
    """The reference loops take about 0.3 s per sample on one curve, so the
    equivalence runs on every 11th sample (all supports of degree <= 6 over
    x^1..x^3, theta^0..theta^3 in kind) and one polynomial of two terms."""
    return monomials()[::11] + [mono((1, 1), (2,)) + mono((3,), (0, 1))]


RHS = [(svir._rhs_LL, window_rhs_LL), (svir._rhs_LG, window_rhs_LG),
       (svir._rhs_GG, window_rhs_GG)]


@pytest.mark.parametrize(
    "curve", [None, airy_curve(), rich_curve(), irregular_curve()],
    ids=["unshifted", "airy", "rich", "irregular"])
def test_support_sums_equal_window_sums(curve):
    shift = None if curve is None else ShiftData.from_curve(curve)
    for p in window_samples():
        for n in LABELS:
            assert apply_mode("L", 2 * n, p, shift) == \
                window_L(n, p, shift), ("L", n, p.terms)
            assert apply_mode("G", 2 * n + 1, p, shift) == \
                window_G(n, p, shift), ("G", n, p.terms)
            for m in LABELS:
                for fast, window in RHS:
                    assert fast(n, m, p, shift) == window(n, m, p, shift), \
                        (fast.__name__, n, m, p.terms)


def test_pairs_apply_only_annihilators_in_support(monkeypatch):
    # every positive J_a / Gamma_a a pair sum applies finds x^a / theta^a
    # in the polynomial, so no label window can come back unnoticed
    calls = []
    inner = svir._apply_pair

    def checked(kind1, i1, kind2, i2, p, shift):
        calls.append(1)
        held = {"J": {a for key in p.terms for a in key[0]},
                "Gamma": {a for key in p.terms for a in key[1]}}
        for kind, index in ((kind1, i1), (kind2, i2)):
            assert index <= 0 or index in held[kind], \
                (kind1, i1, kind2, i2, p.terms)
        return inner(kind1, i1, kind2, i2, p, shift)

    monkeypatch.setattr(svir, "_apply_pair", checked)
    for curve in (None, rich_curve()):
        shift = None if curve is None else ShiftData.from_curve(curve)
        for p in monomials()[::7]:
            for n in LABELS:
                apply_mode("L", 2 * n, p, shift)
                apply_mode("G", 2 * n + 1, p, shift)
                for m in LABELS:
                    for fast, _ in RHS:
                        fast(n, m, p, shift)
    assert calls


# --- each L/G image of a polynomial is computed once --------------------------

MODES = [(kind, 2 * n + (kind == "G")) for n in LABELS for kind in "LG"]


def test_mode_images_are_keyed_by_shift():
    # two different shift objects, both with phi and psi, whose images
    # differ from each other and from the unshifted ones: an image stored
    # without its shift would be handed back for the wrong one
    shifts = [None, ShiftData.from_curve(rich_curve()),
              ShiftData.from_curve(irregular_curve())]
    p = mono((1, 2), (0, 1)) + mono((3,), (2,))
    for shift in shifts + [None]:
        for kind, label in MODES:
            got = apply_mode(kind, label, p, shift)
            assert got == apply_mode(kind, label, _fresh(p), shift), \
                (kind, label, shift)
            assert apply_mode(kind, label, p, shift) is got
    distinct = [(kind, label) for kind, label in MODES
                if len({frozenset(apply_mode(kind, label, _fresh(p),
                                             shift).terms.items())
                        for shift in shifts}) == 3]
    assert distinct


def test_shared_images_are_not_changed_by_their_users():
    shift = ShiftData.from_curve(rich_curve())
    p = mono((1, 2), (0, 1)) + mono((3,), (2,))
    for kind, label in MODES:
        image = apply_mode(kind, label, p, shift)
        want = apply_mode(kind, label, _fresh(p), shift)
        image + p
        image - image
        image.scale(3)
        image.mul_hbar()
        second = apply_mode("L", 0, image, shift)
        assert second == apply_mode("L", 0, _fresh(want), shift)
        assert apply_mode("L", 0, image, shift) is second
        apply_mode(kind, label, image, shift).scale(-1)
        assert apply_mode(kind, label, p, shift) is image
        assert image == want, (kind, label)


# --- algebra relations --------------------------------------------------------


@pytest.mark.parametrize("a", range(-3, 4))
@pytest.mark.parametrize("b", range(-3, 4))
def test_heisenberg_clifford(a, b):
    for p in monomials():
        assert check_heisenberg_clifford(a, b, p), (a, b, p.terms)


@pytest.mark.parametrize("relation", ["comm1", "comm2"])
def test_linear_commutators(relation):
    # one sample at a time, so that the L/G images it keeps are shared by
    # every label and dropped with it
    for p in monomials():
        for n in range(-1, 4):
            for i in range(1, 4):
                assert check_commutator(relation, n, i, p), \
                    (relation, n, i, p.terms)


@pytest.mark.parametrize("relation", ["comm3", "comm4", "comm5"])
def test_quadratic_commutators(relation):
    # one sample at a time, as in test_linear_commutators
    for p in monomials():
        for n in range(-1, 4):
            for m in range(-1, 4):
                if relation != "comm4" and m < n:
                    continue  # (anti)symmetric in (n, m)
                assert check_commutator(relation, n, m, p), \
                    (relation, n, m, p.terms)


class Routed(Exception):
    """Raised by the stand-in for a quadratic mode."""


def test_checks_look_up_quadratic_modes_when_called(monkeypatch):
    # the benchmark counts quadratic mode applications by wrapping
    # svir._apply_L and svir._apply_G, so a check that captured these
    # functions earlier would go uncounted
    def stand_in(*_args):
        raise Routed

    monkeypatch.setattr(svir, "_apply_L", stand_in)
    monkeypatch.setattr(svir, "_apply_G", stand_in)
    p = mono(bos=(1,), fer=(0,))
    for relation in ("comm1", "comm2", "comm3", "comm4", "comm5"):
        with pytest.raises(Routed):
            check_commutator(relation, 0, 1, p)
    assert check_heisenberg_clifford(1, -1, p)
    with pytest.raises(Routed):
        check_airy_axioms(ShiftData.from_curve(airy_curve()), i_max=1,
                          probe_max=2)


# --- shifted operators and structure axioms ------------------------------------


@pytest.mark.parametrize("curve, phi, psi, max_index", [
    (rich_curve(),
     {(1, 1): "1/2", (1, 2): "-3", (2, 1): "-3", (2, 2): "1/5"},
     {(0, 1): "2", (0, 2): "-1/3", (1, 0): "-2", (1, 1): "-2", (1, 2): "1/7",
      (2, 0): "1/3", (2, 1): "11/21", (2, 2): "-1/18", (2, 3): "4",
      (3, 2): "-4"},
     5),
    (irregular_curve(),
     {(1, 1): "1", (1, 3): "2/7", (3, 1): "2/7"},
     {(0, 1): "-1/2", (0, 3): "1", (1, 0): "1/2", (1, 1): "-1/8",
      (1, 2): "3", (2, 1): "-3", (3, 0): "-1", (3, 1): "1/2", (3, 3): "-1/2"},
     3)], ids=["rich", "irregular"])
def test_shift_tables_are_pinned(curve, phi, psi, max_index):
    # max_index is the largest index of tau, phi and psi
    shift = ShiftData.from_curve(curve)
    assert shift.phi == {key: rat(v) for key, v in phi.items()}
    assert shift.psi == {key: rat(v) for key, v in psi.items()}
    assert shift.max_index == max_index


def test_phi_shift_expands_negative_modes():
    shift = ShiftData.from_curve(rich_curve())
    one = FockPoly.one(RING, CAP)
    # J_{-3} + tau_3 + sum_k phi_{3k}/k J_k ; phi_3k = 0 here
    assert apply_mode("J", -3, one, shift) == mono(bos=(3,), coeff=3) + one
    got = apply_mode("J", -1, mono(bos=(2,)), shift)
    want = mono(bos=(1, 2)) \
        + mono(hpow=1, coeff=Fraction(-3, 2))  # phi_{12}/2 * hbar d/dx^2
    assert got == want
    # positive modes are never shifted
    assert apply_mode("J", 2, mono(bos=(2,)), shift) == mono(hpow=1)


def test_gamma_zero_mode_shift():
    shift = ShiftData.from_curve(rich_curve())
    # Gamma_0 + sum_k psi_{k0} Gamma_k, with psi_{k0} = -psi0_k
    got = apply_mode("Gamma", 0, mono(fer=(1,)), shift)
    want = mono(fer=(0, 1), coeff=Fraction(1, 2)) \
        + mono(hpow=1, coeff=-2)  # psi_{10} Gamma_1 = -2 * hbar d/theta^1
    assert got == want


@pytest.mark.parametrize(
    "curve,i_max", [(airy_curve(), 4), (rich_curve(), 3),
                    (irregular_curve(), 3), (rich_curve(lead=2), 3),
                    (irregular_curve(lead="-1/3"), 3)],
    ids=["airy", "rich", "irregular", "rich-lead-2", "irregular-lead-1/3"])
def test_airy_axioms_pass(curve, i_max):
    # the last two have a leading dilaton coefficient tau_eps != 1, which
    # the recombination divides out
    assert check_airy_axioms(ShiftData.from_curve(curve), i_max=i_max,
                             probe_max=6) == []


def test_airy_axioms_negative_control():
    # an asymmetric polarization table is not a valid conjugation and must
    # be reported as a closure failure
    bad = ShiftData(RING, 3, {3: rat(1)}, {(1, 2): rat(1)}, {})
    report = check_airy_axioms(bad, i_max=2, probe_max=4)
    assert any(name.startswith("closure") for name, _, _ in report)


def test_degree_one_probe_detects_wrong_dilaton():
    # dropping the even dilaton coefficient breaks the degree-one shape
    bad = ShiftData(RING, 3, {3: rat(1), 2: rat(1)}, {}, {})
    good = ShiftData(RING, 3, {3: rat(1)}, {}, {})
    assert check_airy_axioms(good, i_max=2, probe_max=4) == []
    report = check_airy_axioms(bad, i_max=2, probe_max=4)
    assert report == []  # tau_2 is handled by the recombination
    # but a corrupted psi table (breaking psi_{kk} completion) fails
    worse = ShiftData(RING, 3, {3: rat(1)}, {}, {(0, 1): rat(1)})
    assert check_airy_axioms(worse, i_max=2, probe_max=4) != []


# --- partition-function annihilation oracle -------------------------------------


@pytest.mark.parametrize(
    "curve,chi_max", [(airy_curve(), 6), (rich_curve(), 5),
                      (irregular_curve(), 5)],
    ids=["airy", "rich", "irregular"])
def test_constraints_annihilate_engine_state(curve, chi_max):
    assert annihilation_report(curve, run_tr(curve, chi_max)) == {}


def test_annihilation_detects_corrupted_entry():
    curve = airy_curve()
    tensor = run_tr(curve, 6)
    key = (0, (1, 1, 1), ())
    tensor.entries[key] = tensor.entries[key] + RING.one()
    assert annihilation_report(curve, tensor) != {}
