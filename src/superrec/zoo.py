"""Built-in example curves.

Each generator expands closed-form defining one-forms and bilinear kernels
as truncated (bi)series over an exact symbol ring, peels off the fixed
singular parts and recovers curve data through fit_parameters. The
validation report checks the sign-involution identities of the defining
forms against their closed right-hand sides to truncation order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .biseries import BiSeries
from .curve import CurveData, fit_parameters, psi_regular
from .scalars import Ring, accumulate
from .series import FormalSeries, TruncationError
from .store import index_bound

ZOO_NAMES = ("airy", "bessel", "phi11", "super_jt",
             "ns_plus", "ns_minus", "ramond")
# The curves whose data is fitted from a truncated expansion: their
# polarization is known only inside the rectangle `_fitted_rect` keeps.
FITTED_NAMES = ("ns_plus", "ns_minus", "ramond")

# The least truncation of each curve: tau_epsilon multiplies z^(epsilon - 1),
# so the epsilon-1 curves bessel and super_jt need no more than z^0.
_LEAST_TRUNC = dict.fromkeys(ZOO_NAMES, 2) | {"bessel": 0, "super_jt": 0}


class ExpansionError(Exception):
    """A defining form is not expressible in the scalar ring."""


@dataclass
class ZooSpec:
    name: str
    M_coeffs: tuple = (Fraction(1),)
    trunc: int = 44
    free_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in ZOO_NAMES:
            raise ExpansionError(f"unknown curve name {self.name!r}")
        if self.trunc < _LEAST_TRUNC[self.name]:
            raise ExpansionError(
                f"curve {self.name} needs trunc >= {_LEAST_TRUNC[self.name]}"
                f" to hold its leading dilaton coefficient, not {self.trunc}")
        self.M_coeffs = tuple(Fraction(c) for c in self.M_coeffs)
        if self.name in FITTED_NAMES and not any(self.M_coeffs):
            raise ExpansionError("polynomial weight M must be nonzero")


# --- univariate series helpers -----------------------------------------------


def _uni(ring, coeffs, trunc):
    return FormalSeries(ring, coeffs, trunc, 0, 0)


def _binomial_power(ring, alpha, c, p, trunc):
    """(1 + c z^p)^alpha with rational alpha and c, to z^trunc."""
    coeffs = {}
    binom = Fraction(1)
    k = 0
    while p * k <= trunc:
        val = binom * c ** k
        if val:
            coeffs[p * k] = ring.rational(val)
        binom = binom * (alpha - k) / (k + 1)
        k += 1
    return _uni(ring, coeffs, trunc)


def _poly_at(ring, m_coeffs, x, trunc):
    acc = _uni(ring, {}, trunc)
    for c in reversed(m_coeffs):
        acc = acc * x + _uni(ring, {0: ring.rational(c)}, trunc)
    return acc


def _d_dz(fs):
    coeffs = {k - 1: k * c for k, c in fs.coeffs.items() if k}
    return _uni(fs.ring, coeffs, fs.trunc - 1)


def _embed(fs, var, trunc):
    return BiSeries.from_univariate(fs, var, trunc)


def _z1_plus_z2(ring, trunc):
    one = ring.one()
    return BiSeries(ring, {(1, 0): one, (0, 1): one}, trunc)


# --- generators ----------------------------------------------------------------


def _simple_curve(ring, epsilon, tau, phi, trunc):
    return CurveData(ring, epsilon, tau, phi, {}, {}, trunc)


def _build_super_jt(spec):
    ring = Ring([("sqrt2", 2), ("pi2", None)])
    sqrt2 = ring.symbol("sqrt2")
    pi2 = ring.symbol("pi2")
    tau = {}
    k = 0
    pi2_pow = ring.one()
    # index l multiplies z^(l - 1), so the expansion holds l <= trunc + 1
    while 2 * k + 1 <= spec.trunc + 1:
        coeff = sqrt2 * pi2_pow * ring.rational(
            Fraction((-1) ** k, factorial(2 * k)))
        tau[2 * k + 1] = coeff
        pi2_pow = pi2_pow * pi2
        k += 1
    warnings.warn(
        "the cosine one-form has infinitely many dilaton coefficients; "
        f"keeping indices up to trunc + 1 = {spec.trunc + 1}",
        stacklevel=3)
    return _simple_curve(ring, 1, tau, {}, spec.trunc)


def _expansion_data(spec):
    """(ring, u, omega01, extra) univariate data for the fitted curves."""
    trunc = spec.trunc + 2
    if spec.name == "ns_plus":
        ring = Ring([])
        root = _binomial_power(ring, Fraction(1, 2), Fraction(1, 4), 2, trunc)
        sign = 1
    elif spec.name == "ns_minus":
        ring = Ring([("im", -1)])
        root = _binomial_power(
            ring, Fraction(1, 2), Fraction(-1, 4), 2, trunc) \
            .scale(ring.symbol("im"))
        sign = -1
    else:  # ramond
        ring = Ring([("sqrt2", 2)])
    z = _uni(ring, {1: ring.one()}, trunc)
    zz_half = _uni(ring, {2: ring.rational(Fraction(1, 2))}, trunc)
    if spec.name == "ramond":
        w = _binomial_power(ring, Fraction(-1, 2), Fraction(1, 2), 2, trunc)
        inv_sqrt2 = ring.symbol("sqrt2") * ring.rational(Fraction(1, 2))
        u = (z * w).scale(inv_sqrt2)
        x = _uni(ring, {0: ring.one()}, trunc) + zz_half
        m_at = _poly_at(ring, spec.M_coeffs, x, trunc)
        omega01 = (m_at * z * z * w).scale(inv_sqrt2)
        return ring, u, omega01
    const = _uni(ring, {0: ring.rational(sign)}, trunc)
    u = const + zz_half + z * root
    m_at = _poly_at(ring, spec.M_coeffs, const + zz_half, trunc)
    omega01 = (m_at * root * z * z).scale(ring.rational(Fraction(-1, 2)))
    return ring, u, omega01


def _build_fitted(spec):
    ring, u, omega01 = _expansion_data(spec)
    trunc = spec.trunc
    u1, u2 = _embed(u, 1, trunc), _embed(u, 2, trunc)
    du = _d_dz(u)
    du1, du2 = _embed(du, 1, trunc), _embed(du, 2, trunc)
    s = (u1 - u2).divide_z1_minus_z2()
    p = du1 * du2 / s / s
    one = BiSeries.constant(ring, ring.one(), p.trunc)
    reg02 = (p - one).divide_z1_minus_z2().divide_z1_minus_z2()
    half = ring.rational(Fraction(1, 2))
    if spec.name == "ramond":
        num = _z1_plus_z2(ring, s.trunc) * s \
            - (u1 + u2) * (one - u1 * u2)
        reg002 = (num.divide_z1_minus_z2() / s).scale(half)
    else:
        reg002 = ((one - p).divide_z1_minus_z2()
                  * _z1_plus_z2(ring, p.trunc)).scale(half)
    rect = _fitted_rect(trunc)
    phi_reg = {(i + 1, j + 1): v for (i, j), v in reg02.coeffs.items()
               if i < rect and j < rect}
    psi_reg = {(i + 1, j + 1): v for (i, j), v in reg002.coeffs.items()
               if i < rect and j < rect}
    omega01_form = FormalSeries(
        ring, {k: v for k, v in omega01.coeffs.items() if k <= spec.trunc},
        spec.trunc, 1, 0)
    # psi_{k,l} sits at z1^l z2^k of the fermionic table, so the fit is
    # exact through polarization index rect - 1
    return fit_parameters(ring, 3, omega01_form, phi_reg, psi_reg,
                          spec.trunc, rect - 1)


def _fitted_rect(trunc):
    """The fitted regular tables keep the coefficients of z1^i z2^j with
    i, j below this, all of total degree at most trunc - 3: the bosonic
    table is known to that degree and the fermionic one at least as far."""
    return (trunc - 1) // 2


def zoo_truncation(chi_max):
    """Default truncation of a zoo name at chi_max, at least 12: the least
    trunc whose fitted rectangle resolves index_bound(chi_max), the
    inverse of _fitted_rect (see CurveData.check_depth)."""
    return max(2 * index_bound(chi_max) + 3, 12)


def zoo_build(spec):
    """Curve data for a named example, expanded to the spec's truncation."""
    if spec.name == "airy":
        ring = Ring([])
        return _simple_curve(ring, 3, {3: ring.one()}, {}, spec.trunc)
    if spec.name == "bessel":
        ring = Ring([])
        return _simple_curve(ring, 1, {1: ring.one()}, {}, spec.trunc)
    if spec.name == "phi11":
        t = spec.free_params.get("t")
        if t is None:
            ring = Ring([("t", None)])
            t_val = ring.symbol("t")
        else:
            ring = Ring([])
            t_val = ring.rational(Fraction(t))
        phi = {(1, 1): t_val} if t_val else {}
        return _simple_curve(ring, 3, {3: ring.one()}, phi, spec.trunc)
    if spec.name == "super_jt":
        return _build_super_jt(spec)
    return _build_fitted(spec)


# --- validation ----------------------------------------------------------------


def _sigma_sum_fermionic(curve, order):
    """(z1^2-z2^2) * regular part of the kernel sigma-sum, as a biseries."""
    ring = curve.ring
    coeffs = {}
    for (l, k), val in psi_regular(curve).items():
        if l % 2 == 0:  # only these survive the involution sum (doubled)
            key = (l - 1, k - 1)
            accumulate(coeffs, key, 2 * val)
    d = BiSeries(ring, coeffs, order)
    z1sq = BiSeries(ring, {(2, 0): ring.one()}, order)
    z2sq = BiSeries(ring, {(0, 2): ring.one()}, order)
    return (z1sq - z2sq) * d


def _ramond_rhs_excess(curve, order):
    """Closed Ramond right-hand side minus the universal singular sum.

    The full identity, multiplied by z1 z2 (z1^2 - z2^2), reads
    -2 z1 z2 + (z1^2-z2^2)*regular == -1/2 z1 z2 (4+z1^2+z2^2) w1 w2 with
    w = (1+z^2/2)^(-1/2); this returns the right side plus 2 z1 z2.
    """
    ring = curve.ring
    w = _binomial_power(ring, Fraction(-1, 2), Fraction(1, 2), 2, order)
    w1, w2 = _embed(w, 1, order), _embed(w, 2, order)
    shape = BiSeries(ring, {
        (1, 1): ring.rational(-2),
        (3, 1): ring.rational(Fraction(-1, 2)),
        (1, 3): ring.rational(Fraction(-1, 2))}, order)
    two_z1z2 = BiSeries(ring, {(1, 1): ring.rational(2)}, order)
    return shape * w1 * w2 + two_z1z2


def zoo_validate(curve, name, order=None):
    """Report of failed involution identities (empty report = all pass).

    The fermionic sigma-sum at total degree n reads the regular table up
    to index n - 1, so an order above curve.resolved + 2 raises
    TruncationError.
    """
    if order is None:
        pol = curve.max_polarization_index()
        order = pol - 1 if pol else max(curve.trunc - 2, 0)
    if curve.resolved is not None and order > curve.resolved + 2:
        raise TruncationError(
            f"order {order} past what the fitted tables of {name} resolve "
            f"at trunc {curve.trunc} (at most {curve.resolved + 2})")
    report = []
    for l, val in curve.tau.items():
        if l % 2 == 0 and val:
            report.append(("one-form sigma-sum", l, "even dilaton index"))
    for (k, l), val in curve.phi.items():
        if val and (k % 2 == 0 or l % 2 == 0):
            report.append(("bosonic sigma-sum", (k, l), "even index"))
    lhs = BiSeries(curve.ring, _sigma_sum_fermionic(curve, order).coeffs,
                   order)
    rhs = _ramond_rhs_excess(curve, order) if name == "ramond" \
        else BiSeries.zero(curve.ring, order)
    rhs = BiSeries(curve.ring, rhs.coeffs, order)
    if lhs.coeffs != rhs.coeffs:
        diff = lhs - rhs
        worst = min(diff.coeffs, key=lambda k: k[0] + k[1])
        report.append(("fermionic sigma-sum", worst, "mismatch"))
    return report
