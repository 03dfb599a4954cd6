"""Built-in example curves.

Each generator expands closed-form defining one-forms and bilinear kernels
as truncated (bi)series over an exact symbol ring, peels off the fixed
singular parts and recovers curve data through fit_parameters. The
validation report checks the sign-involution identities of the defining
forms against their closed right-hand sides to truncation order.

A fitted curve (ns_plus, ns_minus, ramond) multiplies no two bivariate
series. Each numerator of its bilinears is summed from the univariate
coefficients of u, u' and u^2 as outer products, one raw sum per
coefficient, e.g. (u1 - u2)^2 = u^2 (x) 1 + 1 (x) u^2 - 2 u (x) u; it is
divided by (z1 - z2)^2 as a running sum down each anti-diagonal
(BiSeries.divide_z1_minus_z2), then by s^2 or s on the square the fit
keeps (BiSeries.quotient_on_square).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .biseries import BiSeries
from .curve import CurveData, fit_parameters, psi_regular
from .scalars import Ring, add_into, finish, finish_each, mul_into
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
# The free parameters each curve reads: phi11 its coupling t, the others none.
_PARAMS = dict.fromkeys(ZOO_NAMES, ()) | {"phi11": ("t",)}


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
        for key in self.free_params:
            if key not in _PARAMS[self.name]:
                raise ExpansionError(
                    f"curve {self.name} reads no parameter {key!r}")
        self.M_coeffs = tuple(Fraction(c) for c in self.M_coeffs)
        if self.name in FITTED_NAMES and not any(self.M_coeffs):
            raise ExpansionError("polynomial weight M must be nonzero")


# --- univariate series helpers -----------------------------------------------


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
    return FormalSeries(ring, coeffs, trunc)


def _poly_at(ring, m_coeffs, x, trunc):
    acc = FormalSeries(ring, {}, trunc)
    for c in reversed(m_coeffs):
        acc = acc * x + FormalSeries(ring, {0: ring.rational(c)}, trunc)
    return acc


# --- generators ----------------------------------------------------------------


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
    return CurveData(ring, 1, tau, {}, {}, {}, spec.trunc)


def _expansion_data(spec):
    """(ring, u, omega01): the univariate data of a fitted curve."""
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
    z = FormalSeries(ring, {1: ring.one()}, trunc)
    zz_half = FormalSeries(ring, {2: ring.rational(Fraction(1, 2))}, trunc)
    if spec.name == "ramond":
        w = _binomial_power(ring, Fraction(-1, 2), Fraction(1, 2), 2, trunc)
        inv_sqrt2 = ring.symbol("sqrt2") * ring.rational(Fraction(1, 2))
        u = (z * w).scale(inv_sqrt2)
        x = FormalSeries(ring, {0: ring.one()}, trunc) + zz_half
        m_at = _poly_at(ring, spec.M_coeffs, x, trunc)
        omega01 = (m_at * z * z * w).scale(inv_sqrt2)
        return ring, u, omega01
    const = FormalSeries(ring, {0: ring.rational(sign)}, trunc)
    u = const + zz_half + z * root
    m_at = _poly_at(ring, spec.M_coeffs, const + zz_half, trunc)
    omega01 = (m_at * root * z * z).scale(ring.rational(Fraction(-1, 2)))
    return ring, u, omega01


def _build_fitted(spec):
    ring, u_series, omega01 = _expansion_data(spec)
    rect = _fitted_rect(spec.trunc)
    # the kept square reads each quotient through total degree
    # 2 (rect - 1), and each division by (z1 - z2) reads its dividend one
    # degree further; u is known to z^(trunc + 2) and u' to z^(trunc + 1),
    # and 2 rect + 2 <= trunc + 1
    top = 2 * rect
    # exponent -> term listing of each univariate coefficient
    u, du, uu = ({k: c.terms.items() for k, c in fs.coeffs.items()}
                 for fs in (u_series, u_series.derive(), u_series * u_series))
    one = {0: ring.one().terms.items()}
    # s^2 = (u1 - u2)^2 / (z1 - z2)^2 with s = (u1 - u2) / (z1 - z2)
    s2 = _fitted_numerator(ring, top + 2, (
        (1, uu, one, 0, 0), (1, one, uu, 0, 0), (-2, u, u, 0, 0)),
        symmetric=True).divide_z1_minus_z2(2)
    # u1' u2' / s^2 = 1 + (z1 - z2)^2 reg02
    sums = {}
    for (i, j), val in s2.coeffs.items():
        if i >= j:
            add_into(sums.setdefault((i, j), {}), val.terms, -1)
    reg02 = _fitted_numerator(ring, top, ((1, du, du, 0, 0),), sums,
                              symmetric=True) \
        .divide_z1_minus_z2(2).quotient_on_square(s2, rect)
    if spec.name == "ramond":
        # (z1 - z2) times the numerator (z1 + z2) s - (u1 + u2)(1 - u1 u2),
        # halved: z2 u1 - z1 u2 + (z1 - z2)(u1^2 u2 + u1 u2^2) / 2, over
        # the denominator 2
        num = _fitted_numerator(ring, top, (
            (2, u, one, 0, 1), (-2, one, u, 1, 0),
            (1, uu, u, 1, 0), (1, u, uu, 1, 0),
            (-1, uu, u, 0, 1), (-1, u, uu, 0, 1)), den=2)
        # s_ij = u_(i+j+1), as (z1^n - z2^n) / (z1 - z2) = sum_(i+j=n-1)
        # z1^i z2^j; on the square, and s_00 when the square is empty
        side = range(max(rect, 1))
        s = BiSeries(ring, {(i, j): u_series.coeffs[i + j + 1] for i in side
                            for j in side if i + j + 1 in u}, top)
        reg002 = num.divide_z1_minus_z2(2).quotient_on_square(s, rect)
    else:
        # (1 - u1' u2' / s^2) (z1 + z2) / (z1 - z2) / 2
        # = (z2^2 - z1^2) reg02 / 2, by shifting reg02 on the square;
        # antisymmetric, as reg02 is symmetric
        reg002 = {}
        for i in range(rect):
            for j in range(i + 1, rect):
                acc = {}
                for key, weight in (((i, j - 2), 1), ((i - 2, j), -1)):
                    if key in reg02:
                        add_into(acc, reg02[key].terms, weight, 2)
                val = finish(ring, acc)
                if val is not None:
                    reg002[i, j] = val
                    reg002[j, i] = -val
    phi_reg = {(i + 1, j + 1): v for (i, j), v in reg02.items()}
    psi_reg = {(i + 1, j + 1): v for (i, j), v in reg002.items()}
    omega01_form = FormalSeries(
        ring, {k: v for k, v in omega01.coeffs.items() if k <= spec.trunc},
        spec.trunc, 1, 0)
    # psi_{k,l} sits at z1^l z2^k of the fermionic table, so the fit is
    # exact through polarization index rect - 1
    return fit_parameters(ring, 3, omega01_form, phi_reg, psi_reg,
                          spec.trunc, rect - 1)


def _fitted_numerator(ring, top, products, sums=None, symmetric=False,
                      den=1):
    """The BiSeries through total degree top of the raw sums (i, j) -> {...}
    given plus the outer products (weight, x, y, di, dj): each adds
    weight x_i y_j / den at z1^(i+di) z2^(j+dj), with an int weight and
    den, x and y mapping an exponent to the term listing of a univariate
    coefficient. Each key is one raw sum, finished once. A symmetric sum is
    mirror-symmetric: only its keys with i >= j are summed, and the others
    mirrored."""
    sums = {} if sums is None else sums
    for weight, x, y, di, dj in products:
        for i, left in x.items():
            i += di
            for j, right in y.items():
                j += dj
                if i + j > top or symmetric and j > i:
                    continue
                acc = sums.get((i, j))
                if acc is None:
                    acc = sums[i, j] = {}
                mul_into(ring, acc, left, right, weight, den)
    coeffs = finish_each(ring, sums)
    if symmetric:
        for (i, j), val in list(coeffs.items()):
            coeffs[j, i] = val
    return BiSeries(ring, coeffs, top)


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
        return CurveData(ring, 3, {3: ring.one()}, {}, {}, {}, spec.trunc)
    if spec.name == "bessel":
        ring = Ring([])
        return CurveData(ring, 1, {1: ring.one()}, {}, {}, {}, spec.trunc)
    if spec.name == "phi11":
        t = spec.free_params.get("t")
        if t is None:
            ring = Ring([("t", None)])
            t_val = ring.symbol("t")
        else:
            ring = Ring([])
            t_val = ring.rational(Fraction(t))
        phi = {(1, 1): t_val} if t_val else {}
        return CurveData(ring, 3, {3: ring.one()}, phi, {}, {}, spec.trunc)
    if spec.name == "super_jt":
        return _build_super_jt(spec)
    return _build_fitted(spec)


# --- validation ----------------------------------------------------------------


def _sigma_sum_fermionic(curve, order):
    """(z1^2-z2^2) * regular part of the kernel sigma-sum, as a biseries."""
    ring = curve.ring
    # only the even l survive the involution sum, doubled
    d = BiSeries(ring, {(l - 1, k - 1): 2 * val for (l, k), val
                        in psi_regular(curve).items() if l % 2 == 0}, order)
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
    w1, w2 = (BiSeries.from_univariate(w, var, order) for var in (1, 2))
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
