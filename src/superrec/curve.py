"""Local curve data: parameters, basis series, defining forms, fitting.

A curve is given by a leading index epsilon (1 or 3), dilaton-shift
coefficients tau_l, a symmetric bosonic polarization phi_kl, and fermionic
polarization data (psi0_k plus the free strict-upper-triangle psiA_kl);
the remaining psi entries are fixed by the pairing constraints
psi_00 = 0 and psi_kl + psi_lk + psi_0k psi_0l = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import accumulate
from .series import FormalSeries, TruncationError
from .store import index_bound


class ShapeError(Exception):
    pass


class InconsistentPolarization(Exception):
    pass


class AdmissibilityError(Exception):
    pass


class CurveData:
    """Curve parameters to truncation trunc. Data fitted from a truncated
    expansion is exact only through polarization index `resolved`; exact
    data has resolved None. Once validated, phi and psi are completed into
    `phi_table` and `psi_table`; a CurveData is never changed after."""

    def __init__(self, ring, epsilon, tau, phi, psi0, psiA, trunc,
                 resolved=None):
        self.ring = ring
        self.epsilon = epsilon
        self.tau = {l: v for l, v in tau.items() if v}
        self.phi = {}
        for (k, l), v in phi.items():
            if v:
                if not 1 <= k <= l:
                    raise ShapeError(
                        f"phi stored as upper triangle from 1: {k},{l}")
                self.phi[(k, l)] = v
        self.psi0 = {k: v for k, v in psi0.items() if v}
        self.psiA = {}
        for (k, l), v in psiA.items():
            if v:
                if not 1 <= k < l:
                    raise ShapeError(
                        f"psiA stored as strict upper triangle: {k},{l}")
                self.psiA[(k, l)] = v
        self.trunc = trunc
        self.resolved = resolved
        self.validate()
        self.zero = ring.zero()
        self.phi_table = {key: v for (k, l), v in self.phi.items()
                          for key in ((k, l), (l, k))}
        # every nonzero psi_kl by the pairing constraints: psi_00 = 0,
        # psi_0k = -psi_k0 = psi0_k, psi_kk = -psi0_k^2 / 2, and for
        # 1 <= k < l, psi_kl = psiA_kl and psi_lk = -psiA_kl - psi0_k psi0_l
        minus_half = ring.rational(Fraction(-1, 2))
        psi = {}
        for k, v in self.psi0.items():
            psi.update({(0, k): v, (k, 0): -v, (k, k): minus_half * v * v})
            psi.update({(l, k): -(v * w) for l, w in self.psi0.items()
                        if k < l})
        for (k, l), v in self.psiA.items():
            psi[(k, l)], psi[(l, k)] = v, psi.get((l, k), self.zero) - v
        self.psi_table = {key: v for key, v in psi.items() if v}

    def validate(self):
        if self.epsilon not in (1, 3):
            raise AdmissibilityError(f"epsilon must be 1 or 3")
        tau1 = self.tau.get(1)
        tau3 = self.tau.get(3)
        if self.epsilon == 1 and not tau1:
            raise AdmissibilityError("epsilon=1 requires tau_1 != 0")
        if self.epsilon == 3 and tau1:
            raise AdmissibilityError("epsilon=3 requires tau_1 = 0")
        if self.epsilon == 3 and not tau3:
            raise AdmissibilityError("epsilon=3 requires tau_3 != 0")
        if any(l < 1 for l in self.tau):
            raise ShapeError("tau indices must be >= 1")
        if any(k < 1 for k in self.psi0):
            raise ShapeError("psi0 indices must be >= 1")
        # index l multiplies z^(l-1), which a series truncated at trunc
        # holds only for l <= trunc + 1
        for what, params in (("tau", self.tau), ("phi", self.phi),
                             ("psi0", self.psi0), ("psiA", self.psiA)):
            for index in params:
                top = max(index) if isinstance(index, tuple) else index
                if top > self.trunc + 1:
                    raise ShapeError(
                        f"{what} index {index} past truncation {self.trunc}")

    def check_depth(self, chi_max):
        """Raise TruncationError unless the data is deep enough for every
        entry through level chi_max: the engines' series need trunc >=
        required_truncation, and the entries read polarization indices up
        to index_bound(chi_max), which the data must resolve."""
        needed = required_truncation(self.epsilon, chi_max)
        if self.trunc < needed:
            raise TruncationError(
                f"truncation {self.trunc} below required {needed} "
                f"for chi_max={chi_max}")
        read = index_bound(chi_max, self.epsilon)
        if self.resolved is not None and self.resolved < read:
            raise TruncationError(
                f"chi_max={chi_max} reads polarization indices up to {read}, "
                f"but the curve data at trunc {self.trunc} resolves them "
                f"only through {self.resolved}")

    def phi_at(self, k, l):
        """phi_kl, zero unless k, l >= 1 and within the curve's data."""
        return self.phi_table.get((k, l), self.zero)

    def psi_at(self, k, l):
        """psi_kl, zero at a negative index and past the curve's data."""
        return self.psi_table.get((k, l), self.zero)

    def max_polarization_index(self):
        return max(map(max, [*self.phi_table, *self.psi_table]), default=0)


def required_truncation(epsilon, chi_max):
    """Smallest series truncation the engines need for this depth."""
    return index_bound(chi_max, epsilon) + epsilon + 2


class CurveBases:
    """Basis series, defining one-forms and the F_0 diagonal of a curve,
    built to truncation."""

    def __init__(self, curve, chi_max=None):
        ring = curve.ring
        self.curve = curve
        self.ring = ring
        epsilon = curve.epsilon
        if chi_max is not None:
            curve.check_depth(chi_max)
        self.trunc = curve.trunc
        self._dxi_minus = {}
        self._eta_minus = {}

        self.delta_omega = FormalSeries(
            ring, {l - 1: 2 * v for l, v in curve.tau.items() if l % 2},
            self.trunc, 1, 0, min_exp=epsilon - 1)
        # no spec fails this: CurveData.validate keeps tau_epsilon nonzero
        # and within the truncation, and delta_omega's lead is 2 tau_epsilon
        # by construction
        lead = self.delta_omega.coeffs.get(epsilon - 1)
        assert lead and lead == 2 * curve.tau[epsilon]

        # The F_0 terms of F_1's residue assembly, on the diagonal
        # z2 = -z1 = -z: omega_{0,2}(z, -z) (with dz2 = -dz) minus half of
        # z (d1 h(z, -z) - d1 h(-z, z)) dz^2, where h multiplies T1 T2 in
        # omega_{0,0|2}. Each singular part gives -1/4 z^-2 dz^2; a bosonic
        # regular z1^(k-1) z2^(l-1) gives (-1)^l, and a fermionic regular
        # z1^(k-2) z2^(l-2) gives -(k-2)((-1)^k + (-1)^l)/2.
        coeffs = {-2: ring.rational(Fraction(-1, 2))}
        for (k, l), val in curve.phi_table.items():
            if k + l - 2 <= self.trunc:
                accumulate(coeffs, k + l - 2, -val if l % 2 else val)
        for (k, l), val in psi_regular(curve).items():
            weight = (k - 2) * (-1) ** (k + 1) if (k - l) % 2 == 0 else 0
            if weight and k + l - 4 <= self.trunc:
                accumulate(coeffs, k + l - 4, val * weight)
        self.f0_diagonal = FormalSeries(ring, coeffs, self.trunc, 2, 0, -2)

    # --- basis series ----------------------------------------------------

    def dxi_plus(self, l):
        _check_index("dxi_plus", l, 1)
        return FormalSeries.monomial(self.ring, 1, l - 1, self.trunc, 1, 0)

    def dxi_minus(self, l):
        _check_index("dxi_minus", l, 1)
        if l not in self._dxi_minus:
            coeffs = {-l - 1: self.ring.one()}
            inv_l = self.ring.rational(Fraction(1, l))
            for (k, m), val in self.curve.phi_table.items():
                if k == l:
                    accumulate(coeffs, m - 1, val * inv_l)
            self._dxi_minus[l] = FormalSeries(
                self.ring, coeffs, self.trunc, 1, 0, min_exp=-l - 1)
        return self._dxi_minus[l]

    def eta_plus(self, l):
        _check_index("eta_plus", l, 1)
        return FormalSeries.monomial(self.ring, 1, l - 1, self.trunc, 0, 1)

    def eta_minus(self, l):
        """eta with a pole of order l+1; l = 0 gives the zero mode."""
        _check_index("eta_minus", l, 0)
        if l not in self._eta_minus:
            coeffs = {-l - 1: self.ring.one()}
            for (j, k), val in self.curve.psi_table.items():
                if j == l:
                    accumulate(coeffs, k - 1, val)
            self._eta_minus[l] = FormalSeries(
                self.ring, coeffs, self.trunc, 0, 1, min_exp=-l - 1)
        return self._eta_minus[l]

    @property
    def eta_zero(self):
        return self.eta_minus(0)


def _check_index(name, l, least):
    if l < least:
        raise ValueError(f"{name} needs an index >= {least}, got {l}")


def psi_regular(curve):
    """Regular part of omega_{0,0|2}: (l, k) -> the coefficient of
    z1^(l-1) z2^(k-1) T1 T2/(z1 z2) once the singular part
    -1/2 (z1+z2)/(z1-z2) T1 T2/(z1 z2) is removed (antisymmetric):
    -(psi_{k-1,l-1} - psi_{l-1,k-1}) / (2 (1 + delta_{(k-1)(l-1),0}))."""
    psi_at = curve.psi_at
    quarter, half = (curve.ring.rational(Fraction(-1, d)) for d in (4, 2))
    out = {}
    for a, b in sorted({tuple(sorted(key)) for key in curve.psi_table}):
        if a < b:
            val = (psi_at(b, a) - psi_at(a, b)) * (quarter if a == 0 else half)
            if val:
                out[(a + 1, b + 1)] = val
                out[(b + 1, a + 1)] = -val
    return out


def fit_parameters(ring, epsilon, omega01, omega02_regular, omega002_regular,
                   trunc, resolved=None):
    """Recover CurveData from raw form data, exact through polarization
    index resolved (None: exact).

    omega01: FormalSeries (one-form). omega02_regular: dict (k,l) -> Scalar,
    the coefficient of z1^(k-1) z2^(l-1) dz1 dz2 after removing the double
    pole. omega002_regular: dict (k,l) -> Scalar, the coefficient of
    z1^(k-1) z2^(l-1) T1 T2/(z1 z2) after removing the fixed singular part.
    """
    if omega01.dz_weight != 1 or omega01.theta != 0:
        raise ShapeError("omega01 must be a plain one-form")
    if any(k < 0 for k in omega01.coeffs):
        raise ShapeError("omega01 must be holomorphic (positive basis only)")
    tau = {k + 1: v for k, v in omega01.coeffs.items()}

    zero = ring.zero()
    phi = {}
    for (k, l), v in omega02_regular.items():
        if k < 1 or l < 1:
            raise ShapeError(f"bad bosonic regular index {(k, l)}")
        if omega02_regular.get((l, k), zero) != v:
            raise InconsistentPolarization(
                f"bosonic polarization not symmetric at {(k, l)}")
        if k <= l and v:
            phi[(k, l)] = v

    # the fermionic part inverts psi_regular entry by entry
    reg = dict(omega002_regular)
    for (l, k), v in reg.items():
        if l < 1 or k < 1:
            raise ShapeError(f"bad fermionic regular index {(l, k)}")
        if reg.get((k, l), zero) != -v:
            raise InconsistentPolarization(
                f"fermionic regular part not antisymmetric at {(l, k)}")
    psi0 = {}
    psiA = {}
    half = ring.rational(Fraction(1, 2))
    max_idx = max((max(l, k) for l, k in reg), default=0)
    for m in range(1, max_idx):
        # (l, k) = (m+1, 1): r = -(psi_{0,m} - psi_{m,0})/4 = -psi_{0m}/2
        val = reg.get((m + 1, 1), zero)
        if val:
            psi0[m] = -2 * val
    for p in range(1, max_idx):
        for q in range(p + 1, max_idx):
            # (l, k) = (p+1, q+1): r = -(psi_{qp} - psi_{pq})/2
            r = reg.get((p + 1, q + 1), zero)
            p0q0 = psi0.get(p, zero) * psi0.get(q, zero)
            # psi_qp - psi_pq = -2 r ; psi_qp + psi_pq = -psi0p psi0q
            val = (-p0q0 + 2 * r) * half
            if val:
                psiA[(p, q)] = val
    curve = CurveData(ring, epsilon, tau, phi, psi0, psiA, trunc, resolved)
    # round-trip consistency of the fermionic extraction
    if psi_regular(curve) != {key: v for key, v in reg.items() if v}:
        raise InconsistentPolarization(
            "fermionic regular part inconsistent with pairing constraints")
    return curve
