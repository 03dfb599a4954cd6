"""Series operations that only the tests read.

The residue pairings of the basis tests need an antiderivative and the
coefficient of z^-1 dz, and the fitting tests need a curve's one-form
omega_{0,1}; the package itself computes none of them.
"""

from fractions import Fraction

from superrec.series import FormalSeries, TruncationError, WeightError


def integrate(series):
    """Antiderivative with zero constant term; removes one dz."""
    if series.dz_weight < 1:
        raise WeightError("integrating a series without a dz factor")
    coeffs = {}
    for k, c in series.coeffs.items():
        if k == -1:
            raise WeightError("nonzero residue has no antiderivative")
        coeffs[k + 1] = c * Fraction(1, k + 1)
    return FormalSeries(series.ring, coeffs, series.trunc + 1,
                        series.dz_weight - 1, series.theta,
                        series.min_exp + 1)


def residue(series):
    """Coefficient of z^-1 dz; requires a plain one-form."""
    if series.dz_weight != 1 or series.theta != 0:
        raise WeightError(
            f"residue needs dz-weight 1, parity 0; got "
            f"{series.dz_weight}, {series.theta}")
    if -1 > series.trunc:
        raise TruncationError("residue coefficient not resolved")
    return series.coeffs.get(-1, series.ring.zero())


def omega01(curve):
    """The curve's one-form sum_l tau_l z^(l-1) dz, to its truncation."""
    return FormalSeries(
        curve.ring, {l - 1: v for l, v in curve.tau.items()}, curve.trunc,
        1, 0, min_exp=0)
