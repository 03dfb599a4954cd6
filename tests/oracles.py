"""Series operations that only the tests read.

The residue pairings of the basis tests need an antiderivative and the
coefficient of z^-1 dz, the series and basis tests read one coefficient
at a time, and the fitting tests need a curve's one-form omega_{0,1}; the
package itself computes none of them. The residue engine holds its factors
as rows of term listings and its quadratics as raw sums, which the engine
tests read back as series, at the weight their slot kinds fix.
"""

from fractions import Fraction

from superrec.scalars import Scalar, add_into, finish
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


def coeff(series, exp):
    """Coefficient at z^exp; TruncationError if unknown."""
    if exp > series.trunc:
        raise TruncationError(
            f"coefficient at exponent {exp} beyond truncation "
            f"{series.trunc}")
    c = series.coeffs.get(exp)
    return series.ring.zero() if c is None else c


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


def _weight(quadratic, fermionic):
    """(dz_weight, theta) of a residue factor in a bosonic (dz) or
    fermionic (T) slot, or of a quadratic for a bosonic (dz^2) or
    fermionic (dz T) output slot."""
    return (2 if quadratic else 1) - fermionic, int(fermionic)


def as_series(ring, held, fermionic):
    """The FormalSeries of a residue factor's rows, in a fermionic (else
    bosonic) slot, or of a raw quadratic for a fermionic (else bosonic)
    output slot, each held as (data, trunc, min_exp), with data (even rows,
    odd rows) of (k, term listing) or exponent -> raw sum; the constructor
    checks that no coefficient lies past trunc."""
    data, trunc, min_exp = held
    quadratic = isinstance(data, dict)
    if quadratic:
        coeffs = {k: finish(ring, acc) for k, acc in data.items()}
    else:
        coeffs = {k: Scalar(ring, {mono: Fraction(n, d)
                                   for mono, (n, d) in terms})
                  for rows in data for k, terms in rows}
    return FormalSeries(ring, {k: c for k, c in coeffs.items() if c}, trunc,
                        *_weight(quadratic, fermionic), min_exp)


def as_raw(series, fermionic):
    """A series of weight dz T (else dz^2) held as a raw quadratic of the
    residue engine for a fermionic (else bosonic) output slot, the operand
    of its kernel division."""
    if (series.dz_weight, series.theta) != _weight(True, fermionic):
        raise WeightError(
            f"series of weight {(series.dz_weight, series.theta)} is no "
            f"{'fermionic' if fermionic else 'bosonic'} quadratic")
    sums = {}
    for k, c in series.coeffs.items():
        add_into(sums.setdefault(k, {}), c.terms)
    return sums, series.trunc, series.min_exp
