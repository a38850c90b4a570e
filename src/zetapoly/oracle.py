"""Independent numerical continuation via the Euler-Maclaurin formula.

Validates the exact value formulas at desk scale: one-variable continuation
of the power-sum zeta and the two-variable recursion near non-positive
integer points, with the remainder integral computed numerically (piecewise
over unit intervals, fractional-part Bernoulli weight) instead of dropped.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from mpmath import mp, mpf

from ._quadrature import integrate_interval_fixed, integrate_unit_cube, pointwise
from .errors import (
    ContinuationDepthInsufficient,
    DomainViolation,
    Pole,
)
from .exactnum import (
    ConstantProduct,
    Numeric,
    SpecialValue,
    bernoulli,
    bernoulli_poly,
    binom_rational,
    gamma_rational,
    mpf_from_rational,
    riemann_zeta_exact_nonpositive,
)
from .mahler import QuadratureSettings
from .multipoly import weighted_partitions
from .powersum import PowerSumParams


@dataclass(frozen=True)
class EMSettings:
    K: int = 8
    truncation: int = 400
    precision: int = 30
    quad: QuadratureSettings = field(
        default_factory=lambda: QuadratureSettings(rel_tol=1e-14, precision=30)
    )


DEFAULT_EM = EMSettings()


# -----------------------------------------------------------------------------
# Closed forms for the model function f(x) = (b + a x^d)^{-s}
# -----------------------------------------------------------------------------

def beta_integral(
    a: Fraction, b: Fraction, d: int, s: Fraction, precision: int = 30
) -> Numeric:
    """int_0^oo (b + a x^d)^{-s} dx = Gamma(s-1/d) Gamma(1/d) /
    (d a^{1/d} b^{s-1/d} Gamma(s)), for s > 1/d."""
    a, b, s = Fraction(a), Fraction(b), Fraction(s)
    if a <= 0 or b <= 0:
        raise DomainViolation("need a > 0 and b > 0")
    if s * d <= 1:
        raise DomainViolation("need s > 1/d")
    return _beta_gamma_form(a, b, d, s, precision)


def _beta_gamma_form(a: Fraction, b: Fraction, d: int, s: Fraction, precision: int) -> Numeric:
    """Gamma(s-1/d) Gamma(1/d) / (d a^{1/d} b^{s-1/d} Gamma(s))."""
    with mp.workdps(precision + 10):
        g1 = gamma_rational(s - Fraction(1, d), precision)
        g2 = gamma_rational(Fraction(1, d), precision)
        g3 = gamma_rational(s, precision)
        out = (g1 * g2).divide(g3.scale(Fraction(d)))
        out = out * _rational_power(a, Fraction(-1, d))
        out = out * _rational_power(b, Fraction(1, d) - s)
    return out


def _beta_term_continued(
    a: Fraction, b: Fraction, d: int, s: Fraction, precision: int = 30
) -> Numeric:
    """Meromorphic continuation of the integral term of the summation
    formula.  For d = 1 the Gamma ratio collapses to 1/(s-1); at
    non-positive integer s (d >= 2) the reciprocal Gamma factor makes the
    term vanish identically."""
    a, b, s = Fraction(a), Fraction(b), Fraction(s)
    if d == 1:
        if s == 1:
            raise Pole("integral term has its pole at s = 1")
        out = _rational_power(b, 1 - s)
        return out.scale(Fraction(1) / (a * (s - 1)))
    if s.denominator == 1 and s <= 0:
        return Numeric(mpf(0), mpf(0))
    return _beta_gamma_form(a, b, d, s, precision)


def _rational_power(base: Fraction, expo: Fraction) -> Numeric:
    """base^expo for positive rational base, with an error bound."""
    base, expo = Fraction(base), Fraction(expo)
    if base <= 0:
        raise ValueError("base must be positive")
    if expo.denominator == 1:
        v = base ** expo.numerator
        return Numeric.from_rational(v)
    bv = mpf_from_rational(base)
    ev = mpf_from_rational(expo)
    v = mp.power(bv, ev)
    err = abs(v) * (abs(ev) + 4) * mpf(2) ** (4 - mp.prec)
    return Numeric(v, err)


def f_derivative_at0(
    a: Fraction, b: Fraction, d: int, s: Fraction, k: int, precision: int = 30
) -> Fraction | Numeric:
    """k-th derivative of (b + a x^d)^{-s} at 0:

        k! C(-s, k/d) a^{k/d} b^{-s-k/d}  when d | k, else 0.

    Exact when the power of b has an integer exponent."""
    a, b, s = Fraction(a), Fraction(b), Fraction(s)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k % d != 0:
        return Fraction(0)
    m = k // d
    expo = -s - m
    core = Fraction(factorial(k)) * binom_rational(-s, m) * a**m
    if expo.denominator == 1:
        return core * b ** expo.numerator
    with mp.workdps(precision + 10):
        return _rational_power(b, expo).scale(core)


def _alpha_weight(alpha: tuple[int, ...], d: int, a: Fraction) -> tuple[Fraction, int]:
    """The factor |alpha|! prod_j C(d,j)^{alpha_j}/alpha_j! a^{|alpha|} and
    the x-exponent sum_j (d-j) alpha_j of the alpha-term of the derivatives
    of (b + a x^d)^{-s}, for alpha weighted by j = 1..d."""
    aa = sum(alpha)
    c = Fraction(factorial(aa), 1)
    for j, aj in enumerate(alpha, start=1):
        c *= Fraction(comb(d, j) ** aj, factorial(aj))
    c *= a**aa
    xexp = sum((d - j) * aj for j, aj in enumerate(alpha, start=1))
    return c, xexp


@lru_cache(maxsize=4096)
def _f_derivative_terms(a: Fraction, d: int, s: Fraction, order: int):
    """f^(order)(x) = order! * sum over weighted alpha of
    C(-s,|alpha|) (|alpha|!/alpha!) prod_j C(d,j)^{alpha_j} a^{|alpha|}
       * x^{sum (d-j) alpha_j} * (b + a x^d)^{-s-|alpha|}.

    Returns [(coeff, x_exponent, power_shift)] with power_shift = |alpha|."""
    out = []
    for alpha in weighted_partitions(order, d):
        aa = sum(alpha)
        w, xexp = _alpha_weight(alpha, d, a)
        c = binom_rational(-s, aa) * factorial(order) * w
        if c == 0:
            continue
        out.append((c, xexp, aa))
    return tuple(out)


# -----------------------------------------------------------------------------
# Euler-Maclaurin evaluation of sum_{m>=1} (b + a m^d)^{-s}
# -----------------------------------------------------------------------------

def _bern_frac_weight(coeffs: list[mpf]):
    """t -> B_2K(t) by Horner's rule over coeffs, memoised on the bits of t.

    integrate_interval_fixed puts node u of [m, m+1] at fl(m + u), so
    t = x - m takes the same few values on every interval of one binade of
    m; the memo lives as long as the returned function, one integral."""
    memo: dict[tuple, mpf] = {}

    def weight(t: mpf) -> mpf:
        key = t._mpf_
        acc = memo.get(key)
        if acc is None:
            acc = mpf(0)
            for c in reversed(coeffs):
                acc = acc * t + c
            memo[key] = acc
        return acc

    return weight


def em_inner_sum(
    a: Fraction, b: Fraction, d: int, s: Fraction, settings: EMSettings = DEFAULT_EM
) -> Numeric:
    """Continued value of sum_{m>=1} (b + a m^d)^{-s}.

    In the deeply convergent regime (d*s >= 3) the series is summed directly
    with an Euler-Maclaurin tail anchored at a large cutoff, which avoids the
    cancellation the at-zero expansion suffers for small b.  Otherwise the
    at-zero expansion is used: closed integral term, half-term, odd-derivative
    corrections, and the even-order remainder integral computed numerically
    over unit intervals with a rigorous power tail bound.  The order is
    raised above settings.K when the requested tolerance would otherwise
    need an excessive number of unit intervals.
    """
    a, b, s = Fraction(a), Fraction(b), Fraction(s)
    if a <= 0 or b < 0:
        raise DomainViolation("need a > 0 and b >= 0")
    prec = settings.precision
    with mp.workdps(prec + 10):
        if d * s >= 3:
            return _em_direct(a, b, d, s, settings)
        if b == 0:
            raise DomainViolation("b = 0 requires the convergent regime d*s >= 3")
        return _em_at_zero(a, b, d, s, settings)


def _em_direct(a, b, d, s, settings: EMSettings) -> Numeric:
    tol = mpf(10) ** (-(settings.precision + 2))
    sf = mpf_from_rational(s)
    af, bf = mpf_from_rational(a), mpf_from_rational(b)
    M0 = max(20, settings.precision)
    partial = mpf(0)
    for m in range(1, M0 + 1):
        partial += mp.power(bf + af * mp.power(m, d), -sf)
    # integral over [M0, oo), via x = M0/u to keep the integrand bounded
    ds = d * s
    M0f = mpf(M0)
    tail_scale = M0f * mp.power(af * M0f**d, -sf)
    if tail_scale < tol * max(1, abs(partial)) * mpf("1e-3"):
        # whole tail already negligible against the requested tolerance
        err = tail_scale * 4 + M0 * abs(partial) * mpf(2) ** (4 - mp.prec)
        return Numeric(partial, err)

    def g(pt):
        u = pt[0]
        return mp.power(u, mpf_from_rational(ds - 2)) * mp.power(
            bf * u**d + af * M0f**d, -sf
        )

    ival, ierr = integrate_unit_cube(
        pointwise(g), 1, rel_tol=settings.quad.rel_tol, abs_tol=float(tol) * 1e-4,
        max_subdivisions=settings.quad.max_subdivisions, order=settings.quad.rule,
    )
    total = partial + M0f * ival
    err = M0f * ierr

    def tail_bound(Kt: int) -> mpf:
        b = mpf(0)
        for c, xexp, aa in _f_derivative_terms(a, d, s, 2 * Kt):
            p = mpf_from_rational(xexp - d * (s + aa))  # = -(d s + 2 Kt)
            b += (
                abs(mpf_from_rational(c))
                * mp.power(af, -mpf_from_rational(s + aa))
                * mp.power(M0f, p + 1)
                / abs(p + 1)
            )
        return b * abs(mpf_from_rational(Fraction(bernoulli(2 * Kt), factorial(2 * Kt))))

    Kt, bound = 3, None
    for k in range(3, 24):
        b = tail_bound(k)
        if bound is None or b < bound:
            Kt, bound = k, b
        if b < tol:
            break
    # Euler-Maclaurin corrections at the cutoff
    fM0 = mp.power(bf + af * M0f**d, -sf)
    total -= fM0 / 2
    for k in range(1, Kt + 1):
        fd = mpf(0)
        for c, xexp, aa in _f_derivative_terms(a, d, s, 2 * k - 1):
            fd += (
                mpf_from_rational(c)
                * M0f**xexp
                * mp.power(bf + af * M0f**d, -(sf + aa))
            )
        total -= mpf_from_rational(Fraction(bernoulli(2 * k), factorial(2 * k))) * fd
    err += bound + (M0 + 8 * Kt) * abs(total) * mpf(2) ** (4 - mp.prec)
    return Numeric(total, err)


def _em_at_zero(a, b, d, s, settings: EMSettings) -> Numeric:
    prec = settings.precision
    tol = mpf(10) ** (-(prec + 2))
    dmin = Fraction(1) - d * s
    if 2 * settings.K <= dmin:
        required = int(dmin // 2) + 1
        if required > 64:
            raise ContinuationDepthInsufficient(
                f"order K = {settings.K} too small; need K > {dmin / 2}"
            )
    # efficiency raise: make the tail decay fast enough that ~16 intervals do
    K = settings.K
    while float(d * s) + 2 * K - 1 < (prec + 4) / 1.1 + 1:
        K += 1
    if 2 * K <= dmin:
        K = int(dmin // 2) + 1
    # cancellation guard for small b
    extra = 0
    if b < Fraction(1, 4):
        mag = float(abs(s) + 2 * K / d) * max(
            0.0, float(mp.log10((mpf_from_rational(a) + 1) / mpf_from_rational(b)))
        )
        extra = min(400, int(mag) + 10)
    with mp.extradps(extra):
        total_num = _beta_term_continued(a, b, d, s, prec + extra)
        half = _rational_power(b, -s).scale(Fraction(-1, 2))
        total_num = total_num + half
        for k in range(1, K + 1):
            if (2 * k - 1) % d != 0:
                continue
            fd = f_derivative_at0(a, b, d, s, 2 * k - 1, prec + extra)
            coeff = -Fraction(bernoulli(2 * k), factorial(2 * k))
            if isinstance(fd, Fraction):
                total_num = total_num + Numeric.from_rational(coeff * fd)
            else:
                total_num = total_num + fd.scale(coeff)
        rem, rem_err = _remainder_integral(a, b, d, s, K, tol, settings)
        cr = Fraction(-1, factorial(2 * K))
        total_num = total_num + Numeric(
            rem * mpf_from_rational(cr), rem_err * abs(mpf_from_rational(cr))
        )
    return total_num


def _remainder_integral(a, b, d, s, K, tol, settings: EMSettings):
    """int_0^oo f^(2K)(x) B_{2K}({x}) dx over unit intervals, with a power
    tail bound appended to the error."""
    terms = _f_derivative_terms(a, d, s, 2 * K)
    af, bf = mpf_from_rational(a), mpf_from_rational(b)
    sf = mpf_from_rational(s)
    bern_coeffs = [mpf_from_rational(c) for c in bernoulli_poly(2 * K)]
    term_data = [
        (mpf_from_rational(c), xexp, sf + aa) for c, xexp, aa in terms
    ]

    def f2k(x: mpf) -> mpf:
        acc = mpf(0)
        for cf, xexp, powe in term_data:
            acc += cf * x**xexp * mp.power(bf + af * x**d, -powe)
        return acc

    maxb = abs(mpf_from_rational(bernoulli(2 * K)))
    # |f^(2K)(x)| <= sum |c| a^{-(s+|alpha|)} x^{-(ds+2K)} for x >= max(1, cut)
    tail_coeff = mpf(0)
    for c, xexp, aa in terms:
        tail_coeff += abs(mpf_from_rational(c)) * mp.power(
            af, -mpf_from_rational(s + aa)
        )
    p = mpf_from_rational(d * s) + 2 * K  # decay exponent, > 1

    def tail_at(m: int) -> mpf:
        return maxb * tail_coeff * mpf(m) ** (1 - p) / (p - 1)

    depth_msg = f"remainder tail not below tolerance within {settings.truncation} intervals"
    # The bound falls with m, so if it is not below tol at the last m the
    # loop may reach, no number of intervals within the truncation will do.
    if tail_at(settings.truncation + 1) >= tol:
        raise ContinuationDepthInsufficient(depth_msg)
    weight = _bern_frac_weight(bern_coeffs)
    total = mpf(0)
    err = mpf(0)
    m = 0
    while True:
        val, est = integrate_interval_fixed(
            lambda x, mm=m: f2k(x) * weight(x - mm),
            Fraction(m),
            Fraction(m + 1),
            order=settings.quad.rule,
        )
        total += val
        err += est
        m += 1
        if m >= 2:
            tail = tail_at(m)
            if tail < tol:
                err += tail
                break
        if m > settings.truncation:
            raise ContinuationDepthInsufficient(depth_msg)
    return total, err


# -----------------------------------------------------------------------------
# One- and two-variable continuation
# -----------------------------------------------------------------------------

def zeta_riemann_em(t: Fraction, settings: EMSettings = DEFAULT_EM) -> Numeric:
    """Riemann zeta at any rational t != 1 by Euler-Maclaurin continuation."""
    t = Fraction(t)
    if t == 1:
        raise Pole("zeta has its pole at 1")
    with mp.workdps(settings.precision + 10):
        M0 = max(10, settings.precision // 2)
        tf = mpf_from_rational(t)
        partial = mpf(0)
        for m in range(1, M0 + 1):
            partial += mp.power(m, -tf)
        tail = em_inner_sum(Fraction(1), Fraction(M0), 1, t, settings)
        out = Numeric(
            partial + tail.value,
            tail.err + (M0 + 4) * abs(partial) * mpf(2) ** (4 - mp.prec),
        )
    return out


def zeta1_numeric(
    d1: int, gamma1: Fraction, s: Fraction, settings: EMSettings = DEFAULT_EM
) -> Numeric:
    """gamma^{-s} zeta(d1 * s) by numeric continuation (no closed Bernoulli
    formula on this path)."""
    gamma1, s = Fraction(gamma1), Fraction(s)
    t = d1 * s
    if t == 1:
        raise Pole("d1 * s = 1 is the pole of the one-variable function")
    with mp.workdps(settings.precision + 10):
        z = zeta_riemann_em(t, settings)
        if s.denominator == 1:
            return z.scale(gamma1 ** (-s.numerator))
        return z * _rational_power(gamma1, -s)


@dataclass(frozen=True)
class PowerSum2Result:
    value: Numeric
    residual: mpf
    K: int


def powersum2_numeric(
    params: PowerSumParams,
    s: Sequence[Fraction],
    settings: EMSettings = DEFAULT_EM,
) -> PowerSum2Result:
    """Two-variable continuation at an integer point s = (s1, s2), s2 <= 0.

    Applies the one-step recursion with all four blocks.  At integer s2 <= 0
    the reciprocal-Gamma factor kills the leading block exactly.  The
    remainder block is a sum of nested Euler-Maclaurin blocks weighted by
    the rational binomials C(-s2, |alpha|); its magnitude, the reported
    residual, is decided exactly from those binomials, which all vanish at
    the order K chosen here, so no block is evaluated.  The block evaluator
    ``_z_block`` is the check the tests run on the blocks themselves.
    """
    if params.n != 2:
        raise ValueError("two-variable continuation only")
    s1, s2 = (Fraction(x) for x in s)
    if s1.denominator != 1 or s2.denominator != 1 or s2 > 0:
        raise ValueError("expected integer s with s2 <= 0")
    d1, d2 = params.d
    g1, g2 = params.gamma
    # depth: 2K strictly above the continuation requirement at this point
    need = max(
        d2 * (Fraction(1, d1) + Fraction(1, d2) - (s1 + s2)),
        d2 * (Fraction(1, d2) - s2),
    )
    K = settings.K
    while 2 * K <= need:
        K += 1
    eff = EMSettings(
        K=K, truncation=settings.truncation, precision=settings.precision,
        quad=settings.quad,
    )
    with mp.workdps(settings.precision + 10):
        total = zeta1_numeric(d1, g1, s1 + s2, eff).scale(Fraction(-1, 2))
        for k in range(1, K + 1):
            if (2 * k - 1) % d2 != 0:
                continue
            m = (2 * k - 1) // d2
            c = (
                Fraction(bernoulli(2 * k), 2 * k)
                * binom_rational(-s2, m)
                * g2**m
            )
            if c == 0:
                continue
            total = total + zeta1_numeric(d1, g1, s1 + s2 + m, eff).scale(-c)
        residual = _residual_blocks(params, s1, s2, K, eff)
        total = Numeric(total.value, total.err + residual)
    return PowerSum2Result(value=total, residual=residual, K=K)


def _residual_blocks(params, s1, s2, K, settings: EMSettings) -> mpf:
    """|R(s)| at the point: sum over weighted alpha of |C(-s2,|alpha|)| times
    the magnitude of a numerically evaluated block.  The binomials are exact
    rationals and a block is evaluated only where its binomial is non-zero;
    with 2K > 1 - d2 s2 every |alpha| exceeds -s2, so at integer s2 <= 0
    none is and the residual is exactly 0."""
    d1, d2 = params.d
    g1, g2 = params.gamma
    N1 = int(-s1)  # block evaluation needs integer s1 <= 0
    residual = mpf(0)
    bern_coeffs = [mpf_from_rational(c) for c in bernoulli_poly(2 * K)]
    for alpha in weighted_partitions(2 * K, d2):
        aa = sum(alpha)
        binom = binom_rational(-s2, aa)
        if binom == 0:
            continue
        cpre, xexp = _alpha_weight(alpha, d2, g2)
        block = _z_block(
            d1, g1, d2, g2, s2 + aa, N1, xexp, bern_coeffs, settings
        )
        block = abs(block) * abs(mpf_from_rational(cpre))
        residual += abs(mpf_from_rational(binom)) * block
    return residual


def _mpf_to_fraction(x: mpf) -> Fraction:
    import mpmath

    p, q = mpmath.libmp.to_rational(x._mpf_)
    return Fraction(int(p), int(q))


def _z_block(d1, g1, d2, g2, sprime, N1, xexp, bern_coeffs, settings: EMSettings):
    """int_0^oo B_{2K}({x}) x^{xexp} S(x) dx with
    S(x) = sum_{m>=1} (g1 m^{d1})^{N1} (g1 m^{d1} + g2 x^{d2})^{-sprime},
    evaluated by swapping sum and integral; the inner sums reduce to
    continued power sums via the binomial expansion of the first factor."""
    if N1 < 0:
        raise ValueError("block evaluation needs s1 = -N1 with N1 >= 0")

    def Sval(x: mpf) -> mpf:
        acc = mpf(0)
        b = g2 * _mpf_to_fraction(x) ** d2
        for j in range(N1 + 1):
            inner = em_inner_sum(g1, b, d1, sprime - j, settings)
            w = Fraction(comb(N1, j)) * (-b) ** (N1 - j)
            acc += mpf_from_rational(w) * inner.value
        return acc

    weight = _bern_frac_weight(bern_coeffs)
    total = mpf(0)
    m = 0
    quiet = 0
    while m < 60:
        val, _est = integrate_interval_fixed(
            lambda x, mm=m: Sval(x) * x**xexp * weight(x - mm),
            Fraction(m),
            Fraction(m + 1),
            order=7,
        )
        total += val
        m += 1
        if m >= 2 and abs(val) < mpf(10) ** (-(settings.precision // 2)) * max(
            1, abs(total)
        ):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    return total


# -----------------------------------------------------------------------------
# Closed form for diagonal P: the theta-series expansion
# -----------------------------------------------------------------------------

def theta_diagonal(
    n: int, d: int, a: int | Sequence[int], N: int, c: Fraction = Fraction(1)
) -> SpecialValue:
    """Z(c (x1^d + ... + xn^d), x^a; -N) from the small-t expansion of a
    product of one-variable theta series, independent of the face periods.

    With theta_a(t) = sum_{m>=1} m^a e^{-c t m^d},

        Z = (-1)^N N! [t^N] prod_i theta_{a_i}(t),
        theta_a(t) ~ Gamma((a+1)/d)/d (ct)^{-(a+1)/d}
                     + sum_k zeta(-a-dk) (-ct)^k / k!

    (DECISIONS.md D1 is the case n = 4, d = 3, a = 0, N = 0).  A product
    that takes the singular term of the factors in J reaches t^N only when
    e_J = sum_{i in J} (a_i+1)/d is an integer, so c enters as the rational
    c^{-e_J}; each Gamma((a_i+1)/d) is reduced by Gamma(x+1) = x Gamma(x)
    to a rational times Gamma at a rational in (0,1).  The result is exact
    or mixed.  a is one exponent for every variable or one per variable.
    """
    a = (a,) * n if isinstance(a, int) else tuple(int(x) for x in a)
    c = Fraction(c)
    if n < 1 or d < 1 or N < 0 or len(a) != n or min(a) < 0 or c <= 0:
        raise ValueError("need n, d >= 1, N >= 0, a >= 0 per variable and c > 0")
    base = Fraction(0)
    terms = []
    for mask in range(1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        eJ = sum((Fraction(a[i] + 1, d) for i in J), Fraction(0))
        if eJ.denominator != 1:
            continue
        m = N + eJ.numerator
        # [t^m] of the product of the regular series of the factors not in J.
        poly = [Fraction(1)] + [Fraction(0)] * m
        for i in range(n):
            if i in J:
                continue
            reg = [
                riemann_zeta_exact_nonpositive(a[i] + d * k) * (-c) ** k / factorial(k)
                for k in range(m + 1)
            ]
            poly = [sum(poly[j] * reg[t - j] for j in range(t + 1)) for t in range(m + 1)]
        coeff = poly[m] * c ** -eJ.numerator
        gammas = []
        for i in J:
            # Gamma(x) / d = Gamma(g) g (g+1) ... (x-1) / d, g in (0, 1].
            x = Fraction(a[i] + 1, d)
            g = x - (x.numerator - 1) // x.denominator
            if g != 1:
                gammas.append(g)
            while g < x:
                coeff *= g
                g += 1
            coeff /= d
        coeff *= (-1) ** N * factorial(N)
        if gammas:
            terms.append((coeff, ConstantProduct(tuple(gammas))))
        else:
            base += coeff
    return SpecialValue.make_mixed(base, terms)
