"""Independent numerical continuation via the Euler-Maclaurin formula.

Validates the exact value formulas at desk scale: one-variable continuation
of the power-sum zeta and the two-variable recursion near non-positive
integer points.  A one-variable sum is summed directly up to a cutoff and
continued from there by Euler-Maclaurin, with the remainder integral
computed numerically instead of dropped: on each unit interval, one
Gauss-Legendre rule whose weights carry the fractional-part Bernoulli
weight B_2K at its nodes, built once per (K, order, precision).  The cutoff
and the order are chosen for the least work (DECISIONS.md D3).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, exp, factorial, log, prod
from typing import Sequence

from mpmath import mp, mpf

from ._quadrature import gauss_legendre_01, rounding_floor
from .errors import (
    ContinuationDepthInsufficient,
    DomainViolation,
    Pole,
)
from .exactnum import (
    ConstantProduct,
    Numeric,
    SpecialValue,
    _check_precision,
    _exact_root,
    bernoulli,
    bernoulli_poly,
    binom_rational,
    mpf_from_rational,
    riemann_zeta_exact_nonpositive,
)
from .multipoly import weighted_partitions
from .powersum import PowerSumParams


# The furthest unit step m an em_inner_sum may reach, direct terms and
# remainder intervals together.
TRUNCATION = 400


@dataclass(frozen=True)
class EMSettings:
    """precision: the requested digits, from 1 up to MAX_PRECISION_DPS."""

    precision: int = 30

    def __post_init__(self):
        _check_precision(self.precision)


DEFAULT_EM = EMSettings()

# The least order of the two-variable recursion of powersum2_numeric
# (em_inner_sum chooses its own).
_K_MIN = 8


# -----------------------------------------------------------------------------
# The model function f(x) = (b + a x^d)^{-s} and its derivatives
# -----------------------------------------------------------------------------

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

# The share of the tolerance left to the tail bound of the remainder integral:
# the loop runs until the bound is this far below tolerance, so that err is
# set by the computed remainder and not by where the loop stopped.
_TAIL_SHARE = mpf("1e-6")
_K_MAX = 64
# Predicted work of an anchored evaluation, in units of one fractional
# mp.power at 35 digits (about 20 us; an mpf product is about 1/8 of one).
_DIRECT_TERM = 1.3  # one f(m): its base and one power
_RULE = 15  # the Gauss-Legendre order of the remainder intervals
_NODES_PER_INTERVAL = 23  # the order-15 rule and its order-8 companion


def _partition_count(n: int, d: int) -> int:
    """len(weighted_partitions(n, d)): the terms of f^(n), before the zero
    binomials are dropped."""
    ways = [1] + [0] * n
    for part in range(1, d + 1):
        for i in range(part, n + 1):
            ways[i] += ways[i - part]
    return ways[n]


@lru_cache(maxsize=4096)
def _tail_coefficient(a: Fraction, d: int, s: Fraction, K: int) -> Fraction:
    """A a^s with |1/(2K)! int_m^oo f^(2K)(x) B_2K({x}) dx| <= A m^(1-p)/(p-1),
    p = d s + 2K, for every m > 0.  Each term of f^(2K) is at most
    |c| a^-(s+|alpha|) x^-p, since b >= 0 and s + |alpha| >= s + 2K/d > 1/d."""
    acc = Fraction(0)
    for c, _xexp, aa in _f_derivative_terms(a, d, s, 2 * K):
        acc += abs(c) * a**-aa
    return acc * abs(bernoulli(2 * K)) / factorial(2 * K)


def em_inner_sum(
    a: Fraction, b: Fraction, d: int, s: Fraction, settings: EMSettings = DEFAULT_EM
) -> Numeric:
    """Continued value of sum_{m>=1} (b + a m^d)^{-s}, by Euler-Maclaurin
    summation anchored at a cutoff M0 (DECISIONS.md D3):

        sum_{m<=M0} f(m) + int_{M0}^oo f - f(M0)/2
          - sum_{k<=K} B_2k/(2k)! f^(2k-1)(M0)
          - 1/(2K)! int_{M0}^oo f^(2K)(x) B_2K({x}) dx.

    The integral term is closed for d = 1 and a binomial series for d >= 2
    (M0 is then at least (2b/a)^(1/d)); both are its meromorphic
    continuation in s.  The remainder integral is computed over unit
    intervals from M0 until its power tail bound, measured against the
    tolerance of the sum and not of the integral, is _TAIL_SHARE below
    tolerance.  (M0, K) is the pair of least predicted work for which that
    happens by m = TRUNCATION.  Guard
    digits cover the cancellation between the partial sum and the integral
    term.  At non-positive integer s, f is a polynomial and the formula is
    evaluated exactly at M0 = 1.  b = 0 with d >= 2 is a^{-s} zeta(d s),
    evaluated as the case d = 1.
    """
    a, b, s = Fraction(a), Fraction(b), Fraction(s)
    if a <= 0 or b < 0:
        raise DomainViolation("need a > 0 and b >= 0")
    if not isinstance(d, int) or d < 1:
        raise DomainViolation(f"need an int degree d >= 1, got {d!r}")
    with mp.workdps(settings.precision + 10):
        if b == 0 and d > 1:
            return em_inner_sum(Fraction(1), b, 1, d * s, settings) * _rational_power(a, -s)
        return _em_anchored(a, b, d, s, settings)


def _log(x: Fraction) -> float:
    return log(x.numerator) - log(x.denominator)


def _em_plan(a, b, d, s, K_lo: int, target: mpf) -> tuple[int, int, int, mpf]:
    """(M0, K, m_end, tail): the anchor, the order, the end of the remainder
    loop and the bound of the remainder beyond m_end, for the least
    predicted work with tail <= target and m_end <= TRUNCATION.

    Direct terms cost less than remainder intervals, so the anchor sits one
    interval below the first m where the bound meets target; the order
    trades that m against the terms of f^(2K) at every node and the
    corrections at M0.  The search runs in floats; the bound of the plan
    it picks is then evaluated in working precision.  K_lo is the least
    order for which the remainder integral converges."""
    ds = d * s
    M_min = 1 if d == 1 else max(1, int(float(2 * b / a) ** (1 / d)))
    while d > 1 and a * M_min**d < 2 * b:
        M_min += 1
    m_max = TRUNCATION
    log_target = float(mp.log(target))
    log_a_s = -float(s) * _log(a)
    best = None
    worse = 0  # orders in a row that did not beat the best plan
    last = None  # bound at m_max of the previous order, while none is feasible
    corr_terms = sum(_partition_count(2 * k - 1, d) for k in range(1, K_lo))
    for K in range(K_lo, _K_MAX + 1):
        corr_terms += _partition_count(2 * K - 1, d)
        A = _tail_coefficient(a, d, s, K)
        p = float(ds + 2 * K)
        log_A = _log(A) + log_a_s - log(p - 1)  # log of the bound at m = 1
        at_max = log_A + (1 - p) * log(m_max)
        if at_max > log_target or M_min >= m_max:
            # The bound at m_max falls and then rises with K: once it
            # rises, no higher order will do.
            if best is not None or (last is not None and at_max > last):
                break
            last = at_max
            continue
        m_end = max(M_min + 1, ceil(exp((log_A - log_target) / (p - 1))))
        # A node: one power and a reciprocal, the Horner step of degree 2K,
        # and four products per term of f^(2K).
        node = 1.2 + K / 4 + 0.5 * _partition_count(2 * K, d)
        cost = (m_end - 1) * _DIRECT_TERM + _NODES_PER_INTERVAL * node + 0.5 * corr_terms
        if best is None or cost < best[0]:
            best = (cost, K, m_end)
            worse = 0
        else:
            worse += 1
            if worse == 2:
                break
    if best is None:
        raise ContinuationDepthInsufficient(
            f"truncation {m_max} must exceed {M_min}: the integral term needs"
            f" M0 >= {M_min} and one remainder interval above it"
            if M_min >= m_max
            else f"remainder tail not below tolerance within {m_max} intervals"
        )
    _, K, m_end = best
    A = mpf_from_rational(_tail_coefficient(a, d, s, K)) * _rational_power(a, -s).value
    p = mpf_from_rational(ds + 2 * K)
    tail = A * mpf(m_end) ** (1 - p) / (p - 1)
    M0 = m_end - 1
    while tail > target:  # float rounding in the search
        m_end += 1
        tail = A * mpf(m_end) ** (1 - p) / (p - 1)
    return M0, K, m_end, tail


def _em_anchored(a, b, d, s, settings: EMSettings) -> Numeric:
    # The poles: s = 1 for d = 1, s = 1/d - j (j = 0, 1, ...) for d >= 2.
    j = Fraction(1, d) - s
    if j == 0 or (d > 1 and j.denominator == 1 and j > 0):
        raise Pole(f"the integral term has a pole at s = {s}")
    need = 1 - d * s  # the remainder integral converges for 2K > 1 - d s
    K_lo = max(1, int(need // 2) + 1)
    if K_lo > _K_MAX:
        raise ContinuationDepthInsufficient(
            f"order K = {K_lo} above the cap {_K_MAX}; need K > {need / 2}"
        )
    if s.denominator == 1 and s <= 0:
        return Numeric.from_rational(_em_polynomial(a, b, d, -s.numerator))
    tol = mpf(10) ** (-(settings.precision + 2))
    M0, K, m_end, tail = _em_plan(a, b, d, s, K_lo, tol * _TAIL_SHARE)
    rem, rem_err = _remainder_integral(a, b, d, s, K, M0, m_end)
    base = b + a * M0**d
    # The partial sum and the integral term are each about M0 f(M0) and
    # cancel down to the sum; guard digits keep the working precision's
    # 10 spare digits for that cancellation up to M0 f(M0) = 10^6.
    size = mp.log10(M0) - mpf_from_rational(s) * mp.log10(mpf_from_rational(base))
    with mp.extradps(max(0, int(size) - 6)):
        af, bf, sf = mpf_from_rational(a), mpf_from_rational(b), mpf_from_rational(s)
        direct = [mp.power(bf + af * m**d, -sf) for m in range(1, M0 + 1)]
        total = mp.fsum(direct)
        mag = mp.fsum(abs(v) for v in direct)
        if d == 1:
            integral = _rational_power(base, 1 - s).scale(1 / (a * (s - 1)))
        else:
            integral = _tail_integral(a, b, d, s, M0, tol * _TAIL_SHARE)
        total += integral.value
        # f(M0)/2 and the odd-derivative corrections at M0: each term of
        # f^(2k-1)(M0) is c M0^xexp base^(-s) base^(-|alpha|), one power in all.
        inv = 1 / mpf_from_rational(base)
        corr = mpf(1) / 2
        corr_mag = corr
        for k in range(1, K + 1):
            w = Fraction(bernoulli(2 * k), factorial(2 * k))
            for c, xexp, aa in _f_derivative_terms(a, d, s, 2 * k - 1):
                t = mpf_from_rational(w * c * M0**xexp) * inv**aa
                corr += t
                corr_mag += abs(t)
        pw = _rational_power(base, -s).value
        total -= pw * corr + rem
        mag += abs(integral.value) + abs(pw) * corr_mag + abs(rem)
        err = integral.err + rem_err + tail + (M0 + K + 16) * mag * mpf(2) ** (4 - mp.prec)
    return Numeric(total, err)


def _em_polynomial(a: Fraction, b: Fraction, d: int, N: int) -> Fraction:
    """The anchored formula at M0 = 1 for the polynomial f = (b + a x^d)^N,
    in exact arithmetic.  f^(2K) vanishes for 2K > dN, so there is no
    remainder, and the continued integral term is closed:
    -(b + a)^(N+1) / (a (N+1)) for d = 1, and for d >= 2 the finite sum
    -sum_i C(N, i) b^(N-i) a^i / (d i + 1)."""
    f1 = (b + a) ** N
    if d == 1:
        total = f1 / 2 - (b + a) ** (N + 1) / (a * (N + 1))
    else:
        total = f1 / 2 - sum(
            Fraction(comb(N, i) * b ** (N - i) * a**i, d * i + 1) for i in range(N + 1)
        )
    for k in range(1, (d * N + 1) // 2 + 1):
        terms = _f_derivative_terms(a, d, Fraction(-N), 2 * k - 1)
        fd = sum(c * (b + a) ** (N - aa) for c, _xexp, aa in terms)
        total -= Fraction(bernoulli(2 * k), factorial(2 * k)) * fd
    return total


def _tail_integral(a, b, d, s, M0, target: mpf) -> Numeric:
    """Continued int_{M0}^oo (b + a x^d)^{-s} dx for d >= 2 and
    r = b/(a M0^d) <= 1/2, by the binomial series

        a^{-s} M0^(1-ds) sum_j C(-s, j) r^j / (d s + d j - 1),

    whose terms converge uniformly for Re s large and are each continued;
    the caller excludes its poles, where 1/d - s is a non-negative integer.
    Once d(s + j) > 1, every later ratio of terms is at most
    rho = r max(1, (j + |s|)/(j + 1)), so when rho < 1 the rest is at most
    |next term| / (1 - rho); the sum stops once that is below target."""
    r = mpf_from_rational(b / (a * M0**d))
    sf = mpf_from_rational(s)
    lead = abs(_rational_power(a, -s).value * _rational_power(M0, 1 - d * s).value)
    total = mpf(0)
    mass = mpf(0)
    coeff = mpf(1)  # C(-s, j) r^j
    j = 0
    while True:
        term = coeff / (d * (sf + j) - 1)
        total += term
        mass += abs(term)
        coeff *= (-sf - j) * r / (j + 1)
        j += 1
        if d * (s + j) > 1:
            rho = r * max(1, (j + abs(sf)) / (j + 1))
            if rho < 1:
                trunc = abs(coeff) / (d * (sf + j) - 1) / (1 - rho)
                if trunc * lead <= target:
                    break
    err = lead * (trunc + (j + 8) * mass * mpf(2) ** (4 - mp.prec))
    return Numeric(lead * total, err)


@lru_cache(maxsize=64)
def _remainder_rule(K: int, order: int, prec: int) -> tuple[tuple[mpf, ...], tuple[mpf, ...]]:
    """The nodes t_i of the order-point Gauss-Legendre rule on [0, 1] and
    its weights times B_2K(t_i), at prec bits: on every unit interval
    [m, m + 1], B_2K({x}) is B_2K(t_i) at the node m + t_i.  B_2K is
    evaluated by Horner's rule with 30 guard bits, and each weight is
    rounded once."""
    with mp.workprec(prec):
        nodes, weights = gauss_legendre_01(order)
        with mp.extraprec(30):
            bern = [mpf_from_rational(c) for c in reversed(bernoulli_poly(2 * K))]
            cw = []
            for t, w in zip(nodes, weights):
                acc = mpf(0)
                for c in bern:
                    acc = acc * t + c
                cw.append(acc * w)
        return tuple(nodes), tuple(+c for c in cw)


def _remainder_integral(a, b, d, s, K, M0, m_end):
    """1/(2K)! int_{M0}^{m_end} f^(2K)(x) B_2K({x}) dx over unit intervals,
    each the weighted rule sum_i c_i f^(2K)(m + t_i) of _remainder_rule,
    with the summed estimates |I_15 - I_8| + absmass * rounding_floor.  At
    each node the base b + a x^d is formed once and raised to -s once; the
    |alpha| shifts are integer powers of its reciprocal, from the least
    |alpha| up."""
    scale = Fraction(1, factorial(2 * K))
    terms = [
        (mpf_from_rational(c * scale), xexp, aa)
        for c, xexp, aa in _f_derivative_terms(a, d, s, 2 * K)
    ]
    max_x = max(xexp for _, xexp, _ in terms)
    min_aa = min(aa for _, _, aa in terms)
    max_aa = max(aa for _, _, aa in terms)
    af, bf, sf = mpf_from_rational(a), mpf_from_rational(b), mpf_from_rational(s)

    def f2k(x: mpf) -> mpf:
        base = bf + af * x**d
        inv = 1 / base
        inv_pows = [inv**min_aa]
        for _ in range(min_aa, max_aa):
            inv_pows.append(inv_pows[-1] * inv)
        x_pows = [mpf(1)]
        for _ in range(max_x):
            x_pows.append(x_pows[-1] * x)
        acc = mpf(0)
        for cf, xexp, aa in terms:
            acc += cf * x_pows[xexp] * inv_pows[aa - min_aa]
        return acc * mp.power(base, -sf)

    rules = [_remainder_rule(K, order, mp.prec) for order in (_RULE, (_RULE + 1) // 2)]
    floor = rounding_floor(mp.prec)
    total = mpf(0)
    err = mpf(0)
    for m in range(M0, m_end):
        (val, absmass), (val_lo, _) = (_weighted_sum(f2k, m, rule) for rule in rules)
        total += val
        err += abs(val - val_lo) + absmass * floor
    return total, err


def _weighted_sum(f, m: int, rule) -> tuple[mpf, mpf]:
    """sum_i c_i f(m + t_i) and sum_i |c_i f(m + t_i)|."""
    val = mpf(0)
    absmass = mpf(0)
    for t, c in zip(*rule):
        v = c * f(m + t)
        val += v
        absmass += abs(v)
    return val, absmass


# -----------------------------------------------------------------------------
# One- and two-variable continuation
# -----------------------------------------------------------------------------

def zeta_riemann_em(t: Fraction, settings: EMSettings = DEFAULT_EM) -> Numeric:
    """Riemann zeta at any rational t != 1 by Euler-Maclaurin continuation:
    the anchored sum of m^{-t}."""
    t = Fraction(t)
    if t == 1:
        raise Pole("zeta has its pole at 1")
    return em_inner_sum(Fraction(1), Fraction(0), 1, t, settings)


def zeta1_numeric(
    d1: int, gamma1: Fraction, s: Fraction, settings: EMSettings = DEFAULT_EM
) -> Numeric:
    """gamma^{-s} zeta(d1 * s) by numeric continuation (no closed Bernoulli
    formula on this path)."""
    gamma1, s = Fraction(gamma1), Fraction(s)
    if not isinstance(d1, int) or d1 < 1:
        raise DomainViolation(f"need an int degree d1 >= 1, got {d1!r}")
    if gamma1 <= 0:
        raise DomainViolation(f"need gamma1 > 0, got {gamma1}")
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
    remainder block is a sum of nested Euler-Maclaurin blocks, one per alpha
    in N_0^d2 with sum_j j alpha_j = 2K, weighted by the rational binomials
    C(-s2, |alpha|); its magnitude is the reported residual.  It is exactly
    0: the order K of ``_order`` has 2K > 1 - d2 s2, so |alpha| >= 2K / d2
    > 1/d2 - s2 > -s2, and C(-s2, n) = 0 for integers n > -s2 >= 0.
    """
    if params.n != 2:
        raise ValueError("two-variable continuation only")
    s1, s2 = (Fraction(x) for x in s)
    if s1.denominator != 1 or s2.denominator != 1 or s2 > 0:
        raise ValueError("expected integer s with s2 <= 0")
    d1, d2 = params.d
    g1, g2 = params.gamma
    K = _order(d1, d2, s1, s2)
    with mp.workdps(settings.precision + 10):
        total = zeta1_numeric(d1, g1, s1 + s2, settings).scale(Fraction(-1, 2))
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
            total = total + zeta1_numeric(d1, g1, s1 + s2 + m, settings).scale(-c)
        residual = mpf(0)  # exactly, as above; adding it rounds err to the working precision
        total = Numeric(total.value, total.err + residual)
    return PowerSum2Result(value=total, residual=residual, K=K)


def _order(d1: int, d2: int, s1: Fraction, s2: Fraction) -> int:
    """The least K >= _K_MIN with 2K strictly above the continuation
    requirement at (s1, s2), which includes 2K > 1 - d2 s2."""
    need = max(
        d2 * (Fraction(1, d1) + Fraction(1, d2) - (s1 + s2)),
        d2 * (Fraction(1, d2) - s2),
    )
    K = _K_MIN
    while 2 * K <= need:
        K += 1
    return K


# -----------------------------------------------------------------------------
# Closed form for diagonal P: the theta-series expansion
# -----------------------------------------------------------------------------

def theta_diagonal(
    n: int, d: int, a: int | Sequence[int], N: int, c: Fraction | Sequence[Fraction] = 1
) -> SpecialValue:
    """Z(c_1 x1^d + ... + c_n xn^d, x^a; -N) from the small-t expansion of a
    product of one-variable theta series, independent of the face periods.

    With theta_a(t; c) = sum_{m>=1} m^a e^{-c t m^d},

        Z = (-1)^N N! [t^N] prod_i theta_{a_i}(t; c_i),
        theta_a(t; c) ~ Gamma((a+1)/d)/d (ct)^{-(a+1)/d}
                        + sum_k zeta(-a-dk) (-ct)^k / k!

    (DECISIONS.md D1 is the case n = 4, d = 3, a = 0, N = 0, c = 1).  A
    product that takes the singular term of the factors in J reaches t^N
    only when e_J = sum_{i in J} (a_i+1)/d is an integer; the c_i then enter
    through the d-th root of prod_{i in J} c_i^(a_i+1), which must be
    rational (it is for c_i = k_i^d, k_i rational, and for equal c_i); each
    Gamma((a_i+1)/d) is reduced by Gamma(x+1) = x Gamma(x) to a rational
    times Gamma at a rational in (0,1).  The result is exact or mixed.  a
    and c are each one value for every variable or one per variable.
    """
    if not all(isinstance(x, int) for x in (n, d, N)) or n < 1 or d < 1 or N < 0:
        raise ValueError(f"need ints n, d >= 1 and N >= 0, got n={n!r}, d={d!r}, N={N!r}")
    a = (a,) * n if isinstance(a, int) else tuple(int(x) for x in a)
    c = tuple(map(Fraction, c)) if isinstance(c, (list, tuple)) else (Fraction(c),) * n
    if len(a) != n or min(a) < 0 or len(c) != n or min(c) <= 0:
        raise ValueError("need a >= 0 and c > 0 per variable")
    base = Fraction(0)
    terms = []
    for mask in range(1 << n):
        J = [i for i in range(n) if mask >> i & 1]
        eJ = sum((Fraction(a[i] + 1, d) for i in J), Fraction(0))
        if eJ.denominator != 1:
            continue
        scale = _exact_root(prod((c[i] ** (a[i] + 1) for i in J), start=Fraction(1)), d)
        if scale is None:
            raise ValueError(f"no rational {d}-th root of prod c_i^(a_i+1), 0-based i in {J}")
        m = N + eJ.numerator
        # [t^m] of the product of the regular series of the factors not in J.
        poly = [Fraction(1)] + [Fraction(0)] * m
        for i in range(n):
            if i in J:
                continue
            reg = [
                riemann_zeta_exact_nonpositive(a[i] + d * k) * (-c[i]) ** k / factorial(k)
                for k in range(m + 1)
            ]
            poly = [sum(poly[j] * reg[t - j] for j in range(t + 1)) for t in range(m + 1)]
        coeff = poly[m] / scale
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
