"""Independent numerical continuation via the Euler-Maclaurin formula.

Validates the exact value formulas at desk scale: one-variable continuation
of the power-sum zeta and the two-variable recursion near non-positive
integer points.  A one-variable sum is summed directly up to a cutoff and
continued from there by Euler-Maclaurin.  The cutoff is the first m where
a bound on the remainder integral is a millionth of the tolerance, so the
remainder enters err as that bound and is never integrated; the oracle
shares no code with the quadrature it checks.  The cutoff and the order
are chosen for the least work (DECISIONS.md D3).  What does not depend on
the shift b is computed once per key: the plan (b enters it only through
the least anchor of the integral term, which is 1 for d = 1), and the
correction sums grouped by |alpha|, which only the last exact step
combines with the powers of b + a M0^d.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, exp, factorial, lcm, log, prod
from typing import Sequence

from mpmath import mp, mpf

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
    _falling,
    _int_tuple,
    bernoulli,
    binom_rational,
    mpf_from_rational,
    riemann_zeta_exact_nonpositive,
)
from .multipoly import weighted_partitions
from .powersum import PowerSumParams


# The furthest anchor M0 an em_inner_sum may take: it sums M0 direct terms.
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


@lru_cache(maxsize=256)
def _alpha_terms(d: int, order: int) -> tuple[tuple[int, int, int], ...]:
    """(w, x-exponent, |alpha|) for each alpha weighted by j = 1..d with
    sum_j j alpha_j = order: the int w = order! prod_j C(d,j)^{alpha_j}/alpha_j!
    (prod_j alpha_j! divides |alpha|!, which divides order!, all read from
    one factorial table) and the x-exponent sum_j (d-j) alpha_j =
    d |alpha| - order of the alpha-term of f^(order)."""
    fact = [1]
    for n in range(1, order + 1):
        fact.append(fact[-1] * n)
    out = []
    for alpha in weighted_partitions(order, d):
        w, den = fact[order], 1
        for j, aj in enumerate(alpha, start=1):
            if aj:
                w *= comb(d, j) ** aj
                den *= fact[aj]
        size = sum(alpha)
        out.append((w // den, d * size - order, size))
    return tuple(out)


@lru_cache(maxsize=256)
def _neg_falling(s: Fraction) -> tuple[int, ...]:
    """exactnum._falling(-s, 2 _K_MAX), shared by every order of one s: the
    oracle takes no derivative of f above f^(2K), K <= _K_MAX, and each
    shorter falling-factorial list is a prefix of this one."""
    return tuple(_falling(-s, 2 * _K_MAX))


@lru_cache(maxsize=4096)
def _f_derivative_terms(a: Fraction, d: int, s: Fraction, order: int):
    """f^(order)(x) = order! * sum over weighted alpha of
    C(-s,|alpha|) (|alpha|!/alpha!) prod_j C(d,j)^{alpha_j} a^{|alpha|}
       * x^{sum (d-j) alpha_j} * (b + a x^d)^{-s-|alpha|}.

    Returns [(coeff, x_exponent, power_shift)] with power_shift = |alpha|,
    each coeff one reduced Fraction of ints: the |alpha|! of the binomial
    cancels against the weight's."""
    falling = _neg_falling(s)
    q, an, ad = s.denominator, a.numerator, a.denominator
    return tuple(
        (Fraction(falling[aa] * w * an**aa, (q * ad) ** aa), xexp, aa)
        for w, xexp, aa in _alpha_terms(d, order)
        if falling[aa]
    )


# -----------------------------------------------------------------------------
# Euler-Maclaurin evaluation of sum_{m>=1} (b + a m^d)^{-s}
# -----------------------------------------------------------------------------

# The share of the tolerance left to the tail bound of the remainder integral:
# the anchor is the first m where the bound is this far below tolerance, so
# that the value rests on the bound only where it is negligible.
_TAIL_SHARE = mpf("1e-6")
_K_MAX = 64
# Predicted work of an anchored evaluation, in units of one fractional
# mp.power at 35 digits (about 10 us on a 2-vCPU VM).
_DIRECT_TERM = 1.3  # one f(m): its base and one power
_CORRECTION_TERM = 0.5  # one term of an f^(2k-1) at M0, summed in ints


def _partition_count(n: int, d: int) -> int:
    """len(weighted_partitions(n, d)): the terms of f^(n), before the zero
    binomials are dropped."""
    ways = [1] + [0] * n
    for part in range(1, d + 1):
        for i in range(part, n + 1):
            ways[i] += ways[i - part]
    return ways[n]


@lru_cache(maxsize=4096)
def _tail_coefficient(d: int, s: Fraction, K: int) -> Fraction:
    """A a^s with |1/(2K)! int_m^oo f^(2K)(x) B_2K({x}) dx| <= A m^(1-p)/(p-1),
    p = d s + 2K, for every m > 0.  Each term of f^(2K) is at most
    |c| a^-(s+|alpha|) x^-p, since b >= 0 and s + |alpha| >= s + 2K/d > 1/d;
    the a^|alpha| in c cancels, so A a^s is free of a.  The terms |c| a^-|alpha|
    are summed over their common denominator q^(2K), s = -p/q."""
    n, q = 2 * K, s.denominator
    falling = _neg_falling(s)
    total = sum(abs(falling[aa]) * w * q ** (n - aa) for w, _xexp, aa in _alpha_terms(d, n))
    B = bernoulli(n)
    return Fraction(total * abs(B.numerator), q**n * B.denominator * factorial(n))


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
    continuation in s.  The formula is exact at every anchor, so M0 is
    the first m where the power tail bound of the remainder integral,
    measured against the tolerance of the sum and not of the integral, is
    _TAIL_SHARE below tolerance; the remainder is not integrated and
    enters err as that bound.  (M0, K) is the pair of least predicted work
    for which that happens by M0 = TRUNCATION.  The corrections at M0 are
    summed exactly and rounded once.  Guard digits cover the cancellation
    between the partial sum and the integral term.  At non-positive
    integer s, f is a polynomial and the formula is evaluated exactly at
    M0 = 1.  b = 0 with d >= 2 is a^{-s} zeta(d s),
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


def _em_plan(a, b, d, s, K_lo: int, target: mpf) -> tuple[int, int, mpf]:
    """(M0, K, tail): the anchor, the order and the bound of the remainder
    beyond M0, for the least predicted work with tail <= target and
    M0 <= TRUNCATION.  b enters only through M_min, the least anchor of the
    integral term's series, which is 1 for d = 1: the plan is memoised on
    the rest, with TRUNCATION as read now and the working precision."""
    M_min = 1 if d == 1 else max(1, int(float(2 * b / a) ** (1 / d)))
    while d > 1 and a * M_min**d < 2 * b:
        M_min += 1
    return _anchored_plan(a, d, s, K_lo, target, M_min, TRUNCATION, mp.prec)


@lru_cache(maxsize=256)
def _anchored_plan(a, d, s, K_lo: int, target: mpf, M_min: int, m_max: int, prec: int):
    """The search of _em_plan once M_min is known, over anchors
    M_min < M0 <= m_max; prec is the working precision mp.prec, which the
    caller holds, named so that it keys the memo.

    For each order the anchor is the first m where the bound meets target;
    the order trades that m, the direct terms, against the corrections at
    M0.  The search runs in floats; the bound of the plan it picks is then
    evaluated in working precision.  K_lo is the least order for which the
    remainder integral converges."""
    ds = d * s
    log_target = float(mp.log(target))
    log_a_s = -float(s) * _log(a)
    best = None
    worse = 0  # orders in a row that did not beat the best plan
    last = None  # bound at m_max of the previous order, while none is feasible
    corr_terms = sum(_partition_count(2 * k - 1, d) for k in range(1, K_lo))
    for K in range(K_lo, _K_MAX + 1):
        corr_terms += _partition_count(2 * K - 1, d)
        A = _tail_coefficient(d, s, K)
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
        M0 = max(M_min + 1, ceil(exp((log_A - log_target) / (p - 1))))
        cost = M0 * _DIRECT_TERM + _CORRECTION_TERM * corr_terms
        if best is None or cost < best[0]:
            best = (cost, K, M0)
            worse = 0
        else:
            worse += 1
            if worse == 2:
                break
    if best is None:
        raise ContinuationDepthInsufficient(
            f"truncation {m_max} must exceed {M_min}: the integral term needs"
            f" M0 >= {M_min}, and the anchor M0 is above {M_min} and at most TRUNCATION"
            if M_min >= m_max
            else f"remainder tail bound not below tolerance at any anchor"
            f" M0 <= TRUNCATION = {m_max}"
        )
    _, K, M0 = best
    A = mpf_from_rational(_tail_coefficient(d, s, K)) * _rational_power(a, -s).value
    p = mpf_from_rational(ds + 2 * K)
    tail = A * mpf(M0) ** (1 - p) / (p - 1)
    while tail > target:  # float rounding in the search
        M0 += 1
        tail = A * mpf(M0) ** (1 - p) / (p - 1)
    return M0, K, tail


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
    M0, K, tail = _em_plan(a, b, d, s, K_lo, tol * _TAIL_SHARE)
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
        # f(M0)/2 and the odd-derivative corrections at M0, rounded once
        corr = mpf_from_rational(_corrections(a, d, s, K, M0, base))
        corr *= _rational_power(base, -s).value
        total -= corr
        mag += abs(integral.value) + abs(corr)
        err = integral.err + tail + (M0 + K + 16) * mag * mpf(2) ** (4 - mp.prec)
    return Numeric(total, err)


def _corrections(a, d, s, K, M0, base: Fraction) -> Fraction:
    """1/2 + sum_{k<=K} B_2k/(2k)! f^(2k-1)(M0) base^s, exactly.  Each term
    of f^(2k-1)(M0) is c M0^xexp base^(-s) base^(-|alpha|); the int groups
    of _correction_groups, one per |alpha|, meet over the powers of base,
    one int table of each of its parts.  Only this step sees b."""
    L, groups = _correction_groups(a, d, s, K, M0)
    qa = s.denominator * a.denominator
    # g / (L qa^aa) base^(-aa) = g bd^aa (qa bn)^(top-aa) / (L (qa bn)^top)
    top = max((aa for aa, _ in groups), default=0)
    up, down = [1], [1]  # bd^i and (qa bn)^i
    for _ in range(top):
        up.append(up[-1] * base.denominator)
        down.append(down[-1] * qa * base.numerator)
    num = L * down[top] + 2 * sum(g * up[aa] * down[top - aa] for aa, g in groups)
    return Fraction(num, 2 * L * down[top])


@lru_cache(maxsize=256)
def _correction_groups(a, d, s, K, M0) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(L, ((|alpha|, g), ...)): the terms of every k <= K summed in ints by
    |alpha|, each group over the common denominator (q a.den)^|alpha| L, L
    the lcm of the B_2k.den (2k)!.  Free of b, so shared by every shift."""
    qa = s.denominator * a.denominator
    scales = [(bernoulli(2 * k), factorial(2 * k)) for k in range(1, K + 1)]
    L = lcm(*(B.denominator * fk for B, fk in scales))
    groups: dict[int, int] = {}
    for k, (B, fk) in enumerate(scales, start=1):
        scale = B.numerator * (L // (B.denominator * fk))
        for c, xexp, aa in _f_derivative_terms(a, d, s, 2 * k - 1):
            term = scale * c.numerator * (qa**aa // c.denominator) * M0**xexp
            groups[aa] = groups.get(aa, 0) + term
    return L, tuple(groups.items())


def _em_polynomial(a: Fraction, b: Fraction, d: int, N: int) -> Fraction:
    """The anchored formula at M0 = 1 for the polynomial f = (b + a x^d)^N,
    in exact arithmetic.  f^(2K) vanishes for 2K > dN, so there is no
    remainder, and the continued integral term is closed:
    -(b + a)^(N+1) / (a (N+1)) for d = 1, and for d >= 2 the finite sum
    -sum_i C(N, i) b^(N-i) a^i / (d i + 1)."""
    e = b + a  # the base at M0 = 1
    if d == 1:
        integral = -e ** (N + 1) / (a * (N + 1))
    else:
        integral = -sum(comb(N, i) * b ** (N - i) * a**i / (d * i + 1) for i in range(N + 1))
    return integral + e**N * (1 - _corrections(a, d, Fraction(-N), (d * N + 1) // 2, 1, e))


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
    a = _int_tuple((a,) * n if isinstance(a, int) else a, "a", n, nonneg=True)
    c = tuple(map(Fraction, c)) if isinstance(c, (list, tuple)) else (Fraction(c),) * n
    if len(c) != n or min(c) <= 0:
        raise ValueError("need c > 0 per variable")
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
