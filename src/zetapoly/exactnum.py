"""Exact arithmetic kernel.

Big rationals, Bernoulli numbers and polynomials, generalized binomial
coefficients, shifted Pochhammer products, and error-bounded high-precision
evaluation of Gamma at rational arguments and of the Riemann zeta function.

Exact values are ``fractions.Fraction``; high-precision numerics are
``Numeric`` pairs (mpmath float, absolute error bound) so every floating
result carries a certified bound.  A ``SpecialValue`` is one of the paper's
values: a rational plus rational multiples of ``ConstantProduct``s (products
of Gamma values and irrational powers), exact when there are none, or a
``Numeric``.  Every value is a frozen ``Record`` (DECISIONS.md D20).
"""
from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache, reduce, total_ordering
from itertools import count
from math import comb, factorial, prod
from operator import index, mul
from typing import Iterable, Sequence

from mpmath import mp, mpf

from .errors import DegenerateFactor, Pole, PrecisionUnreachable

Rational = Fraction

# Hard cap on requested decimal digits for the Gamma/zeta engines.
MAX_PRECISION_DPS = 4000

DEFAULT_DPS = 50


def parse_rational(text: str) -> Fraction:
    """A rational from text such as "3/2"; ValueError if it is not one."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _int_tuple(xs, name: str, n: int | None = None, nonneg: bool = False) -> tuple[int, ...]:
    """The entries of xs as ints by ``operator.index`` (a bool counts, nothing
    is truncated; DECISIONS.md D9), with the length n and the signs checked
    when asked; every failure is a ValueError that names the argument."""
    try:
        t = tuple(map(index, xs))
    except TypeError:
        raise ValueError(f"{name} {xs!r} is not a tuple of integers") from None
    if n is not None and len(t) != n:
        raise ValueError(f"{name} {t} has length {len(t)}, need {n}")
    if nonneg and min(t, default=0) < 0:
        raise ValueError(f"{name} {t} has a negative entry")
    return t


_set = object.__setattr__  # how a frozen record's __init__ sets a field


def _fill(record, *values) -> None:
    """Set the record's fields to values, in _fields order."""
    for name, value in zip(record._fields, values):
        _set(record, name, value)


class Record:
    """A value record (DECISIONS.md D20): the fields are the class's _fields,
    each a slot, set once by its written-out __init__.  Equal within one
    class when the field tuples are, hashed and pickled as that tuple,
    shown as Name(field=value, ...), and frozen."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def rat_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def point_to_str(pt) -> str:
    """A point of rationals as "(a, b/c, ...)"."""
    return "(" + ", ".join(rat_to_str(x) for x in pt) + ")"


def mpf_from_rational(x: Fraction) -> mpf:
    """Round an exact rational into the current working precision."""
    x = Fraction(x)
    if x.denominator == 1:
        return mpf(x.numerator)
    return mpf(x.numerator) / x.denominator


# -----------------------------------------------------------------------------
# Bernoulli numbers and polynomials
# -----------------------------------------------------------------------------

_BERN_LOCK = threading.Lock()
_BERN: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# Last column of the Knuth-Buckholtz tangent-number triangle: _TAN[i] is
# T_n after pass i + 1 of its in-place O(n^2) recurrence, n = len(_TAN), so
# _TAN[-1] = T_n with tan x = sum_k T_k x^(2k-1)/(2k-1)!.
_TAN: list[int] = []
BERNOULLI_EAGER_MAX = 128


def _extend_bernoulli(upto: int) -> None:
    """Grow the table past B_upto, one triangle column per tangent number,
    from B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    with _BERN_LOCK:
        for k in range(len(_TAN) + 1, upto // 2 + 1):
            # Column k from column k - 1, in place: pass 1 gives (k-1)!; pass p
            # adds (k - p) times column k - 1's pass p to (k - p + 2) times pass p - 1.
            _TAN.append(0)
            _TAN[0] = _TAN[0] * (k - 1) if k > 1 else 1
            for i in range(1, k):
                _TAN[i] = (k - i - 1) * _TAN[i] + (k - i + 1) * _TAN[i - 1]
            q = 4**k
            _BERN.extend([Fraction((-1) ** (k - 1) * 2 * k * _TAN[-1], q * (q - 1)), Fraction(0)])


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k, with B_1 = -1/2 (generating function X/(e^X-1))."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if k >= len(_BERN):
        _extend_bernoulli(max(k, BERNOULLI_EAGER_MAX))
    return _BERN[k]


def bernoulli_tilde(k: int) -> Fraction:
    """Modified Bernoulli number: (-1)^k B_k, i.e. B_1 flipped to +1/2."""
    b = bernoulli(k)
    return -b if k % 2 == 1 else b


def bernoulli_tilde_product(m: Iterable[int]) -> Fraction:
    """prod_i bernoulli_tilde(m_i), stopping at the first zero factor."""
    w = Fraction(1)
    for mi in m:
        w *= bernoulli_tilde(mi)
        if w == 0:
            break
    return w


def bernoulli_poly(k: int) -> list[Fraction]:
    """Coefficients [c_0, ..., c_k] of B_k(x) = sum_j c_j x^j."""
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    return [comb(k, j) * bernoulli(k - j) for j in range(k + 1)]


# Build the table eagerly so concurrent readers never trigger a resize.
_extend_bernoulli(BERNOULLI_EAGER_MAX)


# -----------------------------------------------------------------------------
# Binomials, factorials, Pochhammer products, exact roots
# -----------------------------------------------------------------------------

def binom_signed(n: int, k: int) -> int:
    """Generalized binomial n(n-1)...(n-k+1)/k! for any integer n, k >= 0."""
    if k < 0:
        raise ValueError("lower index must be non-negative")
    if n >= 0:
        return comb(n, k) if k <= n else 0
    # C(-m, k) = (-1)^k C(m+k-1, k)
    return (-1) ** k * comb(-n + k - 1, k)


def _falling(x: Fraction, n: int) -> list[int]:
    """The numerators prod_{t<k} (p - t q) of the falling factorials of
    x = p/q, for k = 0..n; the k-th has the denominator q^k."""
    p, q = x.numerator, x.denominator
    out = [1]
    for t in range(n):
        out.append(out[-1] * (p - t * q))
    return out


def binom_rational(x: Fraction, k: int) -> Fraction:
    """Generalized binomial with rational upper argument x = p/q: the int
    product prod_{t<k} (p - t q) over q^k k!."""
    if k < 0:
        raise ValueError("lower index must be non-negative")
    x = Fraction(x)
    return Fraction(_falling(x, k)[k], x.denominator**k * factorial(k))


def multi_factorial(idx: Sequence[int]) -> int:
    acc = 1
    for e in idx:
        acc *= factorial(e)
    return acc


def pochhammer_shift(x: Fraction, M: int, b: int) -> Fraction:
    """Shifted Pochhammer product (x)_{M,b} = prod_{k=-M}^{b-1} (k - x).

    Exactly M + b factors.  Raises DegenerateFactor when some factor
    vanishes, which signals that x is an integer inside the index range.
    """
    if M < 0 or b < 1:
        raise ValueError("need M >= 0 and b >= 1")
    x = Fraction(x)
    acc = Fraction(1)
    for k in range(-M, b):
        f = k - x
        if f == 0:
            raise DegenerateFactor(f"factor k - x vanishes at k = {k}, x = {x}")
        acc *= f
    return acc


def _iroot(v: int, r: int) -> int:
    """floor(v^(1/r)) for an integer v >= 1, in integer arithmetic."""
    x = 1 << -(-v.bit_length() // r)  # 2^ceil(bits/r) > v^(1/r)
    while True:
        y = ((r - 1) * x + v // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def _exact_root(x: Fraction, r: int) -> Fraction | None:
    """Exact r-th root of a positive rational, or None."""
    p = _iroot(x.numerator, r)
    q = _iroot(x.denominator, r)
    if p**r != x.numerator or q**r != x.denominator:
        return None
    return Fraction(p, q)


# -----------------------------------------------------------------------------
# Error-carrying high-precision numbers
# -----------------------------------------------------------------------------

def _check_precision(precision: int) -> None:
    """Reject a digit count that is not an int or that the kernels cannot work at."""
    try:
        precision = index(precision)
    except TypeError:
        raise ValueError(f"precision must be an int, got {precision!r}") from None
    if precision < 1:
        raise ValueError(f"precision must be at least 1 digit, got {precision}")
    if precision > MAX_PRECISION_DPS:
        raise PrecisionUnreachable(
            f"precision {precision} is above the cap of {MAX_PRECISION_DPS} digits")


def _round_err(v: mpf) -> mpf:
    # Generous slack over one ulp of the current working precision.
    return mp.ldexp(abs(v), 4 - mp.prec)


class Numeric(Record):
    """A high-precision float together with an absolute error bound; its
    arithmetic rounds at the caller's working precision (mp.dps + 5 digits)."""

    __slots__ = _fields = ("value", "err")

    def __init__(self, value: mpf, err: mpf):
        _set(self, "value", value)
        _set(self, "err", err)

    @staticmethod
    def from_rational(x: Fraction) -> "Numeric":
        v = mpf_from_rational(x)
        return Numeric(v, _round_err(v))

    def __add__(self, other: "Numeric") -> "Numeric":
        with mp.extradps(5):
            v = self.value + other.value
            e = self.err + other.err + _round_err(v)
        return Numeric(v, e)

    def __mul__(self, other: "Numeric") -> "Numeric":
        with mp.extradps(5):
            v = self.value * other.value
            e = (
                abs(self.value) * other.err
                + abs(other.value) * self.err
                + self.err * other.err
                + _round_err(v)
            )
        return Numeric(v, e)

    def scale(self, c: Fraction) -> "Numeric":
        with mp.extradps(5):
            cf = mpf_from_rational(Fraction(c))
            v = self.value * cf
            e = abs(cf) * self.err + _round_err(v)
        return Numeric(v, e)

    def to_json(self, ndigits: int = 30) -> dict:
        return {
            "value": mp.nstr(self.value, ndigits),
            "err": mp.nstr(self.err, 5, min_fixed=1, max_fixed=0),
        }


# -----------------------------------------------------------------------------
# Gamma at rational arguments (shift + Stirling with rigorous remainder)
# -----------------------------------------------------------------------------

def _stirling_lngamma(z: Fraction) -> tuple[mpf, mpf]:
    """ln Gamma(z) for rational z large enough, with absolute error bound.

    Remainder after the B_{2K} term of the Stirling series is bounded by the
    first omitted term for real z > 0.  The terms run on a running odd power
    of z, and each is rounded once: the bound at k is the term added at k + 1
    (rounding to nearest is odd, so |round(t)| = round(|t|)).
    """
    zf = mpf_from_rational(z)
    target = mpf(10) ** (-(mp.dps - 4))
    s = (zf - mpf(1) / 2) * mp.log(zf) - zf + mp.log(2 * mp.pi) / 2
    z2 = z * z
    zpow = z  # z^(2k - 1)
    term = mpf_from_rational(Fraction(bernoulli(2), 2) / z)
    k = 1
    nops = 8
    while True:
        s += term
        nops += 4
        zpow *= z2
        term = mpf_from_rational(
            Fraction(bernoulli(2 * k + 2), (2 * k + 2) * (2 * k + 1)) / zpow)
        bound = abs(term)
        if bound < target:
            break
        if 2 * k > 8 * mp.dps:
            # Divergent tail reached before the target: shift was too small.
            raise PrecisionUnreachable("Stirling shift too small for target")
        k += 1
    err = bound + nops * _round_err(abs(s) + 1)
    return s, err


def gamma_rational_numeric(r: Fraction, precision: int = DEFAULT_DPS) -> Numeric:
    """Gamma(r) for rational r in (0,1) to `precision` decimal digits."""
    r = Fraction(r)
    if not (0 < r < 1):
        raise ValueError("argument must lie strictly between 0 and 1")
    return gamma_rational(r, precision)


def gamma_rational(x: Fraction, precision: int = DEFAULT_DPS) -> Numeric:
    """Gamma(x) for any rational x that is not a non-positive integer."""
    _check_precision(precision)
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise Pole(f"Gamma has a pole at {x}")
    with mp.workdps(precision + 15):
        if x.denominator == 1:
            v = mpf(factorial(x.numerator - 1))
            return Numeric(v, _round_err(v))
        # Start Stirling at x, or higher, at the fractional part shifted
        # far enough that the Stirling tail reaches the target precision.
        frac = x - (x.numerator // x.denominator)
        z = max(x, frac + int((precision + 12) / 2.6) + 2)
        lng, lerr = _stirling_lngamma(z)
        g = mp.exp(lng)
        gerr = g * (lerr + _round_err(lng)) * (1 + lerr)
        # Gamma(x) = Gamma(z) / prod over the recurrence steps, exactly rational.
        ratio = Fraction(1)
        t = x
        while t < z:
            ratio *= t
            t += 1
        rf = mpf_from_rational(ratio)
        v = g / rf
        e = gerr / abs(rf) + _round_err(v)
        return Numeric(v, e)


# -----------------------------------------------------------------------------
# Riemann zeta: exact at non-positive integers, numeric for s > 1
# -----------------------------------------------------------------------------

def riemann_zeta_exact_nonpositive(M: int) -> Fraction:
    """zeta(-M) = (-1)^M B_{M+1} / (M+1) for M >= 0."""
    if M < 0:
        raise ValueError("M must be non-negative")
    return Fraction((-1) ** M) * bernoulli(M + 1) / (M + 1)


def riemann_zeta_numeric(s: Fraction, precision: int = DEFAULT_DPS) -> Numeric:
    """zeta(s) for rational s > 1: Euler-Maclaurin tail with a closed bound."""
    _check_precision(precision)
    s = Fraction(s)
    if s <= 1:
        raise ValueError("numeric path requires s > 1")
    with mp.workdps(precision + 10):
        # The least order whose remainder bound is below 2^-prec, which the 10
        # guard digits put below 10^-(precision + 4); zeta(s) > 1, so the bound
        # stays under err's rounding term.
        target = mpf(2) ** -mp.prec
        M = max(10, precision)
        sf = mpf_from_rational(s)
        # coeffs[K - 1] = B_2K (s)_2K / ((2K)! (s + 2K - 1)), rounded once and
        # kept across doublings of M; ratio = (s)_2K / (2K)!.
        coeffs: list[mpf] = []
        ratio = Fraction(1)
        while True:
            # terms[K - 1] = coeffs[K - 1] M^(1 - s - 2K) is the order-K
            # correction, and its size bounds the remainder after it.
            power = head = mp.power(M, 1 - sf)
            step = mpf(M) ** -2
            terms: list[mpf] = []
            for K in count(1):
                if K > len(coeffs):
                    ratio *= (s + 2 * K - 2) * (s + 2 * K - 1) / ((2 * K - 1) * 2 * K)
                    coeffs.append(mpf_from_rational(bernoulli(2 * K) * ratio / (s + 2 * K - 1)))
                power *= step
                terms.append(coeffs[K - 1] * power)
                bound = abs(terms[-1])
                # Past the least term, no higher order at this M will do.
                if bound < target or (K > 1 and bound > abs(terms[-2])):
                    break
            if bound < target:
                break
            M *= 2
        total = mpf(0)
        for m in range(1, M + 1):
            total += mp.power(m, -sf)
        total += head / (sf - 1)
        total -= mp.power(M, -sf) / 2
        for t in terms:
            total += t
        err = bound + (M + K + 10) * _round_err(total)
        return Numeric(total, err)


# -----------------------------------------------------------------------------
# Symbolic constant products and special values
# -----------------------------------------------------------------------------

@total_ordering
class ConstantProduct(Record):
    """prod Gamma(f) prod b^x, rational f and x in (0, 1), b > 0, b^x irrational
    (DECISIONS.md D18).  Kept sorted, so equality is structural; hashed once
    and ordered, since a form adds its rows key by key and sorts its keys."""

    __slots__ = ("gammas", "powers", "_hash")
    _fields = __slots__[:2]

    def __init__(self, gammas: Iterable[Fraction] = (),
                 powers: Iterable[tuple[Fraction, Fraction]] = ()):
        gs = tuple(sorted(map(Fraction, gammas)))
        ps = tuple(sorted((Fraction(b), Fraction(x)) for b, x in powers))
        if any(not 0 < g < 1 for g in gs):
            raise ValueError("gamma arguments must lie in (0,1)")
        if any(b <= 0 or not 0 < x < 1 or _exact_root(b, x.denominator) for b, x in ps):
            raise ValueError("powers b^x need b > 0, x in (0,1) and b^x irrational")
        _fill(self, gs, ps)
        _set(self, "_hash", hash((gs, ps)))

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() < other._astuple()
        return NotImplemented

    def labels(self) -> list[str]:
        return [f"Gamma({rat_to_str(g)})" for g in self.gammas] + [
            f"{rat_to_str(b)}^({rat_to_str(x)})" for b, x in self.powers]

    @lru_cache(maxsize=256)
    def to_numeric(self, precision: int = DEFAULT_DPS) -> Numeric:
        """At precision + 10 digits, once per precision: each distinct Gamma
        computed once, each b^(p/q) the q-th root of b^p, rounded once."""
        with mp.workdps(precision + 10):
            gamma = {f: gamma_rational(f, precision + 10) for f in set(self.gammas)}
            roots = [mp.root(mpf_from_rational(b ** x.numerator), x.denominator)
                     for b, x in self.powers]
            factors = [gamma[f] for f in self.gammas] + [Numeric(v, _round_err(v)) for v in roots]
            return reduce(mul, factors) if factors else Numeric(mpf(1), mpf(0))


# One ConstantProduct per distinct product, checked once, keyed by its sorted
# (r, q) per Gamma(r/q) and (b's numerator and denominator, p, q) per b^(p/q).
_product = lru_cache(maxsize=1024)(lambda gs, ps: ConstantProduct(
    [Fraction(*g) for g in gs], [(Fraction(u, v), Fraction(p, q)) for u, v, p, q in ps]))


def _normal_form(gammas, powers) -> tuple[Fraction, ConstantProduct | None]:
    """prod Gamma(x) prod b^y, rational x > 0, b > 0 and y, as (c, product),
    c rational (DECISIONS.md D19): Gamma(r/q + m), r/q in (0, 1], is
    Gamma(r/q) prod_{i<m} (r + iq) / q^m, and Gamma(1) is dropped; the y are
    summed per base, and b^y goes into c when rational, else b^floor(y) does.
    c is one Fraction of ints; what is left is one ConstantProduct, the same
    object for equal products, or None."""
    num, den, fs = 1, 1, []
    for x in gammas:
        q = x.denominator
        m, r = divmod(x.numerator - 1, q)
        num, den = num * prod(range(r + 1, x.numerator, q)), den * q**m
        if r + 1 < q:
            fs.append((r + 1, q))
    ys, left = {}, []
    for b, y in powers:
        if b != 1 and y:
            ys[b] = ys[b] + y if b in ys else y
    for b, y in ys.items():
        p, q = y.numerator, y.denominator
        root = _exact_root(b, q)
        if root is None:  # b^(p/q) = b^floor(p/q) b^((p mod q)/q)
            left.append((b.numerator, b.denominator, p % q, q))
            p //= q
        else:
            b = root
        u, v = (b.numerator, b.denominator) if p >= 0 else (b.denominator, b.numerator)
        num, den = num * u ** abs(p), den * v ** abs(p)
    cp = _product(tuple(sorted(fs)), tuple(sorted(left))) if fs or left else None
    return Fraction(num, den), cp


def _flagset(flags) -> tuple[str, ...]:
    return tuple(sorted(set(flags))) if flags else ()


def _merged(terms) -> tuple[tuple[Fraction, ConstantProduct], ...]:
    """Terms (coeff, product) with the coefficients of equal products summed,
    the zero sums dropped, sorted by product."""
    merged: dict[ConstantProduct, Fraction] = {}
    for c, cp in terms:
        merged[cp] = merged[cp] + c if cp in merged else c
    return tuple((merged[cp], cp) for cp in sorted(merged) if merged[cp])


class SpecialValue(Record):
    """A value of the paper, a frozen record (DECISIONS.md D20): a rational
    plus the terms (coeff, ConstantProduct), merged, nonzero and sorted by
    product, or a Numeric, with sorted unique flags.  Its kind is "exact"
    for a rational with no terms, "mixed" for one with terms and "numeric"
    for a Numeric; ``exact`` is the rational of an exact value and ``base``
    that of a mixed one."""

    __slots__ = _fields = ("rational", "terms", "num", "flags")

    def __init__(self, rational: Fraction | None, terms=(), num: Numeric | None = None, flags=()):
        if num is None:
            rational = Fraction(rational)
            terms = _merged((Fraction(c), cp) for c, cp in terms)
        elif rational is not None or terms:
            raise ValueError("a numeric value has no rational part and no terms")
        _fill(self, rational, terms, num, _flagset(flags))

    @classmethod
    def _made(cls, rational, terms, num, flags) -> "SpecialValue":
        """The value of normalised fields, unchecked; four _sets take a third
        less time than _fill."""
        v = object.__new__(cls)
        _set(v, "rational", rational)
        _set(v, "terms", terms)
        _set(v, "num", num)
        _set(v, "flags", flags)
        return v

    kind = property(lambda self: "numeric" if self.num is not None
                    else "mixed" if self.terms else "exact")
    exact = property(lambda self: None if self.terms else self.rational)
    base = property(lambda self: self.rational if self.terms else None)

    @classmethod
    def make_exact(cls, x: Fraction, flags=()) -> "SpecialValue":
        return cls._made(Fraction(x), (), None, _flagset(flags))

    @classmethod
    def make_numeric(cls, num: Numeric, flags=()) -> "SpecialValue":
        return cls._made(None, (), num, _flagset(flags))

    @classmethod
    def make_mixed(cls, base: Fraction, terms, flags=()) -> "SpecialValue":
        return cls(base, terms, None, flags)

    def with_flags(self, flags) -> "SpecialValue":
        if not flags:
            return self
        return self._made(self.rational, self.terms, self.num, _flagset(self.flags + tuple(flags)))

    def __add__(self, other: "SpecialValue") -> "SpecialValue":
        f, g = self.flags, other.flags
        flags = _flagset(f + g) if f and g else f or g
        if self.num is not None or other.num is not None:
            return self._made(None, (), self.to_numeric(mp.dps) + other.to_numeric(mp.dps), flags)
        terms = self.terms + other.terms
        if self.terms and other.terms:
            terms = _merged(terms)
        return self._made(self.rational + other.rational, terms, None, flags)

    def scale(self, c: Fraction) -> "SpecialValue":
        c = Fraction(c)
        if self.num is not None:
            return self._made(None, (), self.num.scale(c), self.flags)
        terms = tuple((t * c, cp) for t, cp in self.terms) if self.terms and c else ()
        return self._made(self.rational * c, terms, None, self.flags)

    def to_numeric(self, precision: int = DEFAULT_DPS) -> Numeric:
        if self.num is not None:
            return self.num
        with mp.workdps(precision + 10):
            acc = Numeric.from_rational(self.rational)
            for coeff, cp in self.terms:
                acc = acc + cp.to_numeric(precision).scale(coeff)
            return acc

    def to_json(self, ndigits: int = 30) -> dict:
        if self.num is not None:
            out = {"kind": "numeric", **self.num.to_json(ndigits)}
        elif self.terms:
            out = {"kind": "mixed", "base": rat_to_str(self.rational), "terms": [
                {"coeff": rat_to_str(c), "consts": cp.labels()} for c, cp in self.terms]}
        else:
            out = {"kind": "exact", "value": rat_to_str(self.rational)}
        if self.flags:
            out["flags"] = list(self.flags)
        return out
