"""Sparse multivariate polynomials over exact rationals.

Provides the derived objects the value formulas need: partial derivatives,
face restrictions (substituting 1 for one variable), the auxiliary face
products built from a composition family, and hypothesis checks
(homogeneity, face positivity via Bernstein certificates, an exact
decision of positivity and the H0S bound on [1,oo)^n).  Also
the index enumerators every value formula shares: multi-indices of a given
weight, weighted partitions and products of per-weight compositions.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor, gcd, lcm
from operator import add, sub
from typing import Mapping, Sequence

from mpmath import mpf

from .errors import CompositionMismatch, DimensionMismatch, IndexOutOfRange
from .exactnum import (Rational, _int_tuple, mpf_from_rational, multi_factorial, parse_rational,
                       rat_to_str)

MultiIndex = tuple[int, ...]

MAX_NVARS = 64  # variables a parsed polynomial may use
BERNSTEIN_DEPTH = 6  # levels of bernstein_positive's subdivision, each halving one axis


def _over_common_denominator(terms: Mapping[MultiIndex, Fraction]) -> tuple[int, dict]:
    """(L, {e: c * L}) with L the lcm of the coefficients' denominators, so
    that every scaled coefficient is an int."""
    L = lcm(*(c.denominator for c in terms.values()))
    return L, {e: c.numerator * (L // c.denominator) for e, c in terms.items()}


def combine(parts: list) -> tuple[int, dict]:
    """sum q * form over the parts (q, form), q rational: the one sum of
    rational linear combinations.  A form (L, {key: int}) means
    {key: int / L}; the sum is one form in lowest terms, L > 0 and no
    zero entry, (1, {}) when it is empty."""
    L = lcm(*(q.denominator * Lf for q, (Lf, _) in parts))
    acc: dict = {}
    get = acc.get
    for q, (Lf, ints) in parts:
        s = q.numerator * (L // (q.denominator * Lf))
        for key, x in ints.items():
            acc[key] = get(key, 0) + s * x
    g = gcd(L, *acc.values())
    return L // g, {key: x // g for key, x in acc.items() if x}


def _int_product(t1: Mapping[MultiIndex, int], t2: Mapping[MultiIndex, int]) -> dict:
    """The product of two int-coefficient term dicts."""
    out: dict[MultiIndex, int] = {}
    get = out.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


class MPoly:
    """Immutable sparse polynomial over the rationals.

    Invariant: ``terms`` maps exponent tuples of ``nvars`` non-negative ints
    to non-zero Fractions.  The public constructor checks it (and sums the
    coefficients of equal exponents); MPoly's own operations keep it and
    build their results with ``_of``, which only drops zero coefficients.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Rational] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        clean: dict[MultiIndex, Fraction] = {}
        for e, c in (terms or {}).items():
            e = _int_tuple(e, "exponent", nonneg=True)
            if len(e) != nvars:
                raise DimensionMismatch(f"exponent {e} has wrong length for {nvars} vars")
            c = Fraction(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c != 0})
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, nvars: int, terms: Mapping[MultiIndex, Fraction]) -> "MPoly":
        """A result of MPoly's own operations, whose terms keep the invariant
        apart from zero coefficients; those are dropped, nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(p, "_hash", None)
        return p

    @classmethod
    def _over(cls, nvars: int, L: int, ints: Mapping[MultiIndex, int]) -> "MPoly":
        """The polynomial {e: c / L} over ints {e: c}, one Fraction per
        nonzero term; like ``_of``, nothing is checked."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", {e: Fraction(c, L) for e, c in ints.items() if c})
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    # Constructors -----------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c: Rational) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def one(nvars: int) -> "MPoly":
        return MPoly.constant(nvars, 1)

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        """x_i with 1-based index i."""
        if not (1 <= i <= nvars):
            raise IndexOutOfRange(f"variable index {i} out of 1..{nvars}")
        e = [0] * nvars
        e[i - 1] = 1
        return MPoly(nvars, {tuple(e): Fraction(1)})

    # Basic queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def canonical_items(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # Computed on the first call: the memos keyed by MPoly hash it often.
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.nvars, tuple(self.canonical_items()))))
        return self._hash

    # Arithmetic -------------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return MPoly._of(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        """Product over the integer numerators of both factors, each over its
        common denominator; one Fraction is built per output term."""
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        L1, t1 = _over_common_denominator(self.terms)
        L2, t2 = _over_common_denominator(other.terms)
        return MPoly._over(self.nvars, L1 * L2, _int_product(t1, t2))

    def scale(self, c: Rational) -> "MPoly":
        c = Fraction(c)
        return MPoly._of(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return MPoly.one(self.nvars) if acc is None else acc

    # Evaluation -------------------------------------------------------------

    def eval(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a rational point: with D the lcm of the point's
        denominators and L that of the coefficients, the sum runs over the
        integers L * D^deg * c * x^e and one Fraction is built at the end."""
        if len(point) != self.nvars:
            raise DimensionMismatch("point has wrong length")
        pt = [Fraction(x) for x in point]
        if not self.terms:
            return Fraction(0)
        D = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (D // x.denominator) for x in pt]
        deg = self.degree()
        Dpow = [D**k for k in range(deg + 1)]
        L, ints = _over_common_denominator(self.terms)
        acc = 0
        for e, c in ints.items():
            t = c * Dpow[deg - sum(e)]
            for x, k in zip(xs, e):
                if k:
                    t *= x**k
            acc += t
        return Fraction(acc, L * Dpow[deg])

    def eval_mp(self, point: Sequence[mpf]) -> mpf:
        acc = mpf(0)
        for e, c in self.terms.items():
            t = mpf_from_rational(c)
            for x, k in zip(point, e):
                if k == 1:
                    t *= x
                elif k:
                    t *= x**k
            acc += t
        return acc

    # Calculus and substitutions ----------------------------------------------

    def derivative(self, g: Sequence[int]) -> "MPoly":
        """Iterated partial derivative with multi-index order g."""
        g = _int_tuple(g, "derivative order", nonneg=True)
        if len(g) != self.nvars:
            raise DimensionMismatch("derivative order has wrong length")
        out: dict[MultiIndex, Fraction] = {}
        for e, c in self.terms.items():
            if any(ei < gi for ei, gi in zip(e, g)):
                continue
            m = 1
            for ei, gi in zip(e, g):
                for t in range(gi):
                    m *= ei - t
            # e -> e - g is one-to-one, so no two terms meet
            out[tuple(map(sub, e, g))] = c * m
        return MPoly._of(self.nvars, out)

    def face(self, i: int) -> "MPoly":
        """Substitute 1 for variable i (1-based) and drop it."""
        if not (1 <= i <= self.nvars):
            raise IndexOutOfRange(f"face index {i} out of 1..{self.nvars}")
        out: dict[MultiIndex, Fraction] = {}
        for e, c in self.terms.items():
            ne = e[: i - 1] + e[i:]
            out[ne] = out[ne] + c if ne in out else c
        return MPoly._of(self.nvars - 1, out)

    def substitute_axis(self, axis: int, scale: Rational, offset: Rational) -> "MPoly":
        """Replace X_axis (0-based) by scale*X_axis + offset, exactly."""
        sc, off = Fraction(scale), Fraction(offset)
        out: dict[MultiIndex, Fraction] = {}
        for e, c in self.terms.items():
            k = e[axis]
            for j in range(k + 1):
                w = c * comb(k, j) * sc**j * off ** (k - j)
                if w == 0:
                    continue
                ne = e[:axis] + (j,) + e[axis + 1 :]
                out[ne] = out[ne] + w if ne in out else w
        return MPoly._of(self.nvars, out)

    # Structure --------------------------------------------------------------

    def is_homogeneous(self) -> tuple[bool, int]:
        """(True, degree) if all exponent sums agree; constants have degree 0."""
        if not self.terms:
            return True, 0
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return True, degs.pop()
        return False, -1

    def homogeneous_components(self) -> list[tuple[int, "MPoly"]]:
        buckets: dict[int, dict[MultiIndex, Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return [(d, MPoly._of(self.nvars, t)) for d, t in sorted(buckets.items())]

    # Serialization ------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = " ".join(
                f"x{j + 1}" if k == 1 else f"x{j + 1}^{k}"
                for j, k in enumerate(e)
                if k
            )
            if not mono:
                body = rat_to_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{rat_to_str(abs(c))} {mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"c": rat_to_str(c), "e": list(e)} for e, c in self.canonical_items()
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "MPoly":
        """{"nvars": n, "terms": [{"c": "p/q", "e": [e1, .., en]}, ..]};
        malformed input raises ValueError (KeyError for a missing key)."""
        try:
            if not isinstance(obj["terms"], list):
                raise TypeError("terms is not a list")
            terms: dict[MultiIndex, Fraction] = {}
            for t in obj["terms"]:
                e = tuple(t["e"])
                if any(type(x) is not int for x in e):
                    raise TypeError(f"exponent {list(e)} is not a list of integers")
                terms[e] = terms.get(e, Fraction(0)) + Fraction(t["c"])
            nvars = int(obj["nvars"])
        except (TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed polynomial JSON: {exc}") from None
        if nvars > MAX_NVARS:
            raise ValueError(f"nvars {nvars} exceeds {MAX_NVARS}")
        return MPoly(nvars, terms)

    @staticmethod
    def parse(text: str, nvars: int | None = None) -> "MPoly":
        """Parse terms like "3/2 x1^2 x3 + x2 - 1/6" (variables x1..xn)."""
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial text")
        text = text.replace("**", "^")
        chunks = re.findall(r"[+-]?[^+-]+", text)
        if sum(map(len, chunks)) != len(text):  # a sign with no term after it
            raise ValueError(f"dangling sign in {text!r}")
        parsed: list[tuple[Fraction, dict[int, int]]] = []
        maxvar = 0
        for chunk in chunks:
            chunk = chunk.strip()
            sign = Fraction(1)
            if chunk.startswith("+"):
                chunk = chunk[1:].strip()
            elif chunk.startswith("-"):
                sign = Fraction(-1)
                chunk = chunk[1:].strip()
            coeff = sign
            expo: dict[int, int] = {}
            toks = chunk.replace("*", " ").split()
            if not toks:
                raise ValueError(f"empty term in {text!r}")
            for tok in toks:
                m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", tok)
                if m:
                    v = int(m.group(1))
                    if not 1 <= v <= MAX_NVARS:
                        raise ValueError(f"variable {tok!r} is not one of x1..x{MAX_NVARS}")
                    k = int(m.group(2) or 1)
                    expo[v] = expo.get(v, 0) + k
                    maxvar = max(maxvar, v)
                else:
                    coeff *= parse_rational(tok)
            parsed.append((coeff, expo))
        n = nvars if nvars is not None else maxvar
        terms: dict[MultiIndex, Fraction] = {}
        for coeff, expo in parsed:
            if expo and max(expo) > n:
                raise DimensionMismatch(f"variable x{max(expo)} exceeds nvars={n}")
            e = tuple(expo.get(j + 1, 0) for j in range(n))
            terms[e] = terms.get(e, Fraction(0)) + coeff
        return MPoly(n, terms)

    def __repr__(self):
        return f"MPoly({self.nvars}, {self.to_text()!r})"


# -----------------------------------------------------------------------------
# Index enumeration and composition products
# -----------------------------------------------------------------------------

def _solutions(t: int, weights: Sequence[int]) -> list[MultiIndex]:
    """All x in N_0^m with sum_j weights[j]*x_j = t, in lexicographic order.
    The last coordinate is solved for, and the one before it takes only the
    values that leave the last an integer: the only partial vectors built
    are prefixes of the leading m - 2 coordinates."""
    if t < 0 or not weights:
        return [()] if t == 0 else []
    if len(weights) == 1:
        return [(t // weights[0],)] if t % weights[0] == 0 else []
    rows = [((), t)]
    for w in weights[:-2]:
        rows = [(x + (a,), r - w * a) for x, r in rows for a in range(r // w + 1)]
    wa, wb = weights[-2:]
    g = gcd(wa, wb)
    step = wb // g
    inv = pow(wa // g, -1, step)  # a = (r/g)*inv mod step solves wa*a = r mod wb
    return [x + (a, (r - wa * a) // wb) for x, r in rows if r % g == 0
            for a in range(r // g * inv % step, r // wa + 1, step)]


@lru_cache(maxsize=256)
def delta_multiindices(k: int, n: int) -> tuple[MultiIndex, ...]:
    """All g in N_0^n with |g| = k, in lexicographic order (cached: every
    value formula enumerates the same few weights again and again)."""
    return tuple(_solutions(k, (1,) * n))


def weighted_partitions(t: int, d: int) -> list[MultiIndex]:
    """All alpha in N_0^d with sum_k k*alpha_k = t, in lexicographic order."""
    return _solutions(t, range(1, d + 1)) if d >= 1 else []


def composition_tuples(totals: Sequence[int], slots: Sequence[int]) -> list[tuple[MultiIndex, ...]]:
    """All (c_1, ..., c_d) with c_k in N_0^{slots_k} and |c_k| = totals_k,
    the first entry varying slowest."""
    out: list[tuple[MultiIndex, ...]] = [()]
    for total, width in zip(totals, slots):
        out = [prefix + (c,) for prefix in out for c in delta_multiindices(total, width)]
    return out


def build_P_alpha_u(P: MPoly, i: int, alpha: Sequence[int], u) -> MPoly:
    """Auxiliary face product for a composition family u over alpha.

    (alpha!/prod_k u_k!) * prod_k prod_{|g|=k} ((d^g P at face i)/g!)^{u_{k,g}}

    The factors are multiplied as ints over one denominator.
    """
    alpha = _int_tuple(alpha, "alpha")
    if len(u) != len(alpha):
        raise CompositionMismatch(f"family has {len(u)} rows, alpha has {len(alpha)} entries")
    n = P.nvars
    coeff, den, ints = multi_factorial(alpha), 1, {(0,) * (n - 1): 1}
    for k in range(1, len(alpha) + 1):
        gammas = delta_multiindices(k, n)
        uk = u[k - 1]
        if len(uk) != len(gammas):
            raise CompositionMismatch(f"u_{k} has wrong arity")
        if sum(uk) != alpha[k - 1]:
            raise CompositionMismatch(f"|u_{k}| = {sum(uk)} != alpha_{k} = {alpha[k - 1]}")
        for g, mult in zip(gammas, uk):
            if mult:
                coeff //= factorial(mult)  # exact: a multinomial coefficient
                base = P.derivative(g).face(i).scale(Fraction(1, multi_factorial(g)))
                L, b = _over_common_denominator(base.terms)
                den *= L**mult
                for _ in range(mult):
                    ints = _int_product(ints, b)
    return MPoly._over(n - 1, den, {e: coeff * c for e, c in ints.items()})


# -----------------------------------------------------------------------------
# Positivity: Bernstein certificates and the family hypotheses
# -----------------------------------------------------------------------------

def _bernstein_coeffs(P: MPoly) -> tuple[dict[MultiIndex, Fraction], MultiIndex]:
    """Tensor Bernstein coefficients of P on [0,1]^n, with the degree vector."""
    n = P.nvars
    degs = tuple(
        max((e[j] for e in P.terms), default=0) for j in range(n)
    )
    coeffs = dict(P.terms)
    for axis in range(n):
        nd = degs[axis]
        if nd == 0:
            continue
        out: dict[MultiIndex, Fraction] = {}
        # group by the other exponents
        groups: dict[tuple, dict[int, Fraction]] = {}
        for e, c in coeffs.items():
            key = e[:axis] + e[axis + 1 :]
            groups.setdefault(key, {})[e[axis]] = c
        for key, uni in groups.items():
            for j in range(nd + 1):
                b = Fraction(0)
                for ii, a in uni.items():
                    if ii <= j:
                        b += Fraction(comb(j, ii), comb(nd, ii)) * a
                out[key[:axis] + (j,) + key[axis:]] = b
        coeffs = out
    return coeffs, degs


def _corners(degs: MultiIndex):
    n = len(degs)
    for mask in range(1 << n):
        yield tuple(degs[j] if (mask >> j) & 1 else 0 for j in range(n))


def _bernstein(P: MPoly, depth: int) -> tuple[str, tuple | None]:
    coeffs, degs = _bernstein_coeffs(P)
    if not coeffs:
        return "violated", (Fraction(0),) * P.nvars  # identically zero
    if all(v > 0 for v in coeffs.values()):
        return "certified", None
    for corner in _corners(degs):
        if coeffs.get(corner, Fraction(0)) <= 0:
            return "violated", tuple(Fraction(1 if c else 0) for c in corner)
    if depth == 0:
        return "sampled_only", None
    axis = max(range(P.nvars), key=lambda j: degs[j])
    status = "certified"
    for offset in (Fraction(0), Fraction(1, 2)):
        st, wit = _bernstein(P.substitute_axis(axis, Fraction(1, 2), offset), depth - 1)
        if st == "violated":  # back from the half's coordinates to P's
            return st, wit[:axis] + (wit[axis] / 2 + offset,) + wit[axis + 1 :]
        if st == "sampled_only":
            status = st
    return status, None


@lru_cache(maxsize=128)
def bernstein_positive(P: MPoly) -> tuple[str, tuple | None]:
    """Certify P > 0 on [0,1]^n by Bernstein-coefficient subdivision.

    Returns ("certified", None), ("violated", witness point) or
    ("sampled_only", None) when BERNSTEIN_DEPTH halvings are exhausted.  A
    witness is a corner of a dyadic sub-box, where the corner Bernstein
    coefficient is the exact value: P(witness) <= 0.  Memoised: the faces
    certified for a Z value are certified again by its periods and by the
    one-variable reduction.
    """
    return _bernstein(P, BERNSTEIN_DEPTH)


def family_hypotheses(P: MPoly) -> tuple[str, tuple | None]:
    """Decide exactly whether P is positive on [1,oo)^n and satisfies
    Essouabri's H0S bound |d^a P| << P there.

    Returns ("certified", None), ("violated", x) with x in [1,oo)^n a
    rational point where P(x) <= 0, or ("unverified", None).  The checks,
    in order:

    - Certify: P != 0 has no negative coefficient.  Then on [1,oo)^n
      P >= P(1,...,1) > 0, and x^(e-a) <= x^e gives
      |d^a P| <= max_e (e)_a * P, with (e)_a the falling factorial: H0S.
    - Refute on the box [1,8]^n: Bernstein subdivision of P(1 + 7y) on
      [0,1]^n; a violating y gives the witness x = 1 + 7y.
    - Refute on the rays 1 + t v, v = e_1, ..., e_n and (1,...,1): if
      g(t) = P(1 + t v) has a negative leading coefficient, g < 0 at any
      integer T above its Cauchy bound 1 + max_k |a_k / a_lead|, so
      x = 1 + T v is an integer witness.
    """
    n = P.nvars
    if P.terms and all(c > 0 for c in P.terms.values()):
        return "certified", None
    box = P
    for axis in range(n):
        box = box.substitute_axis(axis, 7, 1)
    st, y = bernstein_positive(box)
    if st == "violated":
        return st, tuple(1 + 7 * t for t in y)
    # Past the box check P(1,...,1) > 0, so no g below is identically 0.
    for v in [tuple(int(k == i) for k in range(n)) for i in range(n)] + [(1,) * n]:
        h: dict[int, Fraction] = {}  # g as a polynomial in s = 1 + t
        for e, c in P.terms.items():
            m = sum(k for k, vk in zip(e, v) if vk)
            h[m] = h.get(m, 0) + c
        h = {m: c for m, c in h.items() if c}
        deg = max(h)
        if h[deg] < 0:
            g = [sum(c * comb(m, k) for m, c in h.items()) for k in range(deg)]
            T = floor(1 + max((abs(a / h[deg]) for a in g), default=0)) + 1
            return "violated", tuple(Fraction(1 + T * vk) for vk in v)
    return "unverified", None
