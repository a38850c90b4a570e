"""Adaptive tensor-product Gauss-Legendre quadrature in working precision.

Cells are dyadic sub-boxes of the unit cube with exact rational corners;
each cell carries an embedded error estimate (high-order rule minus a
lower-order rule on the same cell).  Accumulation order is fixed so results
are bit-reproducible at a given precision.

An integrand is either a ``FixedPointIntegrand`` -- a polynomial over a
power of a positive polynomial, compiled to Python-int fixed point -- or a
function on tensor grids.  The first kind is evaluated
on every node of a cell at once: the weighted cell sums are exact integers,
rounded once, and every rounding before them is counted into the cell's
estimate.  A grid function takes one list of coordinates per axis and
returns its values at every point of their product, in row-major order
(last axis fastest), one call per rule and cell.

``cube_integral`` is the one entry for integrals of numer / den^k over the
unit cube.  Three exact reductions write x^e / den^k as a form
{None: rational, key: q} over named constants: an affine den (D12, logs),
a den of one variable (D10, masters int_0^1 x^i / den) and a diagonal den
c + sum a_j x_j^d (D14).  ``form_value`` is the one evaluator of a sum of
forms, and ``constant`` the one memo of the constants it leaves: a Z value
sums the forms of all its buckets first, and ``cube_integral`` evaluates
the form of its one quotient, else runs the quadrature.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from math import comb, factorial, gcd, inf, lcm, prod
from operator import add, mul
from typing import Callable, Sequence

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_ceiling, round_nearest

from .errors import (
    DimensionMismatch,
    NotElliptic,
    PrecisionUnreachable,
    QuadratureDidNotConverge,
)
from .exactnum import Numeric, SpecialValue, _check_precision, _round_err, mpf_from_rational
from .multipoly import MPoly, bernstein_positive

_GL_CACHE: dict[tuple[int, int], tuple[list[mpf], list[mpf]]] = {}

_MAX_CELLS = 4000  # cells an adaptive cube quadrature may split into


def gauss_legendre_01(order: int) -> tuple[list[mpf], list[mpf]]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0,1]."""
    key = (order, mp.prec)
    hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit
    with mp.extradps(10):
        nodes: list[mpf] = []
        weights: list[mpf] = []
        for i in range(1, order + 1):
            # Newton iteration from the Chebyshev estimate.
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (order + mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(10) ** (-(mp.dps - 5)):
                    break
            p0, p1 = mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x + 1) / 2)
            weights.append(w / 2)
    order_idx = sorted(range(order), key=lambda i: nodes[i])
    pair = ([+nodes[i] for i in order_idx], [+weights[i] for i in order_idx])
    _GL_CACHE[key] = pair
    return pair


# f(axes) -> values at every point of the product of axes, last axis fastest.
Integrand = Callable[[Sequence[Sequence[mpf]]], Sequence[mpf]]


def rounding_floor(prec: int) -> mpf:
    """Relative rounding error charged per cell at `prec` bits.

    Each cell's estimate includes absmass * rounding_floor(prec), so the
    summed estimate never falls below rounding_floor(prec) * |total|.
    """
    return mpf(2) ** (6 - prec)


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and digits of ``cube_integral``, which integrates at
    precision + 10 digits; precision runs from 1 up to MAX_PRECISION_DPS."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-30
    precision: int = 50

    def __post_init__(self):
        if not (0 < self.rel_tol < inf and 0 < self.abs_tol < inf):
            raise ValueError("tolerances must be positive and finite")
        _check_precision(self.precision)
        # At or below the rounding floor refinement cannot converge.
        dps = self.precision + 10
        floor = rounding_floor(dps_to_prec(dps))
        if self.rel_tol <= floor:
            raise PrecisionUnreachable(
                f"rel_tol {self.rel_tol:g} is at or below the rounding floor "
                f"{mp.nstr(floor, 3)} of {dps}-digit quadrature; raise the precision"
            )


DEFAULT_QS = QuadratureSettings()


# -----------------------------------------------------------------------------
# Fixed-point integrands
# -----------------------------------------------------------------------------

# (order, prec, F) -> (node numerators, their exponent L, weights, their sum,
# their minimum): the nodes of gauss_legendre_01 exactly, as integers over
# 2^L, and its weights rounded to integers at scale 2^F.
_FIXED_RULES: dict[tuple[int, int, int], tuple[list[int], int, list[int], int, int]] = {}


def _mpf_int(x: mpf, F: int) -> int:
    """x * 2^F rounded to the nearest integer."""
    sign, man, exp, _ = x._mpf_
    sh = exp + F
    v = man << sh if sh >= 0 else (man + (1 << (-sh - 1))) >> -sh
    return -v if sign else v


def _dyadic_add(acc: tuple[int, int], x: mpf, sign: int = 1) -> tuple[int, int]:
    """acc + sign * x, exactly, for acc = (m, e) meaning m * 2^e: mpf values
    are dyadic.  The sign is read from _mpf_, since mpf.man_exp drops it."""
    s, man, exp, _ = x._mpf_
    m, e = acc
    if exp < e:
        m, e = m << (e - exp), exp
    return m + (-sign if s else sign) * (man << (exp - e)), e


def _frac_int(c: Fraction, F: int) -> int:
    """c * 2^F rounded to the nearest integer."""
    return ((c.numerator << (F + 1)) + c.denominator) // (2 * c.denominator)


def _fixed_rule(order: int, F: int) -> tuple[list[int], int, list[int], int, int]:
    key = (order, mp.prec, F)
    hit = _FIXED_RULES.get(key)
    if hit is None:
        nodes, weights = gauss_legendre_01(order)
        L = max(-x._mpf_[2] for x in nodes)
        W = [_mpf_int(w, F) for w in weights]
        hit = ([_mpf_int(x, L) for x in nodes], L, W, sum(W), min(W))
        _FIXED_RULES[key] = hit
    return hit


def _axis_ints(lo: Fraction, width: Fraction, nodes: list[int], L: int, F: int) -> list[int]:
    """(lo + width * node) * 2^F rounded to integers, for nodes given as
    integers over 2^L: each within half a unit of the exact coordinate."""
    a, b = lo.numerator, lo.denominator
    c, d = width.numerator, width.denominator
    base = (a * d) << L
    den = (b * d) << (L + 1)
    cb = c * b
    return [(((base + cb * n) << (F + 1)) + den // 2) // den for n in nodes]


def _weighted(vals: list[int], W: Sequence[int], dim: int) -> int:
    """sum over the grid of prod_j W[i_j] * vals[i], exactly (row-major)."""
    n = len(W)
    for _ in range(dim):
        vals = [sum(map(mul, W, vals[b:b + n])) for b in range(0, len(vals), n)]
    return vals[0]


def _scaled(n: int, e: int, rnd) -> mpf:
    """n * 2^e rounded once to the working precision."""
    return mp.make_mpf(from_man_exp(n, e, mp.prec, rnd))


def _normalised(poly: "MPoly") -> tuple[int, dict, int]:
    """(s, terms of poly / 2^s, their _ulps) with the largest |coefficient|
    in (1/2, 1]."""
    top = max(abs(c) for c in poly.terms.values())
    s = top.numerator.bit_length() - top.denominator.bit_length()
    if top > Fraction(2) ** s:  # top lies in (2^(s-1), 2^(s+1))
        s += 1
    scale = Fraction(2) ** -s
    terms = {e: c * scale for e, c in poly.terms.items()}
    return s, terms, _ulps(terms, poly.nvars)


def _tree(terms: dict, F: int) -> dict:
    """Coefficients rounded at scale 2^F in a tree keyed by the exponent of
    each axis in turn."""
    root: dict = {}
    for e, c in terms.items():
        node = root
        for x in e[:-1]:
            node = node.setdefault(x, {})
        node[e[-1]] = _frac_int(c, F)
    return root


def _ulps(terms: dict, dim: int) -> int:
    """Bound, in units of 2^-F, on the error of ``_contract``'s value of a
    polynomial whose coefficients are at most 1 in absolute value, at
    coordinates in [0, 1] each within half a unit of exact: per term, half
    a unit for the coefficient, 2e for the power table of x^e (half for the
    coordinate, one per shifted product, e - 1 of them) times |c|, and one
    per shift of the contraction's dim levels; times 1 + 2^-16, rounded
    down, plus one.  Summed over the common denominator m, as the integer
    2m * total."""
    m = lcm(*(c.denominator for c in terms.values()))
    total = sum(abs(c.numerator) * (m // c.denominator) * 4 * sum(e) for e, c in terms.items())
    total += len(terms) * m * (1 + 2 * dim)
    return (total * ((1 << 16) + 1)) // (m << 17) + 1


def _powers(xs: list[list[int]], maxdeg: list[int], F: int) -> list:
    """Per axis j, the table t with t[e] the list of x^e over xs[j] at scale
    2^F, e = 1 .. maxdeg[j]: each power the shifted product of the one
    before and x.  x^0 is never looked up (see _contract)."""
    tabs = []
    for x, top in zip(xs, maxdeg):
        t = [None, x]
        for _ in range(2, top + 1):
            t.append([(a * b) >> F for a, b in zip(t[-1], x)])
        tabs.append(t)
    return tabs


def _contract(node: dict, tabs: list, F: int, j: int) -> list[int]:
    """Values at scale 2^F of the polynomial whose exponent tree below axis
    j is node, on the grid of axes j, j+1, ... (row-major).  tabs[j][e] is
    the list of x^e over the nodes of axis j, at scale 2^F; x^0 = 2^F, so
    its branch is added after the shift: (2^F a + b) >> F = a + (b >> F)."""
    last = j == len(tabs) - 1
    acc = const = None
    for e, sub in node.items():
        inner = [sub] if last else _contract(sub, tabs, F, j + 1)
        if e:
            part = [p * v for p in tabs[j][e] for v in inner]
            acc = part if acc is None else list(map(add, acc, part))
        else:
            const = inner * len(tabs[j][1])
    if acc is None:
        return const
    acc = [a >> F for a in acc]
    return acc if const is None else list(map(add, acc, const))


_COARSE = 3  # points per axis of the grid that chooses the guard bits


def _coarse_axis(F: int) -> list[int]:
    """The midpoints of _COARSE equal parts of [0, 1], at scale 2^F."""
    return [_frac_int(Fraction(2 * i + 1, 2 * _COARSE), F) for i in range(_COARSE)]


class FixedPointIntegrand:
    """numer / den**k on [0,1]^dim, k >= 1, in Python-int fixed point at
    scale 2^F, F = prec + G guard bits, prec the working precision at
    construction.

    numer and den are first scaled by powers of two to coefficients of at
    most 1 in absolute value; the scale is given back exactly at the end.
    Every value comes with a counted bound on its rounding: coefficients,
    coordinates, each shifted product, and the division, which needs den's
    values minus their own bound to stay positive.  G is chosen on a coarse
    grid of the cube so that the counted rounding of a cell stays below
    2^-24 of the floor ``rounding_floor`` charges it.  Each reciprocal is
    computed once per distinct value of den on a grid.
    """

    def __init__(self, numer: "MPoly", den: "MPoly", k: int):
        if k < 1:
            raise ValueError(f"the power of the denominator must be at least 1, got {k}")
        if numer.is_zero():
            raise ValueError("zero integrand")
        if den.nvars != numer.nvars:
            raise DimensionMismatch("numerator and denominator variable counts differ")
        self.dim = numer.nvars
        self.k = k
        self.shift, self._numer, self._EV = _normalised(numer)
        shift, self._den, self._ED = _normalised(den)
        self.shift -= k * shift
        self._maxdeg = [max(e[j] for e in (*self._numer, *self._den)) for j in range(self.dim)]
        self._compile(mp.prec + 20)
        self._compile(mp.prec + self._guard_bits())

    def _compile(self, F: int) -> None:
        self.F = F
        self._V = _tree(self._numer, F)
        self._D = _tree(self._den, F)

    def _guard_bits(self) -> int:
        """G with counted rounding / rounding floor <= 2^-24 on the coarse
        grid: the floor is 2^(6 - prec) per unit of absolute mass, the
        counted rounding about 2^-(prec + G) * X per unit, where X adds the
        numerator's error over its mean size, the division's relative error
        k * E_D / min den and the weights' 2^-F / w_min."""
        F, k = self.F, self.k
        tabs = _powers([_coarse_axis(F)] * self.dim, self._maxdeg, F)
        V, D = _contract(self._V, tabs, F, 0), _contract(self._D, tabs, F, 0)
        if min(D) <= self._ED:
            return 2 * mp.prec
        one = mpf(1 << F)
        v = [abs(mpf(t)) / one for t in V]
        r = [(one / t) ** k for t in D]
        mass = sum(a * b for a, b in zip(v, r))
        if not mass:
            return 2 * mp.prec
        X = ((max(v) + 4) * len(v) + self._EV * sum(r)) / mass + 64 * self.dim
        X += k * self._ED * one / min(D)
        return min(max(20, 18 + int(X).bit_length()), 2 * mp.prec)

    def _eval(self, xs: list[list[int]]):
        """(q, c0, t, fac) on the grid xs: the values q at scale 2^F; bounds
        c0 + t on their rounding in units of 2^-F, except for the factor
        1 + fac[0]/fac[1] on |value| + bound that the denominator's own
        rounding adds."""
        k, F = self.k, self.F
        tabs = _powers(xs, self._maxdeg, F)
        V, D = _contract(self._V, tabs, F, 0), _contract(self._D, tabs, F, 0)
        Dmin = min(D)
        Dlow = Dmin - self._ED
        if Dlow <= 0:
            raise NotElliptic(
                "denominator not bounded away from 0 on a quadrature cell"
            )
        # The reciprocal and its rounding term are functions of the int d
        # alone: each is computed once per distinct value of den on the grid.
        one, EV = 1 << ((k + 1) * F), self._EV
        per_value = dict.fromkeys(D)
        for d in per_value:
            r = one // d**k
            per_value[d] = r, (EV * r) >> F
        RT = list(map(per_value.__getitem__, D))
        q = [(v * r) >> F for v, (r, _) in zip(V, RT)]
        # In units of 2^-F: |q - V/D^k| <= |V| + 1 (the floors of the
        # reciprocal and of the product), plus E_V times the reciprocal
        # (+ 2 for its floor and truncation); the denominator's own error
        # scales |value| by at most (1 - E_D/Dmin)^-k - 1
        # <= k E_D Dmin^k / Dlow^(k+1).
        c0 = (max(map(abs, V)) >> F) + 4
        return q, c0, [t for _, t in RT], (k * self._ED * Dmin**k, Dlow ** (k + 1))

    def __call__(self, axes: Sequence[Sequence[mpf]]) -> list[mpf]:
        """The grid protocol: values at every point of the product of axes."""
        return self.values(axes)[0]

    def values(self, axes: Sequence[Sequence[mpf]]) -> tuple[list[mpf], list[mpf]]:
        """Values on the grid of axes (coordinates in [0, 1]), row-major,
        rounded to the working precision, and bounds on their distance from
        the exact integrand there."""
        if len(axes) != self.dim:
            raise DimensionMismatch("grid has wrong number of axes")
        q, c0, t, fac = self._eval([[_mpf_int(x, self.F) for x in ax] for ax in axes])
        E = [c0 + x for x in t]
        E = [e + ((abs(v) + e) * fac[0]) // fac[1] + 1 for v, e in zip(q, E)]
        e = self.shift - self.F
        vals = [_scaled(v, e, round_nearest) for v in q]
        return vals, [_scaled(x, e, round_ceiling) + mp.ldexp(abs(v), -mp.prec)
                      for x, v in zip(E, vals)]


def _eval_cell_fixed(f: FixedPointIntegrand, cell: "_Cell", order_hi: int, order_lo: int,
                     floor: mpf) -> None:
    """Both rules of a cell as exact integer sums, each rounded once; the
    estimate is |I_hi - I_lo| plus the rounding floor, as on the grid path,
    plus the counted rounding of both rules.  The cell is dyadic: its
    volume is 2^-t."""
    dim, F = f.dim, f.F
    width = [b - a for a, b in zip(cell.lo, cell.hi)]
    t = prod(width, start=Fraction(1)).denominator.bit_length() - 1
    sums = []
    for order in (order_hi, order_lo):
        nodes, L, W, Wsum, Wmin = _fixed_rule(order, F)
        q, c0, ts, fac = f._eval([_axis_ints(a, w, nodes, L, F) for a, w in zip(cell.lo, width)])
        S = _weighted(q, W, dim)
        # The weights are positive: the absolute mass of a sign-definite q is |S|.
        A = S if min(q) >= 0 else -S if max(q) <= 0 else _weighted(list(map(abs, q)), W, dim)
        # _weighted is linear: the weighted sum of E = c0 + ts.
        err = c0 * Wsum**dim + _weighted(ts, W, dim)
        err += ((A + err) * fac[0]) // fac[1] + 1
        # Weights within half a unit of the rule's: relative error <= dim/(2 Wmin)
        # per tensor weight, on |f| <= |q| + err.
        err += (dim * (A + err)) // Wmin + 1
        sums.append((S, A, err))
    (S, A, err), (S_lo, _, err_lo) = sums
    e = f.shift - (dim + 1) * F - t
    cell.value = _scaled(S, e, round_nearest)
    cell.absmass = _scaled(A, e, round_nearest)
    cell.est = (
        abs(cell.value - _scaled(S_lo, e, round_nearest))
        + cell.absmass * floor
        + _scaled(err + err_lo, e, round_ceiling)
    )


@dataclass
class _Cell:
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    value: mpf = None
    est: mpf = None
    absmass: mpf = None


def _eval_cell(f: Integrand, cell: _Cell, order_hi: int, order_lo: int, floor: mpf) -> None:
    if isinstance(f, FixedPointIntegrand):
        _eval_cell_fixed(f, cell, order_hi, order_lo, floor)
        return
    dim = len(cell.lo)
    lo = [mpf_from_rational(x) for x in cell.lo]
    width = [mpf_from_rational(b - a) for a, b in zip(cell.lo, cell.hi)]
    vol = mpf(1)
    for w in width:
        vol *= w

    def tensor(order: int) -> tuple[mpf, mpf]:
        nodes, weights = gauss_legendre_01(order)
        xs = [[lo[j] + width[j] * x for x in nodes] for j in range(dim)]
        # The bits of the result depend on these orders: weights are the
        # products vol * w[i0] * w[i1] * ... taken left to right, and points
        # are summed in row-major order.
        ws = [vol]
        for _ in range(dim):
            ws = [w * wi for w in ws for wi in weights]
        total = mpf(0)
        absmass = mpf(0)
        for w, fv in zip(ws, f(xs)):
            wf = w * fv
            total += wf
            absmass += abs(wf)
        return total, absmass

    hi_val, absmass = tensor(order_hi)
    lo_val, _ = tensor(order_lo)
    round_floor = absmass * floor
    cell.value = hi_val
    cell.est = abs(hi_val - lo_val) + round_floor
    cell.absmass = absmass


def integrate_unit_cube(
    f: Integrand,
    dim: int,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-30,
    order: int = 15,
) -> tuple[mpf, mpf]:
    """Integrate f over [0,1]^dim, dim >= 1; returns (value, absolute error
    bound).

    f is a FixedPointIntegrand, evaluated on whole cells in integers, or
    follows the grid protocol of this module: it is called with one list
    of coordinates per axis and returns its values on their product in
    row-major order.  The cell of largest estimate is split until the
    summed estimate meets the target.
    """
    order_lo = max(3, (order + 1) // 2)
    floor = rounding_floor(mp.prec)
    abs_tol, rel_tol = mpf(abs_tol), mpf(rel_tol)
    root = _Cell(lo=(Fraction(0),) * dim, hi=(Fraction(1),) * dim)
    _eval_cell(f, root, order, order_lo, floor)
    seq = 0
    heap: list[tuple[mpf, int, _Cell]] = [(-root.est, seq, root)]
    ncells = 1
    # Exact running totals of every cell's value and est, rounded once per
    # check; the returned value is re-summed in a fixed order below.
    total, errtot = _dyadic_add((0, 0), root.value), _dyadic_add((0, 0), root.est)
    while True:
        errsum = mpf(errtot)
        target = abs_tol + rel_tol * abs(mpf(total))
        if errsum <= target:
            break
        if ncells >= _MAX_CELLS:
            raise QuadratureDidNotConverge(
                f"error {mp.nstr(errsum, 5)} above target {mp.nstr(target, 5)} "
                f"after {ncells} cells"
            )
        _, _, cell = heapq.heappop(heap)
        widths = [b - a for a, b in zip(cell.lo, cell.hi)]
        axis = max(range(dim), key=lambda j: (widths[j], -j))
        mid = (cell.lo[axis] + cell.hi[axis]) / 2
        left = _Cell(
            lo=cell.lo, hi=cell.hi[:axis] + (mid,) + cell.hi[axis + 1 :]
        )
        right = _Cell(
            lo=cell.lo[:axis] + (mid,) + cell.lo[axis + 1 :], hi=cell.hi
        )
        total = _dyadic_add(total, cell.value, -1)
        errtot = _dyadic_add(errtot, cell.est, -1)
        for child in (left, right):
            _eval_cell(f, child, order, order_lo, floor)
            total = _dyadic_add(total, child.value)
            errtot = _dyadic_add(errtot, child.est)
            seq += 1
            heapq.heappush(heap, (-child.est, seq, child))
        ncells += 1
    cells = sorted((c for _, _, c in heap), key=lambda c: c.lo)
    value = mpf(0)
    err = mpf(0)
    for c in cells:
        value += c.value
        err += c.est
    err += abs(value) * floor * len(cells)
    return value, err


def integrate_interval_fixed(
    f: Callable[[mpf], mpf], a: Fraction, b: Fraction, order: int = 15
) -> tuple[mpf, mpf]:
    """Single-panel Gauss-Legendre on [a, b] with an embedded estimate;
    f takes one point.  No library path calls it: the oracle sums its own
    Bernoulli-weighted rule.  It stays because perfbench/tracing.py binds
    it by name, until the tracer is retired (ROADMAP item 6)."""
    cell = _Cell(lo=(Fraction(a),), hi=(Fraction(b),))
    _eval_cell(lambda axes: [f(x) for x in axes[0]], cell, order,
               max(3, (order + 1) // 2), rounding_floor(mp.prec))
    return cell.value, cell.est


def cube_moment(poly: "MPoly") -> Fraction:
    """Integral of the polynomial poly over [0,1]^nvars, exactly."""
    return sum((c / prod(e + 1 for e in es) for es, c in poly.terms.items()), Fraction(0))


# -----------------------------------------------------------------------------
# One-variable quotients: exact reduction to master integrals
# -----------------------------------------------------------------------------

def _cofactors(D: list) -> tuple[list, list] | None:
    """(s, t) with s D + t D' = 1, deg s < m - 1 and deg t < m, for D of
    degree m, from the Sylvester system of D and D'; None when it is
    singular, i.e. when D and D' share a root: D is not squarefree."""
    m, n = len(D) - 1, 2 * len(D) - 3
    dD = [i * c for i, c in enumerate(D)][1:]
    # Row e: the coefficients of x^e in s_a x^a D and t_b x^b D', and in 1.
    A = [[D[e - a] if 0 <= e - a <= m else 0 for a in range(m - 1)]
         + [dD[e - b] if 0 <= e - b < m else 0 for b in range(m)] + [int(e == 0)]
         for e in range(n)]
    for c in range(n):  # Gauss-Jordan elimination
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return None
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[c])]
    sol = [row[-1] for row in A]
    return sol[:m - 1], sol[m - 1:]


def _dot(pairs: list, m: int) -> tuple[int, list[int]]:
    """sum c * row over the pairs (c, row), rows (L, n) meaning n / L, as
    one such row in lowest terms."""
    L = lcm(*(c.denominator * r[0] for c, r in pairs))
    acc = [0] * (m + 1)
    for c, (Lr, n) in pairs:
        s = c.numerator * (L // (c.denominator * Lr))
        for i, x in enumerate(n):
            acc[i] += s * x
    g = gcd(L, *acc)
    return L // g, [x // g for x in acc]


class _Reduction:
    """int_0^1 x^j / D^k = r + sum_{i<m} c_i M_i, exactly, for one D of
    degree m squarefree and positive on [0, 1], with the masters
    M_i = int_0^1 x^i / D (Hermite reduction, Bronstein, Symbolic
    Integration I, ch. 2).  rows[k][j] is (L, [r, c_0, ..., c_{m-1}] * L);
    s D + t D' = 1.  form((j,), k) is that row as a form."""

    def __init__(self, D: list, s: list, t: list):
        self.D, self.m, self.s, self.t = D, len(D) - 1, s, t
        self.rows: dict[int, list[tuple]] = {}
        self.keys = [None] + [_MasterKey((1, tuple(D), i)) for i in range(self.m)]

    def form(self, e: tuple, k: int) -> dict:
        L, n = self.row(e[0], k)
        return {key: Fraction(x, L) for key, x in zip(self.keys, n) if x}

    def row(self, j: int, k: int) -> tuple[int, list[int]]:
        rows = self.rows.setdefault(k, [])
        while len(rows) <= j:  # a row only uses rows of lower j or lower k
            rows.append(self._row(len(rows), k))
        return rows[j]

    def _row(self, j: int, k: int) -> tuple[int, list[int]]:
        D, m = self.D, self.m
        if k == 0:
            return j + 1, [1] + [0] * m
        if j >= m:  # x^m = (D - sum_{i<m} d_i x^i) / d_m
            parts = [(1 / D[-1], self.row(j - m, k - 1))]
            parts += [(-d / D[-1], self.row(j - m + i, k)) for i, d in enumerate(D[:-1]) if d]
            return _dot(parts, m)
        if k == 1:
            return 1, [0] * (j + 1) + [1] + [0] * (m - 1 - j)
        # x^j / D^k = x^j s / D^(k-1) + x^j t D' / D^k, and by parts
        # int_0^1 x^p D' / D^k = [x^p D^(1-k)]_0^1 / (1-k) + p/(k-1) int_0^1 x^(p-1) / D^(k-1).
        ends = sum(self.t) / sum(D) ** (k - 1) - (self.t[0] / D[0] ** (k - 1) if j == 0 else 0)
        parts = [(ends / (1 - k), (1, [1] + [0] * m))]
        parts += [(c, self.row(j + l, k - 1)) for l, c in enumerate(self.s) if c]
        parts += [(c * (j + l) / (k - 1), self.row(j + l - 1, k - 1))
                  for l, c in enumerate(self.t) if c and j + l]
        return _dot(parts, m)


@lru_cache(maxsize=16)
def _reduction(den: "MPoly") -> _Reduction | None:
    """The reduction over den, or None when den is not certified positive
    on [0, 1] or not squarefree."""
    D = [Fraction(0)] * (den.degree() + 1)
    for (e,), c in den.terms.items():
        D[e] = c
    cof = bernstein_positive(den)[0] == "certified" and _cofactors(D)
    return _Reduction(D, *cof) if cof else None


# -----------------------------------------------------------------------------
# Affine denominators: closed form
# -----------------------------------------------------------------------------

def _coprime_basis(nums) -> list[int]:
    """Pairwise coprime integers > 1, sorted, of whose powers each of nums
    is a product (a gcd-free basis: split shared factors until none is)."""
    basis: list[int] = []
    todo = [x for x in nums if x > 1]
    while todo:
        x = todo.pop()
        b = next((b for b in basis if gcd(b, x) > 1), None)
        if b is None:
            basis.append(x)
        else:
            basis.remove(b)
            g = gcd(b, x)
            todo += [y for y in (b // g, g, x // g) if y > 1]
    return sorted(basis)


def _antiderivative(q: int, l: int) -> list[tuple[int, int, Fraction]]:
    """(p, j, c) with sum c t^p log^j t an antiderivative of t^q log^l t."""
    if q == -1:
        return [(0, l + 1, Fraction(1, l + 1))]
    return [(q + 1, l - j, Fraction((-1) ** j * factorial(l) // factorial(l - j), (q + 1) ** (j + 1)))
            for j in range(l + 1)]


class _Affine:
    """int_{[0,1]^r} x^e / D^k in closed form, for D = c + sum a_j x_j
    positive on the cube (DECISIONS.md D12).  One variable at a time, with
    t = D: the terms x^e L^m log^l L, over the affine L left, are closed
    under the antiderivative.  Values are {b: q} for sum q prod_{i in b}
    log basis[i]: at the end L is a vertex value of D, whose log is a sum
    over a gcd-free basis of the vertex values' numerators and
    denominators, so logs cancel exactly.  Each (e, k) row is memoised."""

    def __init__(self, den: "MPoly"):
        r = den.nvars
        self.c = den.terms.get((0,) * r, Fraction(0))
        self.a = [den.terms.get(tuple(int(i == j) for i in range(r)), Fraction(0))
                  for j in range(r)]
        vertices = {self.c}
        for a in self.a:
            vertices |= {v + a for v in vertices}
        if min(vertices) <= 0:
            raise NotElliptic("affine denominator not positive at a vertex of the cube")
        self.basis = _coprime_basis({x for v in vertices for x in (v.numerator, v.denominator)})
        self._parts: dict[tuple, dict] = {}

    def _part(self, j: int, e: tuple, s: Fraction, m: int, l: int) -> dict:
        """int over x_j, x_j+1, ... of prod x_i^e_i L^m log^l L, L = s +
        sum_{i >= j} a_i x_i."""
        key = (j, e, s, m, l)
        if key in self._parts:
            return self._parts[key]
        out: dict = {}
        if j == len(self.a):  # s^m (log s)^l, log s = sum_i v_i log basis[i]
            out[()] = s ** m
            logs = []
            for i, b in enumerate(self.basis):
                for x, v in ((s.numerator, 1), (s.denominator, -1)):
                    while x % b == 0:
                        x //= b
                        logs.append((i, v))
            for _ in range(l):
                prev, out = out, {}
                for mono, c in prev.items():
                    for i, v in logs:
                        key1 = tuple(sorted(mono + (i,)))
                        out[key1] = out.get(key1, 0) + v * c
        elif not self.a[j]:
            out = {b: q / (e[0] + 1) for b, q in self._part(j + 1, e[1:], s, m, l).items()}
        else:
            # x = (L - L0) / a with L0 = L at x = 0: x^p = sum_i C(p, i) L^i (-L0)^(p-i) / a^p,
            # integrated in t = L from L0 to L1 = L0 + a; at L1, L0^(p-i) = (L1 - a)^(p-i).
            a, p = self.a[j], e[0]
            ends: dict = {}
            for i in range(p + 1):
                w = comb(p, i) * (-1) ** (p - i) / a ** (p + 1)
                for q, ll, c in _antiderivative(i + m, l):
                    for h in range(p - i + 1):
                        key1 = (s + a, h + q, ll)
                        ends[key1] = ends.get(key1, 0) + w * c * comb(p - i, h) * (-a) ** (p - i - h)
                    key0 = (s, p - i + q, ll)
                    ends[key0] = ends.get(key0, 0) - w * c
            for (t, q, ll), c in ends.items():
                if c:
                    for b, v in self._part(j + 1, e[1:], t, q, ll).items():
                        out[b] = out.get(b, 0) + c * v
        self._parts[key] = out
        return out

    def form(self, e: tuple, k: int) -> dict:
        """int x^e / D^k as a form, each product of logs keyed by kind 0."""
        return {_MasterKey((0, *(self.basis[i] for i in b))) if b else None: q
                for b, q in self._part(0, e, self.c, -k, 0).items() if q}


_affine = lru_cache(maxsize=16)(_Affine)


# -----------------------------------------------------------------------------
# Diagonal denominators: exact reduction to master integrals
# -----------------------------------------------------------------------------

class _Diagonal:
    """I(e, k) = int_{[0,1]^r} x^e / D^k, k >= 1, D = c + sum_j a_j x_j^d with
    d >= 2, c > 0 and every a_j > 0, as a form {None: rational, key: q}: q
    times the master named by key = (2, d, c, sorted pairs (a_j, e_j))
    (DECISIONS.md D14).  One variable takes D10's form.  Else by parts in
    x_j, where dD/dx_j = d a_j x_j^(d-1), and the Euler relation
    c I(e, k+1) = (1 - (|e| + r)/(dk)) I(e, k) + (1/(dk)) sum_j I(e without
    e_j, k) over the faces x_j = 1, take each row down to masters I(e, 1)
    with every e_j <= d - 2.  Forms are memoised per (e, k)."""

    def __init__(self, d: int, c: Fraction, a: tuple):
        self.d, self.c, self.a, r = d, c, a, len(a)
        self.den = MPoly(r, {(0,) * r: c, **{tuple(d * (i == j) for i in range(r)): a[j]
                                             for j in range(r)}})
        self.red = _reduction(self.den) if r == 1 else None
        self.forms: dict[tuple, dict] = {}

    def form(self, e: tuple, k: int) -> dict:
        if (e, k) not in self.forms:
            self.forms[e, k] = self.red.form(e, k) if self.red else self._form(e, k)
        return self.forms[e, k]

    def _face(self, j: int, s: Fraction, e: tuple, k: int) -> dict:
        """The form of e without e_j on a face x_j = const, where D = s + ..."""
        return _diagonal(self.d, s, self.a[:j] + self.a[j + 1:]).form(e[:j] + e[j + 1:], k)

    def _form(self, e: tuple, k: int) -> dict:
        d, c, a, r = self.d, self.c, self.a, len(self.a)
        j = next((j for j, x in enumerate(e) if x >= d - 1), None)
        faces = lambda m: [self._face(l, c + a[l], e, m) for l in range(r)]
        if j is None and k == 1:
            return {_MasterKey((2, d, c, tuple(sorted(zip(a, e))))): Fraction(1)}
        if j is None:  # Euler, solved for I(e, k)
            t = Fraction(sum(e) + r, d * (k - 1))
            return _combined([((1 - t) / c, self.form(e, k - 1))]
                             + [(1 / (c * d * (k - 1)), f) for f in faces(k - 1)])
        if k == 1:  # Euler, solved for I(e, 1): |e| + r > d
            t = 1 - Fraction(sum(e) + r, d)
            return _combined([(c / t, self.form(e, 2))] + [(-1 / (d * t), f) for f in faces(1)])
        # By parts in x_j, p = e_j - d + 1: d a_j (k - 1) I(e, k) = p I(e - d 1_j, k - 1)
        # - (the face x_j = 1) + (the face x_j = 0 if p = 0), each at k - 1.
        p, w = e[j] - d + 1, 1 / (d * a[j] * (k - 1))
        rest = (p * w, self.form(e[:j] + (e[j] - d,) + e[j + 1:], k - 1)) if p else \
            (w, self._face(j, c, e, k - 1))
        return _combined([(-w, self._face(j, c + a[j], e, k - 1)), rest])


_diagonal = lru_cache(maxsize=128)(_Diagonal)


def diagonal_reduction(den: "MPoly") -> _Diagonal | None:
    """The reduction over den = c + sum_j a_j x_j^d when den has at least 2
    variables, d >= 2, c > 0 and every a_j > 0; else None."""
    r, d = den.nvars, den.degree()
    c = den.terms.get((0,) * r, 0)
    a = tuple(den.terms.get(tuple(d * (i == j) for i in range(r)), 0) for j in range(r))
    ok = r >= 2 and d >= 2 and len(den.terms) == r + 1 and c > 0 and min(a) > 0
    return _diagonal(d, c, a) if ok else None


# -----------------------------------------------------------------------------
# Forms {None: rational, key: q}: one sum, one evaluator, one memo
# -----------------------------------------------------------------------------

class _MasterKey(tuple):
    """The name of a constant in a form, equal to the plain tuple, that
    hashes its Fractions once: forms add their rows key by key.  Its first
    entry is its kind: (0, b, ...) the product of the logs of the basis
    integers b (D12), (1, D's coefficients, i) the master int_0^1 x^i / D
    (D10), (2, d, c, ((a_j, e_j), ...)) a diagonal master (D14)."""

    hash = cached_property(tuple.__hash__)

    def __hash__(self):
        return self.hash


def _combined(parts: list) -> dict:
    """sum q * form over the parts (q, form), without zero coefficients."""
    out: dict = {}
    for q, form in parts:
        for key, x in form.items():
            out[key] = out.get(key, 0) + q * x
    return {key: x for key, x in out.items() if x}


def reduction(den: "MPoly") -> _Affine | _Reduction | None:
    """The reduction over den that ``cube_integral`` takes: D12's for degree
    <= 1 in 1 or more variables, else D10's for one variable; else None."""
    if den.nvars and den.degree() <= 1:
        return _affine(den)
    return _reduction(den) if den.nvars == 1 else None


def _quadrature_of(den: "MPoly", numer: "MPoly", k: int, qs: QuadratureSettings) -> Numeric:
    """The fixed-point cube quadrature of numer / den^k (DECISIONS.md D2)."""
    with mp.workdps(qs.precision + 10):
        f = FixedPointIntegrand(numer, den, k)
        return Numeric(*integrate_unit_cube(f, den.nvars, rel_tol=qs.rel_tol, abs_tol=qs.abs_tol))


@lru_cache(maxsize=256)
def constant(key: _MasterKey, qs: QuadratureSettings) -> Numeric:
    """The constant named by key under qs, once per (key, qs): a product of
    logs, each rounded once, at precision + 10 digits; else its master's
    fixed-point quadrature."""
    kind, *name = key
    if kind == 0:
        with mp.workdps(qs.precision + 10):
            return reduce(mul, [Numeric(v, _round_err(v)) for v in map(mp.log, name)])
    if kind == 1:  # name = (D's coefficients, i)
        den, e = MPoly(1, {(j,): x for j, x in enumerate(name[0]) if x}), (name[1],)
    else:  # name = (d, c, pairs)
        a, e = zip(*name[2])
        den = _diagonal(*name[:2], a).den
    return _quadrature_of(den, MPoly(len(e), {e: 1}), 1, qs)


def _budgeted(rational: Fraction, masters: list, qs: QuadratureSettings) -> tuple:
    """(rational + sum c M(qs), [M(qs)]) over the masters [(c, M)], M(s) a
    master under the settings s, at precision + 10 digits.  When the scaled
    errors miss abs_tol + rel_tol |value|, each master is integrated once
    more, to half that budget over sum |c| (the rest is room for rounding)
    but not below the rounding floor; whether that is enough is the
    caller's to judge (DECISIONS.md D14)."""
    def total(settings):
        values = [M(s) for (_, M), s in zip(masters, settings)]
        acc = Numeric.from_rational(rational)
        for (c, _), v in zip(masters, values):
            acc = acc + v.scale(c)
        return acc, values

    with mp.workdps(qs.precision + 10):
        v, values = total([qs] * len(masters))
        budget = qs.abs_tol + qs.rel_tol * abs(v.value)
        if v.err <= budget or not masters:
            return v, values
        share = budget / (2 * sum(abs(c) for c, _ in masters))
        rels = [max(share / M.value, 16 * rounding_floor(mp.prec)) for M in values]
        return total([replace(qs, rel_tol=min(qs.rel_tol, float(r)) or qs.rel_tol,
                              abs_tol=min(qs.abs_tol, float(r * M.value / 16)) or qs.abs_tol)
                      for r, M in zip(rels, values)])


def form_value(sums: dict, qs: QuadratureSettings) -> tuple[Numeric, Fraction, list[tuple]]:
    """sum q I(e, k) over sums {(reduction, e, k): q}, its rational part and
    its constants (key, coefficient, value): the forms are summed exactly,
    and only the constants left are evaluated, by ``_budgeted``."""
    form = _combined([(q, red.form(e, k)) for (red, e, k), q in sums.items()])
    rational, keys = form.pop(None, Fraction(0)), sorted(form.items())
    v, values = _budgeted(rational, [(q, partial(constant, key)) for key, q in keys], qs)
    return v, rational, [(key, q, M) for (key, q), M in zip(keys, values)]


def cube_integral(den: "MPoly", numer: "MPoly", k: int, qs: QuadratureSettings) -> SpecialValue:
    """Integral over [0,1]^dim of numer / den^k, den positive on the cube: a
    face period, or a generalized gamma factor of the diagonal expansion.

    Exact for k <= 0, a polynomial's moment (DECISIONS.md D7), and for
    dim = 0, a constant.  Where ``reduction`` has a reduction over den, the
    ``form_value`` of numer's form (DECISIONS.md D16): for den of degree
    <= 1, in any dimension, r + sum q prod log b at precision + 10 digits
    with no quadrature (D12); for dim = 1, r + sum c_i M_i over the masters
    int_0^1 x^i / den, unless their errors, scaled, miss the tolerance
    (D10).  Else -- such a miss, a diagonal den (left unreduced, so that
    the checks that call this stay independent of D14) or any other -- the
    integrand is compiled once into a FixedPointIntegrand, whose cube
    quadrature sums each cell exactly in integers (DECISIONS.md D2).
    Every result but the first two is numeric."""
    if k <= 0:
        return SpecialValue.make_exact(cube_moment(den**-k * numer))
    if den.nvars == 0:
        return SpecialValue.make_exact(den.constant_value() ** -k * numer.constant_value())
    red = reduction(den)
    if red is not None:
        v, _, _ = form_value({(red, e, k): c for e, c in numer.terms.items()}, qs)
        with mp.workdps(qs.precision + 10):
            if den.degree() <= 1 or v.err <= qs.abs_tol + qs.rel_tol * abs(v.value):
                return SpecialValue.make_numeric(v)
    return SpecialValue.make_numeric(_quadrature_of(den, numer, k, qs))
