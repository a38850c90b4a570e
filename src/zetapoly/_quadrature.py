"""Adaptive tensor-product Gauss-Legendre quadrature in working precision.

Cells are dyadic sub-boxes of the unit cube with exact rational corners;
each cell carries an embedded error estimate (high-order rule minus a
lower-order rule on the same cell).  Accumulation order is fixed so results
are bit-reproducible at a given precision.

Integrands are evaluated on tensor grids, not point by point: an integrand
takes one list of coordinates per axis and returns its values at every point
of their product, in row-major order (last axis fastest).  A cell's rule is
fed to the integrand in slabs over the last two axes: for dim >= 3 the
leading axes are fixed one node at a time and passed as one-element lists,
so no call sees more than order**2 points.  ``pointwise`` adapts a function
of one point to this protocol.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .errors import PrecisionUnreachable, QuadratureDidNotConverge
from .exactnum import mpf_from_rational

_GL_CACHE: dict[tuple[int, int], tuple[list[mpf], list[mpf]]] = {}


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


def pointwise(f: Callable[[Sequence[mpf]], mpf]) -> Integrand:
    """Adapt an integrand of one point to the grid protocol."""
    return lambda axes: [f(pt) for pt in product(*axes)]


def rounding_floor(prec: int) -> mpf:
    """Relative rounding error charged per cell at `prec` bits.

    Each cell's estimate includes absmass * rounding_floor(prec), so the
    summed estimate never falls below rounding_floor(prec) * |total|.
    """
    return mpf(2) ** (6 - prec)


def require_reachable(rel_tol: float, dps: int) -> None:
    """Raise PrecisionUnreachable if rel_tol is at or below the rounding
    floor of a quadrature run at `dps` digits, where refinement cannot
    converge."""
    floor = rounding_floor(dps_to_prec(dps))
    if rel_tol <= floor:
        raise PrecisionUnreachable(
            f"rel_tol {rel_tol:g} is at or below the rounding floor "
            f"{mp.nstr(floor, 3)} of {dps}-digit quadrature; raise the precision"
        )


@dataclass
class _Cell:
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]
    value: mpf = None
    est: mpf = None
    absmass: mpf = None


def _eval_cell(f: Integrand, cell: _Cell, order_hi: int, order_lo: int) -> None:
    dim = len(cell.lo)
    lo = [mpf_from_rational(x) for x in cell.lo]
    width = [mpf_from_rational(b - a) for a, b in zip(cell.lo, cell.hi)]
    vol = mpf(1)
    for w in width:
        vol *= w

    lead = max(dim - 2, 0)

    def tensor(order: int) -> tuple[mpf, mpf]:
        nodes, weights = gauss_legendre_01(order)
        xs = [[lo[j] + width[j] * x for x in nodes] for j in range(dim)]
        # The bits of the result depend on these orders: weights are the
        # products vol * w[i0] * w[i1] * ... taken left to right, and points
        # are summed in row-major order.
        heads: list[tuple[tuple[int, ...], mpf]] = [((), vol)]
        for _ in range(lead):
            heads = [(idx + (i,), w * wi) for idx, w in heads
                     for i, wi in enumerate(weights)]
        total = mpf(0)
        absmass = mpf(0)
        for idx, w_head in heads:
            ws = [w_head]
            for _ in range(dim - lead):
                ws = [w * wi for w in ws for wi in weights]
            axes = [[xs[j][i]] for j, i in enumerate(idx)] + xs[lead:]
            for w, fv in zip(ws, f(axes)):
                wf = w * fv
                total += wf
                absmass += abs(wf)
        return total, absmass

    hi_val, absmass = tensor(order_hi)
    lo_val, _ = tensor(order_lo)
    round_floor = absmass * rounding_floor(mp.prec)
    cell.value = hi_val
    cell.est = abs(hi_val - lo_val) + round_floor
    cell.absmass = absmass


def integrate_unit_cube(
    f: Integrand,
    dim: int,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-30,
    max_subdivisions: int = 4000,
    order: int = 15,
) -> tuple[mpf, mpf]:
    """Integrate f over [0,1]^dim; returns (value, absolute error bound).

    f follows the grid protocol of this module: it is called with one list
    of coordinates per axis and returns its values on their product in
    row-major order.  For dim >= 3 each call covers one slab, the leading
    axes fixed at one node each and the last two axes at all nodes.
    """
    if dim == 0:
        (v,) = f([])
        return v, abs(v) * mpf(2) ** (4 - mp.prec)
    order_lo = max(3, (order + 1) // 2)
    root = _Cell(lo=(Fraction(0),) * dim, hi=(Fraction(1),) * dim)
    _eval_cell(f, root, order, order_lo)
    done: list[_Cell] = []
    seq = 0
    heap: list[tuple[mpf, int, _Cell]] = [(-root.est, seq, root)]
    ncells = 1
    while True:
        total = sum(c.value for c in done) + sum(c.value for _, _, c in heap)
        errtot = sum(c.est for c in done) + sum(c.est for _, _, c in heap)
        target = mpf(abs_tol) + mpf(rel_tol) * abs(total)
        if errtot <= target:
            break
        if ncells >= max_subdivisions or not heap:
            raise QuadratureDidNotConverge(
                f"error {mp.nstr(errtot, 5)} above target {mp.nstr(target, 5)} "
                f"after {ncells} cells"
            )
        _, _, cell = heapq.heappop(heap)
        if cell.est <= target / (4 * ncells):
            done.append(cell)
            continue
        widths = [b - a for a, b in zip(cell.lo, cell.hi)]
        axis = max(range(dim), key=lambda j: (widths[j], -j))
        mid = (cell.lo[axis] + cell.hi[axis]) / 2
        left = _Cell(
            lo=cell.lo, hi=cell.hi[:axis] + (mid,) + cell.hi[axis + 1 :]
        )
        right = _Cell(
            lo=cell.lo[:axis] + (mid,) + cell.lo[axis + 1 :], hi=cell.hi
        )
        for child in (left, right):
            _eval_cell(f, child, order, order_lo)
            seq += 1
            heapq.heappush(heap, (-child.est, seq, child))
        ncells += 1
    cells = done + [c for _, _, c in heap]
    cells.sort(key=lambda c: c.lo)
    value = mpf(0)
    err = mpf(0)
    for c in cells:
        value += c.value
        err += c.est
    err += abs(value) * rounding_floor(mp.prec) * len(cells)
    return value, err


def integrate_interval_fixed(
    f: Callable[[mpf], mpf], a: Fraction, b: Fraction, order: int = 15
) -> tuple[mpf, mpf]:
    """Single-panel Gauss-Legendre on [a, b] with an embedded estimate;
    f takes one point."""
    cell = _Cell(lo=(Fraction(a),), hi=(Fraction(b),))
    _eval_cell(lambda axes: [f(x) for x in axes[0]], cell, order,
               max(3, (order + 1) // 2))
    return cell.value, cell.est
