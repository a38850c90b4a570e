"""Benchmark items and the rules that check them.

Every item carries its own check: exact equality with a truth, an error
bound that must cover the distance to a truth (|value - truth| <= err), or
byte identity of CLI output between two invocations.  Truths come from
closed forms, from mpmath at extra precision, or from an independent route
of the package (the deliberate pairs named in the README).  A truth may also
be another item's result, for consistency pairs such as the scaling law or
diagonal_value against zeta_P_at; the check then adds both error bounds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mpmath import mp, mpf

# Extra digits used when a check compares a result with its truth.
CHECK_GUARD_DPS = 30


@dataclass
class Check:
    ok: bool
    looseness: float | None = None  # digits by which err overstates |value - truth|
    detail: str = ""


@dataclass
class Item:
    """One call into the package, with its truth and the rule that checks it.

    ``call`` takes no argument and returns the raw result.  ``truth`` gets
    the results of all items of the pass by id, so a pair item can use
    another item's output, and returns:

    - rule "exact": the value ``project(result)`` must equal;
    - rule "bound": (truth, truth_err); ``project(result)`` gives
      (value, err) and |value - truth| <= err + truth_err must hold;
    - rule "bytes": the stdout of a second CLI invocation, which must equal
      the first byte for byte; ``stated`` then checks the value the README
      states, if any.
    """

    id: str
    stratum: str
    rule: str
    call: Callable[[], Any]
    truth: Callable[[dict], Any]
    project: Callable[[Any], Any] | None = None  # default: numeric_of or identity
    stated: Callable[[dict], "Check"] | None = None
    dps: int | None = None
    rel_tol: float | None = None
    P: tuple | None = None  # canonical form of the item's P, for repeat counting


# ---------------------------------------------------------------------------
# Exact reference numbers, independent of the package's own kernel
# ---------------------------------------------------------------------------

_BERN: list[Fraction] = []
_AT_ROW: list[Fraction] = []


def bernoulli_exact(k: int) -> Fraction:
    """B_k with B_1 = -1/2, by the Akiyama-Tanigawa recurrence."""
    while len(_BERN) <= k:
        m = len(_BERN)
        _AT_ROW.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            _AT_ROW[j - 1] = j * (_AT_ROW[j - 1] - _AT_ROW[j])
        # The recurrence yields B_1 = +1/2; this convention has -1/2.
        _BERN.append(-_AT_ROW[0] if m == 1 else _AT_ROW[0])
    return _BERN[k]


def zeta_neg(k: int) -> Fraction:
    """zeta(-k) = (-1)^k B_{k+1} / (k+1) for k >= 0."""
    return Fraction((-1) ** k) * bernoulli_exact(k + 1) / (k + 1)


def linear_form_value(n: int, M: int) -> Fraction:
    """Regularized sum over m in N^n of (m_1 + ... + m_n)^M, computed as
    sum_k C(k-1, n-1) k^M = sum_j a_j zeta(-M-j) with C(k-1, n-1) = sum_j a_j k^j."""
    coeffs = [Fraction(1)]  # polynomial in k: prod_{i=1}^{n-1} (k - i) / (n-1)!
    for i in range(1, n):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] += c
            nxt[j] -= i * c
        coeffs = nxt
    scale = Fraction(1, math.factorial(n - 1))
    return sum(scale * c * zeta_neg(M + j) for j, c in enumerate(coeffs) if c)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _as_mpf(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def bound_check(value, err, truth, truth_err, dps: int) -> Check:
    """|value - truth| <= err + truth_err, with the looseness of the bound:
    log10(err / max(|value - truth|, floor)).

    The floor is the resolution of the comparison, 10^-(dps + CHECK_GUARD_DPS),
    not 10^-dps: most kernels return err far below 10^-dps, and a 10^-dps floor
    would make their looseness negative, i.e. call a bound that overstates the
    true error by many digits "tighter than exact".  A passing item therefore
    has looseness >= 0."""
    with mp.workdps(dps + CHECK_GUARD_DPS):
        v, t = _as_mpf(value), _as_mpf(truth)
        budget = _as_mpf(err) + _as_mpf(truth_err)
        diff = abs(v - t)
        ok = diff <= budget
        floor = mpf(10) ** (-(dps + CHECK_GUARD_DPS))
        loose = float(mp.log10(budget / max(diff, floor))) if budget > 0 else None
        detail = "" if ok else (
            f"|value - truth| = {mp.nstr(diff, 3)} exceeds err {mp.nstr(budget, 3)}"
        )
    return Check(ok, loose, detail)


def numeric_of(result):
    """(value, err) of a SpecialValue or a Numeric."""
    kind = getattr(result, "kind", None)
    if kind == "numeric":
        return result.num.value, result.num.err
    if kind == "exact":
        return _as_mpf(result.exact), mpf(0)
    if kind is not None:
        raise TypeError(f"expected a numeric value, got kind {kind}")
    return result.value, result.err


def check(item: Item, result, results: dict) -> Check:
    """Apply the item's rule to its result."""
    if item.rule == "exact":
        got = item.project(result) if item.project else result
        want = item.truth(results)
        return Check(got == want, None, "" if got == want else f"got {got!r}, want {want!r}")
    if item.rule == "bound":
        value, err = (item.project or numeric_of)(result)
        t, terr = item.truth(results)
        return bound_check(value, err, t, terr, item.dps)
    if item.rule == "bytes":
        if item.truth(results) != result:
            return Check(False, None, "stdout bytes differ between two invocations")
        return item.stated(json.loads(result)) if item.stated else Check(True)
    raise ValueError(f"unknown rule {item.rule!r}")


def run_cli(main, argv: list[str]) -> str:
    """Run the package's CLI entry point in-process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {buf.getvalue().strip()}")
    return buf.getvalue()


def printed_numeric(payload: dict, truth: Callable[[], Any], dps: int) -> Check:
    """Bound check of a CLI's printed numeric value; ``truth()`` runs at
    ``dps`` plus guard digits.  The value is printed to a number of
    significant digits, so half a unit in its last digit is added to err."""
    digits = len(payload["value"].lstrip("-").replace(".", "").split("e")[0].lstrip("0"))
    with mp.workdps(dps + CHECK_GUARD_DPS):
        v = mpf(payload["value"])
        rounding = abs(v) * mpf(10) ** (1 - max(digits, 1)) / 2
        return bound_check(v, mpf(payload["err"]) + rounding, truth(), 0, dps)
