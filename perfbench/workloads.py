"""Seeded item generators for the three workloads.

Each workload is a fixed list of strata.  The seed picks parameters inside a
stratum that leave its cost and accuracy targets alike -- scale factors,
directions, which grid points, which of a few equivalent arguments -- so runs
with different seeds measure the same work.  Precision and tolerance are
fixed per slot, never drawn from the seed.

Items call the package through ``zp.<name>`` at call time, so wrappers the
tracer installs on the package are seen.

face-quadrature: adaptive cube quadrature over MPoly integrands
    (Z_value, zeta_P_at, diagonal_value, period_K).  Faces are 1-, 2- and
    3-dimensional; criterion 9 runs at rel_tol 1e-6 and at its stated 1e-8.
exact-recursion: Fraction arithmetic, Bernoulli tables, the power-sum
    recursion, directional limits and the Gamma/zeta kernels; no quadrature.
em-oracle: the Euler-Maclaurin oracle, which uses fixed single panels
    (integrate_interval_fixed) over closure integrands, and the residual
    blocks of powersum2_numeric.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

from mpmath import mp, mpf

from checks import (
    Check,
    Item,
    linear_form_value,
    numeric_of,
    printed_numeric,
    run_cli,
    zeta_neg,
)

WORKLOADS = ("face-quadrature", "exact-recursion", "em-oracle")

# (precision in digits, rel_tol) slots, assigned by position, never by seed.
QUAD_SLOTS = [(20, 1e-6), (30, 1e-8), (40, 1e-10), (50, 1e-12)]
SCALES = [F(1), F(2), F(1, 2), F(3), F(2, 3), F(3, 2)]
EM_DPS = 25


def _exact(x: F):
    return lambda results: (x, 0)


def _mp_truth(fn, dps: int):
    """Truth computed by mpmath at extra precision."""

    def truth(results):
        with mp.workdps(dps + 30):
            return +fn(), 0

    return truth


def _pair_truth(other_id: str, scale=F(1)):
    """Another item's numeric result, scaled, with its error bound."""

    def truth(results):
        v, e = numeric_of(results[other_id])
        c = mpf(scale.numerator) / scale.denominator
        return v * c, e * abs(c)

    return truth


def _canon(P) -> tuple:
    return (P.nvars, tuple(P.canonical_items()))


def _regular(d) -> bool:
    """No sum 1/d_j + sum_{k>j} eps_k/d_k (eps in {0,1}) is an integer."""
    n = len(d)
    for j in range(n):
        for mask in range(1 << (n - j - 1)):
            s = F(1, d[j]) + sum(
                F(1, d[k]) for i, k in enumerate(range(j + 1, n)) if mask >> i & 1
            )
            if s.denominator == 1:
                return False
    return True


# ---------------------------------------------------------------------------
# face-quadrature
# ---------------------------------------------------------------------------

def face_quadrature(zp, rng: random.Random) -> list[Item]:
    MPoly, QS = zp.MPoly, zp.QuadratureSettings
    items: list[Item] = []

    def z_item(iid, stratum, P, Q, N, dps, tol, truth):
        qs = QS(rel_tol=tol, precision=dps)
        items.append(Item(
            iid, stratum, "bound",
            call=lambda: zp.Z_value(P, Q, N, qs),
            truth=truth, dps=dps, rel_tol=tol, P=_canon(P)))

    def family_item(iid, stratum, polys, N, dps, tol, truth, route="zeta_P_at"):
        qs = QS(rel_tol=tol, precision=dps)
        fn = lambda: getattr(zp, route)(zp.build_family(polys), N, qs)
        items.append(Item(iid, stratum, "bound", call=fn, truth=truth,
                          dps=dps, rel_tol=tol, P=_canon(polys[-1])))

    # Linear forms c(x1+..+xn) with Q = 1 or Q = P^q:
    # Z(cL, (cL)^q; -N) = c^(N+q) sum_k C(k-1,n-1) k^(N+q).  The scale moves
    # the cost of a 2- or 3-D face quadrature by up to a fifth, so it is
    # seeded only where faces are 1-D; likewise for the Epstein forms.
    # The 4-variable forms with Q = 1 run at three slots each: with the
    # Epstein item at 30 digits they make a plateau of alike items (about a
    # third of a second) around the tail rank, the 11th slowest item.
    k = 0
    for n in (2, 3, 4):
        for N, q in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)):
            c = rng.choice(SCALES) if n == 2 else F(1)
            P = MPoly(n, {tuple(int(i == j) for i in range(n)): c for j in range(n)})
            Q = P**q if q else MPoly.one(n)
            slots = QUAD_SLOTS[:3] if n == 4 and q == 0 else [QUAD_SLOTS[k % len(QUAD_SLOTS)]]
            k += 1
            for dps, tol in slots:
                z_item(f"linear-n{n}-N{N}-q{q}-{dps}", "linear-form", P, Q, N, dps, tol,
                       _exact(c ** (N + q) * linear_form_value(n, N + q)))

    # Monomial numerator: Z(c(x1+x2), x_i; 0) = 1/24.
    for slot, (dps, tol) in enumerate(((30, 1e-12), (40, 1e-10))):
        c = rng.choice(SCALES)
        P = MPoly(2, {(1, 0): c, (0, 1): c})
        e = rng.choice(((1, 0), (0, 1)))
        z_item(f"monomial-{slot}", "monomial-Q", P, MPoly(2, {e: F(1)}), 0, dps, tol,
               _exact(F(1, 24)))

    # Epstein values at 0 are scale invariant: 1/4, -1/8, 1/16.
    for n, want, dps, tol in ((2, F(1, 4), 30, 1e-12), (3, F(-1, 8), 25, 1e-8),
                              (3, F(-1, 8), 30, 1e-10), (4, F(1, 16), 25, 1e-8)):
        c = rng.choice(SCALES) if n == 2 else F(1)
        P = MPoly(n, {tuple(2 * int(i == j) for i in range(n)): c for j in range(n)})
        z_item(f"epstein-n{n}-{dps}", "epstein", P, MPoly.one(n), 0, dps, tol, _exact(want))

    # Euler families (x1, x1+x2) against the exact double_B6.  The family
    # strata below run every N: their cost differs by N, and a seeded
    # choice would make the batch differ in cost from seed to seed.
    euler = [MPoly.parse("x1", 1), MPoly.parse("x1 + x2", 2)]
    for N in [(a, b) for a in range(3) for b in range(3)]:
        family_item(f"euler-{N[0]}{N[1]}", "euler-family", euler, N, 30, 1e-12,
                    lambda r, N=N: (zp.double_B6(*N), 0))

    # Equal exponents (x1^3, x1^3+x2^3) against the power-sum recursion.
    cubic = [MPoly.parse("x1^3", 1), MPoly.parse("x1^3 + x2^3", 2)]
    params = zp.PowerSumParams.make((3, 3))
    for N in ((0, 0), (0, 1), (1, 0), (1, 1)):
        family_item(f"equal-exp-{N[0]}{N[1]}", "equal-exponent-family", cubic, N, 25, 1e-10,
                    lambda r, N=N: (zp.value_nonpositive(params, (-N[0], -N[1])), 0))

    # diagonal_value against zeta_P_at, within the sum of their errors.
    quad = [MPoly.parse("x1", 1), MPoly.parse("x1^2 + x2^2", 2)]
    for N in ((0, 0), (0, 1), (1, 0), (1, 1)):
        main_id, exp_id = f"diag-main-{N[0]}{N[1]}", f"diag-expansion-{N[0]}{N[1]}"
        family_item(main_id, "diagonal-pair", quad, N, 20, 1e-8, _pair_truth(exp_id))
        family_item(exp_id, "diagonal-pair", quad, N, 20, 1e-8, _pair_truth(main_id),
                    route="diagonal_value")

    # Scaling law Z(bP, 1; -N) = (b/a)^N Z(aP, 1; -N) on one binary form,
    # with seeded scales a != b.  The items cost the same whatever the scale,
    # about as much as the median item, so the median sits on a plateau of
    # alike items instead of between unlike ones.
    P0, N = MPoly.parse("x1^2 + x1 x2 + x2^2", 2), 2
    for i in range(6):
        a, b = rng.sample(SCALES, 2)
        first, second = f"scaling-{i}-a", f"scaling-{i}-b"
        z_item(first, "scaling-pair", P0.scale(a), MPoly.one(2), N, 30, 1e-10,
               _pair_truth(second, (a / b) ** N))
        z_item(second, "scaling-pair", P0.scale(b), MPoly.one(2), N, 30, 1e-10,
               _pair_truth(first, (b / a) ** N))

    # Golden period integral 2 arctan(1/2) (criterion 8).
    P3 = MPoly.parse("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
    Q3 = MPoly.parse("x1^2 + x1 x2", 3)
    u = tuple(
        tuple(int(g == e) for g in zp.mahler.delta_multiindices(kk, 3))
        for kk, e in ((1, (1, 0, 0)), (2, (2, 0, 0)))
    )
    qs8 = QS(rel_tol=1e-12, precision=30)
    items.append(Item(
        "period-golden", "period", "bound",
        call=lambda: zp.period_K(P3, Q3, 0, (1, 1), u, (2, 0, 0), 3, qs8),
        truth=_mp_truth(lambda: 2 * mp.atan(mpf(1) / 2), 30),
        dps=30, rel_tol=1e-12, P=_canon(P3)))

    # README CLI examples that run the quadrature.
    main = lambda argv: run_cli(zp.cli.main, argv)
    period_argv = ["period", "--P", "x1^2 + 2 x1 x2 + x2^2 + x3^2", "--Q", "x1^2 + x1 x2",
                   "--N", "0", "--alpha", "1,1", "--beta", "2,0,0",
                   "--u", "1:1,0,0;2:2,0,0", "--i", "3"]
    mahler_argv = ["mahler", "--P", "x1 + x2", "--N", "0", "--rel-tol", "1e-12"]
    for iid, argv, P, truth in (
        ("cli-mahler", mahler_argv, MPoly.parse("x1 + x2", 2), lambda: mpf(5) / 12),
        ("cli-period", period_argv, P3, lambda: 2 * mp.atan(mpf(1) / 2)),
    ):
        items.append(Item(
            iid, "readme-cli", "bytes", call=lambda argv=argv: main(argv),
            truth=lambda r, argv=argv: main(argv),
            stated=lambda payload, t=truth: printed_numeric(payload, t, 50),
            dps=50, rel_tol=1e-12, P=_canon(P)))

    # Criterion 9: the diagonal cubic fourfold, 1/16 - Gamma(1/3)^3/810.
    P4 = MPoly.parse("x1^3 + x2^3 + x3^3 + x4^3", 4)
    crit9 = lambda: mpf(1) / 16 - mp.gamma(mpf(1) / 3) ** 3 / 810
    for tol in (1e-6, 1e-8):
        z_item(f"criterion9-{tol:g}", "criterion-9", P4, MPoly.one(4), 0, 20, tol,
               _mp_truth(crit9, 20))
    return items


# ---------------------------------------------------------------------------
# exact-recursion
# ---------------------------------------------------------------------------

def _random_regular(rng, n, choices, first=None):
    while True:
        d = tuple([rng.choice(first or choices)] + [rng.choice(choices) for _ in range(n - 1)])
        if _regular(d):
            return d


def _mixed_value(base, coeff, gammas):
    return lambda zp: zp.SpecialValue.make_mixed(
        base, [(coeff, zp.ConstantProduct(gammas=gammas))])


def exact_recursion(zp, rng: random.Random) -> list[Item]:
    PS = zp.PowerSumParams
    items: list[Item] = []
    gammas = [F(1), F(1, 2), F(2), F(3), F(3, 2)]

    def add(iid, stratum, call, truth, rule="exact", dps=None, **kw):
        items.append(Item(iid, stratum, rule, call=call, truth=truth, dps=dps, **kw))

    # Recursion at the points with closed forms: origin, last -1, last -2.
    closed = [("zero", lambda n: (0,) * n, "closed_zero"),
              ("minus1", lambda n: (0,) * (n - 1) + (-1,), "closed_last_minus1"),
              ("minus2", lambda n: (0,) * (n - 1) + (-2,), "closed_last_minus2")]
    for rep in range(4):
        for label, point, form in closed:
            n = rng.choice((2, 3, 4))
            p = PS.make(_random_regular(rng, n, range(2, 8)),
                        [rng.choice(gammas) for _ in range(n)])
            N = point(n)
            add(f"recursion-{label}-{rep}", "closed-point",
                lambda p=p, N=N: zp.value_nonpositive(p, N),
                lambda r, p=p, form=form: getattr(zp, form)(p))

    # Even tails d_2..d_n even, N down to -6, against closed_even_tail.
    for rep in range(8):
        n = rng.choice((2, 3, 4))
        p = PS.make(_random_regular(rng, n, (2, 4, 6, 8), first=(3, 5, 7)),
                    [rng.choice(gammas) for _ in range(n)])
        N = tuple(rng.randint(0, 6) for _ in range(n))
        add(f"recursion-even-tail-{rep}", "even-tail",
            lambda p=p, N=N: zp.value_nonpositive(p, tuple(-x for x in N)),
            lambda r, p=p, N=N: zp.closed_even_tail(p, N))

    # Directional limits: goldens under a seeded direction theta.  The
    # Gamma-product coefficient scales with theta_n / (theta_2+..+theta_n).
    def theta(n):
        t, u = rng.randint(0, 3), rng.randint(1, 3)
        th = (F(rng.choice((0, 1, 2, 5))),) + (F(0),) * (n - 3) + (F(t), F(u))
        return th, F(u, t + u)

    goldens = [((3, 2, 2), (0, 0, 0), F(-1, 8), F(-1, 480), (F(1, 2), F(1, 2))),
               ((3, 2, 2), (1, 0, 1), F(0), F(1, 1056), (F(1, 2), F(1, 2))),
               ((4, 3, 3, 3), (0, 0, 0, 1), F(-1, 320), None, ()),
               ((5, 2, 6, 3), (0, 0, 0, 2), F(-1, 60480), F(-3617, 881280),
                (F(1, 6), F(1, 3), F(1, 2)))]
    for d, N, base, coeff, gam in goldens:
        th, ratio = theta(len(d))
        spec = zp.DirectionalSpec(N=N, theta=th)
        want = (lambda zp, base=base: zp.SpecialValue.make_exact(base)) if coeff is None \
            else _mixed_value(base, coeff * ratio, gam)
        add(f"directional-golden-{''.join(map(str, d))}-N{''.join(map(str, N))}",
            "directional-golden",
            lambda p=PS.make(d), spec=spec: zp.directional_limit(p, spec),
            lambda r, want=want: want(zp))

    # Seeded offsets on d = (3,2,2): with an even last exponent the rational
    # part is -1/2 times the two-variable value at (-N1, -(N2+N3)).
    p322 = PS.make((3, 2, 2))
    inner = PS.make((3, 2))
    seeded = []
    for rep in range(4):
        N = tuple(rng.randint(0, 2) for _ in range(3))
        th, _ = theta(3)
        iid = f"directional-offset-{rep}"
        seeded.append((iid, N, th))
        add(iid, "directional-offset",
            lambda spec=zp.DirectionalSpec(N=N, theta=th): zp.directional_limit(p322, spec),
            lambda r, N=N: F(-1, 2) * zp.value_nonpositive(inner, (-N[0], -N[1] - N[2])),
            project=lambda v: v.base if v.kind == "mixed" else v.exact)
    # The limit depends on the direction only through its ray.
    for iid, N, th in seeded[:2]:
        c = rng.choice((2, 3, 5))
        spec = zp.DirectionalSpec(N=N, theta=tuple(c * x for x in th))
        add(f"{iid}-scaled", "directional-ray",
            lambda spec=spec: zp.directional_limit(p322, spec),
            lambda r, iid=iid: r[iid])

    # Non-power gamma_2 folds the limit to a bounded numeric:
    # -1/8 - pi * ratio / (480 sqrt(gamma_2)).
    for dps in (30, 40):
        g2 = rng.choice((2, 3, 5, 6, 7))
        th, ratio = theta(3)
        p = PS.make((3, 2, 2), (F(1), F(g2), F(1)))
        spec = zp.DirectionalSpec(N=(0, 0, 0), theta=th)
        truth = lambda g2=g2, ratio=ratio: (
            -mpf(1) / 8 - mp.pi * ratio.numerator / ratio.denominator / (480 * mp.sqrt(g2)))
        add(f"directional-numeric-{dps}", "directional-numeric",
            lambda p=p, spec=spec, dps=dps: zp.directional_limit(p, spec, precision=dps),
            _mp_truth(truth, dps), rule="bound", dps=dps)

    # The deliberate Bernoulli pairs, each item's truth being its partner's
    # result: B3 against B6 on the 12x12 grid, by rows, and the two zeta(-N)
    # formulas for N <= 40.
    for N1 in range(12):
        for name, other in (("double_B3", "double_B6"), ("double_B6", "double_B3")):
            add(f"{name}-row{N1}", "double-grid",
                lambda N1=N1, name=name: [getattr(zp, name)(N1, N2) for N2 in range(12)],
                lambda r, partner=f"{other}-row{N1}": r[partner])
    for name, other in (("zeta_neg_via_B1", "zeta_neg_closed"),
                        ("zeta_neg_closed", "zeta_neg_via_B1")):
        add(name, "zeta-neg-pair",
            lambda name=name: [getattr(zp.identities, name)(N) for N in range(41)],
            lambda r, other=other: r[other])

    # One-variable Z and the Y expansion + Raabe substitution:
    # Z(c x1, x1^q; -N) = c^N zeta(-N-q), exact.  (M, N) = (N+q, N) and the
    # scale c are fixed per slot: the cost grows with M and N, the size of
    # c^N moves it too, and a repeated P skips its positivity certificate
    # (cached), so seeded scales would change the batch's cost and its P
    # repeats from seed to seed.  These items cost about the median item,
    # so there are many of them.
    slots = ((10, 0), (11, 5), (12, 12), (14, 3), (15, 9), (16, 16)) * 2
    for route in ("Z_value", "raabe"):
        for rep, (M, N) in enumerate(slots):
            c = SCALES[(rep + rep // 6) % len(SCALES)]
            P, Q = zp.MPoly(1, {(1,): c}), zp.MPoly(1, {(M - N,): F(1)})
            if route == "Z_value":
                call = lambda P=P, Q=Q, N=N: zp.Z_value(P, Q, N)
            else:
                call = lambda P=P, Q=Q, N=N: zp.raabe_substitute(zp.Y_expansion(P, Q, N))
            want = c**N * zeta_neg(M)
            add(f"one-var-{route}-{rep}", f"one-var-{route}", call,
                lambda r, want=want: ("exact", want), project=lambda v: (v.kind, v.exact),
                P=_canon(P))

    # Kernels: zeta(5/2) at 100 digits first (it extends the Bernoulli
    # table).  Zeta arguments are fixed, since their cost depends on them;
    # Gamma arguments are seeded.
    zeta_args = [(F(5, 2), 100), (F(7, 3), 40), (F(3), 60)]
    for rep, (s, dps) in enumerate(zeta_args):
        add(f"zeta-numeric-{rep}", "zeta-kernel",
            lambda s=s, dps=dps: zp.riemann_zeta_numeric(s, dps),
            _mp_truth(lambda s=s: mp.zeta(mpf(s.numerator) / s.denominator), dps),
            rule="bound", dps=dps)
    for rep, dps in enumerate((30, 50, 80, 100)):
        q = rng.choice((3, 4, 5, 7))
        x = F(rng.choice([p for p in range(1, 3 * q) if p % q]), q)
        add(f"gamma-{rep}", "gamma-kernel",
            lambda x=x, dps=dps: zp.gamma_rational(x, dps),
            _mp_truth(lambda x=x: mp.gamma(mpf(x.numerator) / x.denominator), dps),
            rule="bound", dps=dps)

    # Mixed values: -2 zeta_{(2,4)}(1+k, -k) = zeta(2), and
    # zeta_{(2,3)}(1, -1) = 1/4 + zeta(2)/120.
    p24 = PS.make((2, 4))
    for kk, dps in enumerate((30, 50, 70, 100)):
        add(f"mixed-24-{dps}", "mixed-value",
            lambda kk=kk, dps=dps: zp.value_mixed_last_nonpositive(p24, (1 + kk, -kk), precision=dps),
            _mp_truth(lambda: -mp.pi**2 / 12, dps), rule="bound", dps=dps)
    dps = 40
    add("mixed-23", "mixed-value",
        lambda dps=dps: zp.value_mixed_last_nonpositive(PS.make((2, 3)), (1, -1), precision=dps),
        _mp_truth(lambda: mpf(1) / 4 + mp.pi**2 / 720, dps), rule="bound", dps=dps)

    # README CLI examples on the exact routes.
    main = lambda argv: run_cli(zp.cli.main, argv)
    mixed_json = {"kind": "mixed", "base": "-1/8",
                  "terms": [{"coeff": "-1/480", "consts": ["Gamma(1/2)", "Gamma(1/2)"]}]}
    for iid, argv, want in (
        ("cli-powersum", ["powersum", "--d", "2,3", "--gamma", "1,1", "--N", "0,0"],
         {"kind": "exact", "value": "1/4"}),
        ("cli-powersum-theta", ["powersum", "--d", "3,2,2", "--N", "0,0,0", "--theta", "0,0,1"],
         mixed_json),
        ("cli-directional", ["directional", "--d", "3,2,2", "--N", "0,0,0"], mixed_json),
    ):
        def stated(payload, want=want):
            got = {k: payload.get(k) for k in want}
            return Check(got == want, None, "" if got == want else f"got {got}")
        add(iid, "readme-cli", lambda argv=argv: main(argv),
            lambda r, argv=argv: main(argv), rule="bytes", stated=stated)
    return items


# ---------------------------------------------------------------------------
# em-oracle
# ---------------------------------------------------------------------------

def em_oracle(zp, rng: random.Random) -> list[Item]:
    em = zp.EMSettings(precision=EM_DPS)
    items: list[Item] = []

    def add(iid, stratum, call, truth, rule="bound", stated=None):
        items.append(Item(iid, stratum, rule, call=call, truth=truth, stated=stated,
                          dps=EM_DPS))

    # gamma^{-s} zeta(d s) at s = -N over the grid.  gamma is fixed per grid
    # point: it sets how far err sits below the value, and so the median
    # looseness of the batch.
    gammas = (F(1), F(1, 2), F(2), F(3), F(3, 2))
    for d in (2, 3):
        for N in range(5):
            g = gammas[(d + N) % len(gammas)]
            add(f"zeta1-d{d}-N{N}", "zeta1-grid",
                lambda d=d, g=g, N=N: zp.zeta1_numeric(d, g, F(-N), em),
                _exact(g**N * zeta_neg(d * N)))

    # Riemann zeta at seeded rational t by continuation, against mpmath: two
    # in (-1, 0), two in (0, 3).
    negative, positive = (F(-1, 3), F(-2, 3), F(-1, 2)), (F(1, 2), F(3, 2), F(5, 2))
    for rep, pool in enumerate((negative, negative, positive, positive)):
        t = rng.choice(pool)
        add(f"riemann-em-{rep}", "riemann-em",
            lambda t=t: zp.zeta_riemann_em(t, em),
            _mp_truth(lambda t=t: mp.zeta(mpf(t.numerator) / t.denominator), EM_DPS))

    # Shifted sums sum_{m>=1} (b + m)^{-s} = Hurwitz zeta(s, b + 1).  Fixed
    # arguments: their looseness sits at the batch median.  With the Riemann
    # items they form a plateau of alike items that holds both the median
    # and the tail rank.
    shifts = (F(1, 2), F(1), F(2), F(3, 2), F(5, 2), F(1, 3), F(3), F(2, 3))
    exponents = (F(-1, 2), F(1, 3), F(3, 2), F(5, 2))
    for rep in range(16):
        b, s = shifts[rep % len(shifts)], exponents[(rep + rep // len(shifts)) % len(exponents)]
        add(f"em-inner-hurwitz-{rep}", "em-inner-sum",
            lambda b=b, s=s: zp.em_inner_sum(F(1), b, 1, s, em),
            _mp_truth(lambda b=b, s=s: mp.zeta(mpf(s.numerator) / s.denominator,
                                               mpf(b.numerator) / b.denominator + 1), EM_DPS))

    # Two-variable continuation against the exact recursion.
    for d, g, s in (((2, 3), (1, 1), (0, 0)), ((2, 3), (1, 1), (0, -1)),
                    ((2, 3), (1, 1), (-1, -1)), ((2, 3), (1, F(1, 2)), (0, -1)),
                    ((3, 2), (1, 1), (-1, 0))):
        p = zp.PowerSumParams.make(d, g)
        add(f"powersum2-{d[0]}{d[1]}-{'' if g[1] == 1 else 'g-'}{-s[0]}{-s[1]}", "powersum2",
            lambda p=p, s=s: zp.powersum2_numeric(p, s, em).value,
            lambda r, p=p, s=s: (zp.value_nonpositive(p, s), 0))

    # README CLI examples of the oracle (default 50 digits, capped at 40).
    main = lambda argv: run_cli(zp.cli.main, argv)
    for iid, argv, truth in (
        ("cli-oracle-zeta1", ["oracle", "zeta1", "--d", "2", "--gamma", "1", "--s", "-1"],
         lambda: F(0)),
        ("cli-oracle-powersum2", ["oracle", "powersum2", "--d", "2,3", "--N", "0,1"],
         lambda: F(-1, 240)),
    ):
        add(iid, "readme-cli", lambda argv=argv: main(argv),
            lambda r, argv=argv: main(argv), rule="bytes",
            stated=lambda payload, t=truth: printed_numeric(payload, t, 40))
    return items


BUILDERS = {
    "face-quadrature": face_quadrature,
    "exact-recursion": exact_recursion,
    "em-oracle": em_oracle,
}


def build(workload: str, seed: int, zp) -> list[Item]:
    """The workload's items in run order: round-robin over strata.

    The host's speed drifts by tens of percent over seconds.  Items of one
    stratum cost about the same and set the batch percentiles, so spreading
    them over the whole batch averages the drift instead of sampling it once.
    The order depends only on the strata's sizes, never on the seed."""
    items = BUILDERS[workload](zp, random.Random(f"{workload}:{seed}"))
    strata: dict[str, list[Item]] = {}
    for it in items:
        strata.setdefault(it.stratum, []).append(it)
    queues = list(strata.values())
    order = []
    while queues:
        order += [q.pop(0) for q in queues]
        queues = [q for q in queues if q]
    return order


def warm_up(workload: str, items: list[Item], zp) -> None:
    """The set-up the benchmark declares: Gauss-Legendre nodes for every rule
    and working precision the batch uses.  The package integrates at
    precision + 10 digits with an order-15 rule and its order-8 companion.
    The oracle also runs its residual blocks with an order-7/4 rule, and its
    diagnostic inner sums at min(EM_DPS, 16) + 10; the CLI oracle caps the
    default 50 digits at 40.  exact-recursion needs no
    warm-up: the Bernoulli table up to B_128 is built on import."""
    gl = zp._quadrature.gauss_legendre_01
    if workload == "face-quadrature":
        rules = [(dps, order) for dps in {it.dps for it in items} for order in (15, 8)]
    elif workload == "em-oracle":
        rules = [(dps, order) for dps in (EM_DPS, min(EM_DPS, 16), 40) for order in (15, 8)]
        rules += [(dps, order) for dps in (EM_DPS, 40) for order in (7, 4)]
    else:
        rules = []
    for dps, order in sorted(set(rules)):
        with mp.workdps(dps + 10):
            gl(order)
