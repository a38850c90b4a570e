"""Outside-in tracing of the zetapoly layers, installed only in a traced pass.

The package imports most names with ``from .x import name``, so a function
is wrapped at every place it is bound: each ``zetapoly`` module whose global
refers to the original function object gets the wrapper.  Methods are
wrapped on their class.  Nothing in ``src/`` changes.

Each wrapped call pushes a frame.  A frame's self time is its duration minus
the time of the wrapped calls directly inside it; inclusive time is counted
once per outermost call of a layer, so recursion is not double counted.
Layer-level calls (the public functions and each quadrature call) are also
kept as spans -- id, parent span, item id, name, start, end -- in memory and
written out as JSON lines when the pass ends.  Very frequent calls (integrand
evaluations, ``eval_mp``, ``mpf_from_rational``) are counted and timed but
not kept as spans.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, layer key, keep spans[, count calls under this layer])
# for every function wrapped with timing.  Quadrature entry points get their
# own wrapper below.
TIMED = [
    ("_quadrature", "gauss_legendre_01", "quadrature.gl_nodes", False),
    ("multipoly", "build_P_alpha_u", "multipoly.build_P_alpha_u", False),
    ("multipoly", "bernstein_positive", "multipoly.bernstein", True),
    ("mahler", "Z_value", "mahler.Z_value", True),
    ("mahler", "period_K", "mahler.period_K", True),
    ("mahler", "Y_expansion", "mahler.Y_raabe", True),
    ("mahler", "raabe_substitute", "mahler.Y_raabe", True),
    ("exactnum", "gamma_rational", "exactnum.gamma", True),
    ("exactnum", "gamma_rational_numeric", "exactnum.gamma", True),
    ("exactnum", "riemann_zeta_numeric", "exactnum.zeta_numeric", True),
    ("powersum", "value_nonpositive", "powersum.value", True),
    ("powersum", "value_mixed_last_nonpositive", "powersum.value", True),
    ("powersum", "directional_limit", "powersum.directional", True),
    ("identities", "double_B3", "identities.double", True),
    ("identities", "double_B6", "identities.double", True),
    ("identities", "zeta_neg_via_B1", "identities.zeta_neg", True),
    ("identities", "zeta_neg_closed", "identities.zeta_neg", True),
    ("polyzeta", "build_family", "polyzeta.build_family", True),
    ("polyzeta", "G_factor", "polyzeta.G_factor", True),
    ("polyzeta", "zeta_P_at", "polyzeta.zeta_P_at", True),
    ("polyzeta", "diagonal_value", "polyzeta.diagonal_value", True),
    ("oracle", "em_inner_sum", "oracle.em_inner_sum", True, "oracle.zeta1_numeric"),
    ("oracle", "zeta1_numeric", "oracle.zeta1_numeric", True),
    ("oracle", "zeta_riemann_em", "oracle.zeta_riemann_em", True),
    ("oracle", "powersum2_numeric", "oracle.powersum2", True),
    ("cli", "main", "cli.main", True),
]

# Functions whose calls are only counted: they run millions of times.
COUNTED = [
    ("exactnum", "mpf_from_rational", "exactnum.mpf_from_rational"),
    ("exactnum", "bernoulli", "exactnum.bernoulli"),
    ("mahler", "index_I", "mahler.index_I"),
]

# Every per-layer metric the traced pass reports, with its unit.  Which
# end-to-end metric each should move, on which workload:
# - quadrature.*: batch_s and item_tail_s on face-quadrature; evals and cells
#   also err_looseness_digits there and batch_s on em-oracle (same order-15/8
#   cell rule); gl_nodes_s moves setup_s.
# - multipoly.eval_mp_*: batch_s on face-quadrature; build_P_alpha_u_*:
#   batch_s on exact-recursion (one-variable Z and Y); bernstein_s:
#   item_p50_s on face-quadrature.
# - mahler.*: item_p50_s on exact-recursion; quad_per_value: batch_s on
#   face-quadrature.
# - exactnum.mpf_from_rational_calls: batch_s on face-quadrature; gamma_s and
#   zeta_numeric_s: batch_s on exact-recursion.
# - powersum.*, identities.double_s: batch_s / item_p50_s on exact-recursion.
# - polyzeta.*: item_p50_s and batch_s on face-quadrature.
# - oracle.*: batch_s on em-oracle, nothing on the other two.
# - cli.main_self_s: item_p50_s of the CLI items.
LAYER_METRICS = {
    "quadrature.calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.cells": "count",
    "quadrature.self_s": "s",
    "quadrature.integrand_s": "s",
    "quadrature.us_per_eval": "us",
    "quadrature.gl_nodes_s": "s",
    "multipoly.eval_mp_calls": "count",
    "multipoly.eval_mp_s": "s",
    "multipoly.build_P_alpha_u_calls": "count",
    "multipoly.build_P_alpha_u_s": "s",
    "multipoly.bernstein_s": "s",
    "mahler.Z_value_self_s": "s",
    "mahler.index_I_calls": "count",
    "mahler.quad_per_value": "ratio",
    "mahler.Y_raabe_s": "s",
    "exactnum.mpf_from_rational_calls": "count",
    "exactnum.bernoulli_calls": "count",
    "exactnum.gamma_s": "s",
    "exactnum.zeta_numeric_s": "s",
    "powersum.value_s": "s",
    "powersum.directional_s": "s",
    "identities.double_s": "s",
    "polyzeta.build_family_s": "s",
    "polyzeta.G_factor_calls": "count",
    "polyzeta.G_factor_s": "s",
    "oracle.em_inner_sum_calls": "count",
    "oracle.em_inner_sum_s": "s",
    "oracle.em_useful_ratio": "ratio",
    "oracle.interval_panels": "count",
    "oracle.powersum2_self_s": "s",
    "cli.main_self_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.item = "setup"
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.stack: list[list[float]] = []  # [start, time of wrapped children]
        self.span_stack: list[int] = []
        self.spans: list[list] = []  # [id, parent, item, name, start, end]
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key: str, name: str, fn, keep_span: bool, under: str | None = None):
        """Time ``fn`` as layer ``key``; with ``under``, also count the calls
        made while a call of layer ``under`` is open, as ``key<under``."""
        tr = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if under and tr.depth[under]:
                tr.counts[f"{key}<{under}"] += 1
            t0 = clock()
            frame = [t0, 0.0]
            tr.stack.append(frame)
            tr.depth[key] += 1
            if keep_span:
                sid = len(tr.spans)
                parent = tr.span_stack[-1] if tr.span_stack else None
                tr.spans.append([sid, parent, tr.item, name, t0, None])
                tr.span_stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                tr.stack.pop()
                tr.depth[key] -= 1
                tr.calls[key] += 1
                tr.self_s[key] += dur - frame[1]
                if not tr.depth[key]:
                    tr.incl[key] += dur
                if tr.stack:
                    tr.stack[-1][1] += dur
                if keep_span:
                    tr.span_stack.pop()
                    tr.spans[sid][5] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadrature(self, name: str, fn):
        """Wrap a quadrature entry point and the integrand passed into it."""
        tr = self
        sig = inspect.signature(fn)
        timed = self._timed("quadrature", name, fn, True, under="mahler.Z_value")
        timed_f = lambda f: self._timed("quadrature.integrand", "integrand", f, False)

        def wrapper(f, *args, **kwargs):
            bound = sig.bind(f, *args, **kwargs)
            bound.apply_defaults()
            dim = bound.arguments.get("dim", 1)
            order = bound.arguments["order"]
            evals = [0]
            inner = timed_f(f)

            def counted_f(x):
                evals[0] += 1
                return inner(x)

            if name == "integrate_interval_fixed":
                tr.counts["oracle.interval_panels"] += 1
            try:
                return timed(counted_f, *args, **kwargs)
            finally:
                tr.counts["quadrature.integrand_evals"] += evals[0]
                if dim:
                    lo = max(3, (order + 1) // 2)
                    tr.counts["quadrature.cells"] += evals[0] / (order**dim + lo**dim)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every zetapoly global bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "zetapoly":
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self):
        import zetapoly  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules["zetapoly." + name] for name in (
            "_quadrature", "multipoly", "mahler", "exactnum", "powersum",
            "identities", "polyzeta", "oracle", "cli")}
        for modname, attr, key, keep, *under in TIMED:
            fn = getattr(mods[modname], attr)
            self._rebind(fn, self._timed(key, attr, fn, keep, *under))
        for modname, attr, key in COUNTED:
            fn = getattr(mods[modname], attr)
            self._rebind(fn, self._counted(key, fn))
        for attr in ("integrate_unit_cube", "integrate_interval_fixed"):
            fn = getattr(mods["_quadrature"], attr)
            self._rebind(fn, self._quadrature(attr, fn))
        mpoly = mods["multipoly"].MPoly
        eval_mp = mpoly.eval_mp
        mpoly.eval_mp = self._timed("multipoly.eval_mp", "eval_mp", eval_mp, False)
        self._undo.append((mpoly, "eval_mp", eval_mp))

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, n, incl, self_s = self.calls, self.counts, self.incl, self.self_s
        evals = n["quadrature.integrand_evals"]
        em_calls = c["oracle.em_inner_sum"]
        out = {
            "quadrature.calls": c["quadrature"],
            "quadrature.integrand_evals": evals,
            "quadrature.cells": round(n["quadrature.cells"], 3),
            "quadrature.self_s": self_s["quadrature"],
            "quadrature.integrand_s": incl["quadrature.integrand"],
            "quadrature.us_per_eval": 1e6 * incl["quadrature.integrand"] / evals if evals else 0.0,
            "quadrature.gl_nodes_s": incl["quadrature.gl_nodes"],
            "multipoly.eval_mp_calls": c["multipoly.eval_mp"],
            "multipoly.eval_mp_s": incl["multipoly.eval_mp"],
            "multipoly.build_P_alpha_u_calls": c["multipoly.build_P_alpha_u"],
            "multipoly.build_P_alpha_u_s": incl["multipoly.build_P_alpha_u"],
            "multipoly.bernstein_s": incl["multipoly.bernstein"],
            "mahler.Z_value_self_s": self_s["mahler.Z_value"],
            "mahler.index_I_calls": n["mahler.index_I"],
            "mahler.quad_per_value": (
                n["quadrature<mahler.Z_value"] / c["mahler.Z_value"] if c["mahler.Z_value"] else 0.0
            ),
            "mahler.Y_raabe_s": incl["mahler.Y_raabe"],
            "exactnum.mpf_from_rational_calls": n["exactnum.mpf_from_rational"],
            "exactnum.bernoulli_calls": n["exactnum.bernoulli"],
            "exactnum.gamma_s": incl["exactnum.gamma"],
            "exactnum.zeta_numeric_s": incl["exactnum.zeta_numeric"],
            "powersum.value_s": incl["powersum.value"],
            "powersum.directional_s": incl["powersum.directional"],
            "identities.double_s": incl["identities.double"],
            "polyzeta.build_family_s": incl["polyzeta.build_family"],
            "polyzeta.G_factor_calls": c["polyzeta.G_factor"],
            "polyzeta.G_factor_s": incl["polyzeta.G_factor"],
            "oracle.em_inner_sum_calls": em_calls,
            "oracle.em_inner_sum_s": incl["oracle.em_inner_sum"],
            "oracle.em_useful_ratio": (
                n["oracle.em_inner_sum<oracle.zeta1_numeric"] / em_calls if em_calls else 0.0
            ),
            "oracle.interval_panels": n["oracle.interval_panels"],
            "oracle.powersum2_self_s": self_s["oracle.powersum2"],
            "cli.main_self_s": self_s["cli.main"],
            "trace.spans": len(self.spans),
        }
        assert set(out) == set(LAYER_METRICS)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "item", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
