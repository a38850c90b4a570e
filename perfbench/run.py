"""zetapoly benchmark: seeded closed-loop workloads with checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload face-quadrature --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Workloads: face-quadrature, exact-recursion, em-oracle (see workloads.py).

One caller, no threads.  The unit of work is a pass: a fresh interpreter
imports zetapoly from ``src/``, builds the seeded batch, warms the
Gauss-Legendre nodes (that is ``setup_s``), then runs every item of the batch
in order, one at a time, timing each (``batch_s`` is the whole loop), and
only then checks every result against its truth.  Passes run one after
another until ``--seconds`` have been spent, at least one.  batch_s and
peak_rss_mb are medians over passes; item times are each item's median over
passes before the percentiles are taken.  Set-up is measured in at least
five fresh interpreters per run and reported as their median.

Times are reported in reference seconds (see hostspeed.py): every pass
samples the speed of its own core with a fixed reference kernel ten times a
second, and each timed interval is scaled by the speed sampled around it.
The shared host's speed otherwise moves a pass's wall time by tens of
percent from one minute to the next.  The batch's wall time is printed
beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced passes plus one traced pass, and prints the per-layer metrics of
the traced pass (their times are wall seconds) and the tracing overhead
(traced minus untraced batch_s, both in reference seconds); its spans are
written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every pass ran, whether or not items failed; it is 2 without a result
when the package is not there or a pass could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run must end within 180 s: passes stop early and a child still running at
# this deadline is killed.
RUN_BUDGET_S = 170.0
MIN_SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # items beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "err_looseness_digits": "digits",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# One pass, in a fresh interpreter
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, mode: str) -> dict:
    """Set up, and unless mode == "setup", run and check the batch, with the
    host's speed sampled throughout; times are in reference seconds."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.start()
    try:
        return _pass(workload, seed, mode, host)
    finally:
        host.stop()


def _pass(workload: str, seed: int, mode: str, host) -> dict:
    import resource

    clock = time.perf_counter
    t0 = clock()
    tracer = None
    import zetapoly as zp
    import zetapoly.cli  # noqa: F401  (the README CLI items call it)
    from checks import check
    from workloads import build, warm_up

    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    items = build(workload, seed, zp)
    warm_up(workload, items, zp)
    t_setup = clock()
    if mode == "setup":
        return {"setup_s": host.ref_seconds(t0, t_setup)}

    results, spans, errors = {}, {}, {}
    t_batch = clock()
    for item in items:
        if tracer:
            tracer.item = item.id
        t = clock()
        try:
            results[item.id] = item.call()
        except Exception as exc:  # an item that raises is a failed item
            errors[item.id] = f"{type(exc).__name__}: {exc}"
        spans[item.id] = (t, clock())
    t_end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    records = []
    for item in items:
        rec = {"id": item.id, "stratum": item.stratum, "rule": item.rule,
               "s": host.ref_seconds(*spans[item.id]), "ok": False, "looseness": None,
               "detail": ""}
        if item.id in errors:
            rec["detail"] = "raised " + errors[item.id]
        else:
            try:
                chk = check(item, results[item.id], results)
                rec.update(ok=chk.ok, looseness=chk.looseness, detail=chk.detail)
            except Exception as exc:
                rec["detail"] = f"check raised {type(exc).__name__}: {exc}"
        records.append(rec)

    out = {
        "setup_s": host.ref_seconds(t0, t_setup),
        "batch_s": host.ref_seconds(t_batch, t_end),
        "batch_wall_s": t_end - t_batch,
        "kernel_ms": 1e3 * statistics.median(host.durations),
        "peak_rss_mb": peak_rss_mb,
        "items": records,
        "describe": _describe(items),
    }
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return out


def _describe(items) -> dict:
    from collections import Counter

    seen, repeats = set(), 0
    with_P = [it for it in items if it.P is not None]
    for it in with_P:
        repeats += it.P in seen
        seen.add(it.P)
    return {
        "items": len(items),
        "dps": dict(sorted(Counter(str(it.dps) for it in items if it.dps).items())),
        "rel_tol": dict(sorted(Counter(f"{it.rel_tol:g}" for it in items if it.rel_tol).items())),
        "rules": dict(sorted(Counter(it.rule for it in items).items())),
        "P_repeat_share": repeats / len(with_P) if with_P else 0.0,
        "items_with_P": len(with_P),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile).  Every workload has more than TAIL_BEYOND items."""
    xs = sorted(times)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Medians over passes; per-item times are first taken as each item's
    median over the passes, then summarised over items."""
    ids = [r["id"] for r in passes[0]["items"]]
    per_item = {i: [] for i in ids}
    for p in passes:
        for r in p["items"]:
            per_item[r["id"]].append(r["s"])
    times = [statistics.median(per_item[i]) for i in ids]
    loose = [r["looseness"] for r in passes[0]["items"] if r["looseness"] is not None]
    tail_s, pct = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(p["batch_s"] for p in passes),
        "batch_wall_s": statistics.median(p["batch_wall_s"] for p in passes),
        "kernel_ms": statistics.median(p["kernel_ms"] for p in passes),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_s,
        "tail_percentile": pct,
        "err_looseness_digits": statistics.median(loose),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------

def _spawn(args, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZETAPOLY_")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", mode]
    timeout = max(deadline - time.perf_counter(), 1.0)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> str:
    import mpmath

    return (f"env: git {_git_sha()} | python {platform.python_version()} | "
            f"mpmath {mpmath.__version__} backend {mpmath.libmp.BACKEND} | "
            f"nproc {os.cpu_count()}")


def run(args, started: float) -> int:
    from hostspeed import NOMINAL_S

    deadline = started + RUN_BUDGET_S
    passes, setups = [], []
    while True:
        p = _spawn(args, "pass", deadline)
        passes.append(p)
        setups.append(p["setup_s"])
        spent = time.perf_counter() - started
        per_pass = spent / len(passes)
        room = deadline - time.perf_counter() - (per_pass * 1.6 if args.trace else 0)
        if spent >= args.seconds or per_pass > room:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_spawn(args, "setup", deadline)["setup_s"])
    traced = _spawn(args, "traced", deadline) if args.trace else None

    records = [r for p in passes for r in p["items"]]
    attempted, failed = len(records), sum(not r["ok"] for r in records)
    e2e = end_to_end(passes, setups)

    d = passes[0]["describe"]
    print(environment())
    print(f"workload {args.workload} seed {args.seed}: {d['items']} items, closed loop, "
          f"1 caller; {len(passes)} pass(es), {len(setups)} set-ups")
    print(f"  precision mix (dps: items) {d['dps']}; rel_tol mix {d['rel_tol']}")
    print(f"  rules {d['rules']}; P repeats an earlier item's P in "
          f"{100 * d['P_repeat_share']:.0f}% of {d['items_with_P']} items with a P")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED {r['id']}: {r['detail']}")
    print(f"  fail_frac = {failed / attempted:.4f} fraction ({failed} of {attempted} items failed)")
    print(f"  times below are reference seconds: the reference kernel took a median "
          f"{e2e['kernel_ms']:.4g} ms against its nominal {1e3 * NOMINAL_S:.4g} ms; "
          f"batch wall time {e2e['batch_wall_s']:.6g} s")
    for k in ("setup_s", "batch_s", "item_p50_s"):
        print(f"  {k} = {e2e[k]:.6g} {END_TO_END[k]}")
    print(f"  item_tail_s = {e2e['item_tail_s']:.6g} s (p{e2e['tail_percentile']:.1f} "
          f"of {d['items']} items)")
    for k in ("err_looseness_digits", "peak_rss_mb"):
        print(f"  {k} = {e2e[k]:.6g} {END_TO_END[k]}")

    if traced is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        from tracing import LAYER_METRICS

        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["batch_s"] - e2e["batch_s"]
        units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"})
        print(f"  traced pass: batch_s {traced['batch_s']:.6g} s, overhead "
              f"{layers['trace.overhead_s']:.6g} s over the untraced median")
        for k, v in layers.items():
            print(f"  {k} = {v:.6g} {units[k]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        attempted += len(traced["items"])
        failed += sum(not r["ok"] for r in traced["items"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Smoke check
# ---------------------------------------------------------------------------

SMOKE_ITEMS = {
    "face-quadrature": "linear-n2-N0-q0-20",
    "exact-recursion": "recursion-minus1-0",
    "em-oracle": "zeta1-d2-N1",
}


def smoke() -> int:
    """One tiny item per workload must pass its check, and the same item
    with its truth moved by 1/1000 must fail it."""
    import dataclasses
    from fractions import Fraction

    sys.path[:0] = [str(SRC), str(HERE)]
    import zetapoly as zp
    import zetapoly.cli  # noqa: F401
    from checks import check
    from workloads import build

    def wrong(truth, rule):
        if rule == "bound":
            return lambda r: (truth(r)[0] + Fraction(1, 1000), truth(r)[1])
        return lambda r: truth(r) + Fraction(1, 1000)

    problems = 0
    for workload, iid in SMOKE_ITEMS.items():
        item = next(it for it in build(workload, 0, zp) if it.id == iid)
        result = item.call()
        passed = check(item, result, {iid: result}).ok
        bad = dataclasses.replace(item, truth=wrong(item.truth, item.rule))
        rejected = not check(bad, result, {iid: result}).ok
        print(f"smoke {workload}/{iid}: {item.rule} check {'passed' if passed else 'FAILED'}; "
              f"wrong truth {'rejected' if rejected else 'ACCEPTED'}")
        problems += (not passed) + (not rejected)
    print("smoke: ok" if not problems else f"smoke: {problems} problem(s)")
    return 1 if problems else 0


def main() -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("face-quadrature", "exact-recursion", "em-oracle"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("pass", "setup", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke check")
    args = ap.parse_args()
    if not (SRC / "zetapoly" / "__init__.py").is_file():
        print(f"error: no zetapoly package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.child:
        print(json.dumps(_child(args.workload, args.seed, args.child)))
        return 0
    try:
        return run(args, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
