#!/usr/bin/env python3
"""Benchmark of the qii toolkit: one workload per process, stdlib and numpy only.

Run from the repository root:

    python3 bench/run.py --workload split --seed 1 --seconds 55 --trace 0

Workloads: split, bands (see workloads.py).
``--trace 0`` repeats one cycle of inputs for ``--seconds`` (at least three
times) and prints the end-to-end metrics listed in BENCHMARK.json.  The host's
speed for the same work swings by up to 1.6x, for seconds to minutes at a
time, so every time is divided by the host's slowdown over its cycle, which
a fixed probe run after each batch measures (``Workload.host_probe``); each
item and each batch then counts with its median over the cycles.  The times
as measured are printed above the result.  ``--trace 1`` runs a fixed
number of cycles three times: untraced, then twice with layer spans.  It prints the per-layer
metrics and the tracing overhead, and it checks that the traced outputs equal
the untraced ones and that the exact counts repeat.  ``--smoke`` shrinks every
size so a run takes seconds.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# one process, one thread: the CLI's worker pool and BLAS both stay serial
THREADS = {"QII_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 5      # fresh processes timed for setup_s; the median is reported
MIN_CYCLES = 3
SPLIT = "loops.split_self_intersections"
# (module, name as bound in that module, span name)
LAYERS = (
    ("cli", "main", "cli.main"),
    ("cli", "random_fourier_spec", "loops.random_fourier_spec"),
    ("cli", "fourier_loop", "loops.fourier_loop"),
    ("loops", "fourier_states", "loops.fourier_states"),
    ("search", "fourier_states", "loops.fourier_states"),
    ("cli", "split_self_intersections", SPLIT),
    ("loops", "split_self_intersections", SPLIT),   # the benchmark's own split items
    ("applications", "split_self_intersections", SPLIT),
    ("search", "_split_states", SPLIT),
    ("cli", "summarize", "geometry.summarize"),
    ("geometry", "summarize", "geometry.summarize"),
    ("applications", "summarize", "geometry.summarize"),
    ("cli", "strong_qii", "inequalities"),
    ("inequalities", "strong_qii", "inequalities"),
    ("cli", "minimize_margin", "search.minimize_margin"),
    ("models", "eigh", "core.eigh"),
    ("models", "band_state", "models.band_state"),
    ("applications", "qgt_at", "geometry.qgt_at"),
    ("applications", "bz_loop", "models.bz_loop"),
    ("applications", "fermi_surface_loop", "models.fermi_surface_loop"),
    ("models", "fermi_surface_loop", "models.fermi_surface_loop"),
    ("applications", "wannier_bound_chain", "applications.wannier_bound_chain"),
    ("applications", "superfluid_weight_1d", "applications.superfluid_weight_1d"),
    ("applications", "eph_bound_chain", "applications.eph_bound_chain"),
    ("applications", "random_gapped_bloch_spec", "applications.random_gapped_bloch_spec"),
)
# metrics that count work and must repeat exactly for a given seed and size
EXACT_SUFFIXES = (".calls", ".parts", ".rejects", "search.evals", "search.penalty_frac",
                  "search.budget_overshoot")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one cycle")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "threads": THREADS}


def setup_seconds(args):
    """Wall time from starting a fresh process to its first timed item."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=170)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return t1 - t0


def tail(values):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return 100.0 * (k + 1) / len(xs), xs[k]


def check_tallies(wl, tallies):
    """(failed items, messages) over every output and error of the tallies."""
    failed, messages = 0, []
    for tally in tallies:
        failed += sum(n for n, _ in tally.errors)
        messages += [m for _, m in tally.errors]
        for kind, _, payload in tally.outputs:
            bad, message = wl.check(kind, payload)
            failed += bad
            if bad:
                messages.append(message)
    return failed, messages


def check_reference(wl, hooks):
    """Compare the workload's fixed reference items with reference.json."""
    from workloads import Tally
    expected = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[wl.name]
    hooks.tally = Tally()
    got = wl.reference()
    bad = [k for k, v in expected.items()
           if k not in got or not math.isclose(got[k], v, rel_tol=1e-9, abs_tol=1e-12)]
    return len(expected), [f"reference {k}: {got.get(k)!r} != {expected[k]!r}" for k in bad]


def item_times(cycles, n_items, n_batches, factors):
    """(items_per_s, p50 s, tail percentile, tail s) of the per-item medians.

    Every time of a cycle is divided by that cycle's factor first.  A batch's
    own work is its wall time minus its items (CLI parsing, output).
    """
    items = [statistics.median(t.durations[i] / f for t, f in zip(cycles, factors))
             for i in range(n_items)]
    overheads = []
    for t, f in zip(cycles, factors):
        ends = itertools.accumulate(n for _, n in t.batches[:n_batches])
        sums = [sum(t.durations[e - n:e]) for e, (_, n) in zip(ends, t.batches)]
        overheads.append([(w - s) / f for (w, _), s in zip(t.batches, sums)])
    batch_own = [statistics.median(o[b] for o in overheads) for b in range(n_batches)]
    pct, tail_s = tail(items)
    return n_items / (sum(items) + sum(batch_own)), statistics.median(items), pct, tail_s


def run_timed(wl, hooks, args):
    from workloads import Tally
    wl.setup()
    cycles, setups, walls = [], [], []
    n_setups = 1 if args.smoke else SETUP_RUNS
    start = time.perf_counter()

    def next_round_s():
        return statistics.median(walls) + (setups[-1] if len(setups) < n_setups else 0.0)

    # the set-up probes count against --seconds, and no round starts that would
    # end past it, so a run takes --seconds plus its own set-up
    while len(cycles) < (2 if args.smoke else MIN_CYCLES) or (
            not args.smoke and time.perf_counter() + next_round_s() < start + args.seconds):
        # set-up probes run between the first cycles, so they sample the same
        # stretch of host speed as the items do
        if len(setups) < n_setups:
            setups.append(setup_seconds(args))
        hooks.tally = Tally()
        t0 = time.perf_counter()
        wl.run_cycle()
        walls.append(time.perf_counter() - t0)
        cycles.append(hooks.tally)
    elapsed = sum(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, messages = check_tallies(wl, cycles)
    attempted = sum(t.attempted for t in cycles)
    if any(t.outputs != cycles[0].outputs for t in cycles):
        messages.append("outputs differ between cycles of the same inputs")
    shape = {(len(t.durations), len(t.batches)) for t in cycles}
    if len(shape) != 1:
        messages.append(f"cycles differ in items and batches: {sorted(shape)}")
    n_items, n_batches = min(shape)
    # each cycle's times are divided by the host's slowdown over that cycle;
    # set-up probe i ran just before cycle i and is divided by its slowdown
    factors = [statistics.fmean(t.probes) / wl.probe_ref_s for t in cycles]
    host = statistics.fmean(p for t in cycles for p in t.probes) / wl.probe_ref_s
    ips, p50, pct, tail_s = item_times(cycles, n_items, n_batches, factors)
    metrics = {
        "items_per_s": ips,
        "item_ms_p50": 1e3 * p50,
        "item_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(s / f for s, f in zip(setups, factors)),
    }
    raw_ips, raw_p50, _, raw_tail = item_times(cycles, n_items, n_batches, [1.0] * len(cycles))
    print(f"bench: {len(cycles)} cycles of {n_items} items in {n_batches} batches, "
          f"{elapsed:.3f} s; items_per_s {n_items * len(cycles) / elapsed:.6g} over the "
          f"whole run; tail is p{pct:.4g} of {n_items} per-item medians")
    print(f"bench: host slowdown {host:.4f} over the run, per cycle "
          + " ".join(f"{f:.3f}" for f in factors))
    print(f"bench: as measured, before dividing by the slowdown: items_per_s {raw_ips:.6g}, "
          f"item_ms_p50 {1e3 * raw_p50:.6g}, item_ms_tail {1e3 * raw_tail:.6g}, "
          f"setup_s {statistics.median(setups):.6g}")
    print(f"bench: failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print("bench: setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    return metrics, attempted, failed, messages


def install_layers(tracer):
    missing = []
    for module, attr, name in LAYERS:
        mod = importlib.import_module("qii." + module)
        if not hasattr(mod, attr):
            missing.append(f"qii.{module}.{attr}")
            continue
        parts = None
        if name == SPLIT:
            # _split_states appends the pieces to its third argument
            parts = ((lambda out, a: len(a[2])) if attr == "_split_states"
                     else (lambda out, a: len(out)))
        tracer.patch(mod, attr, name, parts)
    return missing


def layer_values(spans, counts, outputs):
    from spans import totals
    vals = {f"{name}.{key}": v for name, rec in totals(spans).items()
            for key, v in rec.items()}
    vals[SPLIT + ".parts"] = counts.get(SPLIT + ".parts", 0)
    calls = vals.get("loops.fourier_loop.calls", 0)
    rejects = counts.get("loops.fourier_loop.raised", 0)
    vals["loops.fourier_loop.rejects"] = rejects
    vals["loops.fourier_loop.accept_frac"] = (calls - rejects) / calls if calls else 1.0
    evals = vals.get("search.eval.calls", 0)
    # an evaluation reaches fourier_states unless the box or degeneracy penalty hit
    reached = len({s[3] for s in spans if s[0] == "loops.fourier_states"
                   and s[3] >= 0 and spans[s[3]][0] == "search.eval"})
    vals["search.evals"] = evals
    vals["search.penalty_frac"] = (evals - reached) / evals if evals else 0.0
    vals["search.budget_overshoot"] = sum(1 for kind, _, p in outputs
                                          if kind == "search" and p[3] > p[0])
    return vals


def run_traced(wl, hooks, args):
    from spans import Tracer, totals, write_spans
    from workloads import Tally
    tracer = Tracer()
    missing = install_layers(tracer)
    if missing:
        print(f"bench: warning: no such name to trace: {', '.join(missing)}", file=sys.stderr)
    hooks.tracer = tracer
    wl.setup()
    tracer.restore()
    hooks.tracer = None
    setup_spans, _ = tracer.take()
    cycles = wl.trace_cycles(args.seconds)
    passes = []
    for traced in (False, True, True):
        if traced:
            install_layers(tracer)
            hooks.tracer = tracer
        hooks.tally = tally = Tally()
        t0 = time.perf_counter()
        for _ in range(cycles):
            wl.run_cycle()
        wall = time.perf_counter() - t0
        tracer.restore()
        hooks.tracer = None
        passes.append((tally, wall) + tracer.take())
    (plain, wall0, _, _), (traced, wall1, spans1, counts1), (again, _, spans2, counts2) = passes
    failed, messages = check_tallies(wl, [plain, traced, again])
    attempted = plain.attempted + traced.attempted + again.attempted
    if not plain.outputs == traced.outputs == again.outputs:
        messages.append("traced outputs differ from the untraced ones")
    first = layer_values(spans1, counts1, traced.outputs)
    second = layer_values(spans2, counts2, again.outputs)
    drift = [k for k in first if k.endswith(EXACT_SUFFIXES) and first[k] != second.get(k)]
    if drift:
        messages.append(f"exact counts differ between traced passes: {drift}")
    # per-layer values describe the first traced pass; random models are drawn in set-up
    vals = first
    vals["applications.random_gapped_bloch_spec.s"] = totals(setup_spans).get(
        "applications.random_gapped_bloch_spec", {}).get("s", 0.0)
    vals["search.qii_objective.ms_per_call"] = (
        wl.objective_ms() if hasattr(wl, "objective_ms") else 0.0)
    vals["trace.untraced_s"] = wall0
    vals["trace.overhead_s"] = wall1 - wall0
    out = ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.json"
    write_spans(out, {"setup": setup_spans, "traced": spans1},
                {"workload": wl.name, "seed": args.seed, "cycles": cycles})
    print(f"bench: {cycles} cycles per pass; untraced {wall0:.3f} s, traced {wall1:.3f} s "
          f"(overhead {100.0 * (wall1 - wall0) / wall0:.1f}%); spans in {out.name}")
    return vals, attempted, failed, messages


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "qii" / "__init__.py").is_file():
        print(f"bench: no qii sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(src))
    import qii
    if not Path(qii.__file__).resolve().is_relative_to(src):
        print(f"bench: imported qii from {qii.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Hooks
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=ROOT / ".bench_out") as out:
        hooks = Hooks()
        wl = WORKLOADS[args.workload](args.seed, args.smoke, hooks, out)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        why = next((w["why"] for w in spec["workloads"] if w["name"] == wl.name), "")
        print(f"bench: workload {wl.name} seed {args.seed} trace {args.trace} "
              f"(closed loop, one client): {why}")
        print("bench: env " + json.dumps(environment(), sort_keys=True))
        run = run_traced if args.trace else run_timed
        values, attempted, failed, messages = run(wl, hooks, args)
        n_ref, ref_messages = check_reference(wl, hooks)
    attempted += n_ref
    failed += len(ref_messages)
    messages += ref_messages
    for message in messages[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    # a layer the workload never called has no spans; its metrics read 0
    known = set(values) | {f"{name}.{key}" for *_, name in LAYERS + (("", "", "search.eval"),)
                           for key in ("calls", "s", "self_s")}
    unknown = [m["name"] for m in wanted if m["name"] not in known]
    if unknown:
        print(f"bench: BENCHMARK.json names unknown metrics {unknown}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
