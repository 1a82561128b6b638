"""Run one hesspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload theory_oracle --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ./src.
Passes of the workload repeat until --seconds have elapsed (at least
one).  With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced (span wrappers installed), and the line carries the per-layer
metrics and the tracing overhead.  Full results (provenance, samples, failures,
output digests) go to perfbench/out/result-<workload>-trace<k>.json and
spans to perfbench/out/spans-<workload>.npz.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# name -> unit; the end-to-end metrics reported with --trace 0
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_frac": "1", "spike_abs_err": "1", "edge_abs_err": "1",
    "cos2_abs_err": "1", "mass_abs_err": "1", "mc_spike_abs_err": "1",
    "mc_cos2_abs_err": "1", "density_l1": "1",
}
# resolution of the library's solvers: find_spikes polishes roots to
# 1e-10, support bisects edges to 1e-6; errors below read as these
ERROR_FLOORS = {"spike_abs_err": 1e-10, "edge_abs_err": 1e-6,
                "cos2_abs_err": 1e-8}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced theory_oracle configs that run in seconds")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and exit")
    return ap.parse_args(argv)


def set_up(args):
    """Import the library, build the workload and its oracles; returns
    (workload, seconds since this process started timing)."""
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have "
                         f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wl.setup()
    return wl, time.perf_counter() - _START


def child_setup(args):
    """One set-up in a fresh interpreter, as a user's process pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_passes(wl, args, tally, acc):
    """Timed passes; each is checked (untimed) before the next starts.

    With --trace 1, untraced and traced passes alternate, starting
    untraced, so the overhead compares passes made under similar load.
    """
    import layers
    import tracing
    tracer = tracing.Tracer() if args.trace == 1 else None
    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_no = len(passes)
            layers.install(tracer)
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
        try:
            start = time.perf_counter()
            out = wl.run_pass(out_dir)
            wall = time.perf_counter() - start
            mc = wl.check(out, tally, acc)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                tracer.uninstall()
        passes.append({"wall_s": wall, "traced": traced,
                       "units": out.get("units", {}), **mc})
        elapsed = time.perf_counter() - begin
        if elapsed >= args.seconds and (tracer is None or traced):
            break
    return passes, tracer


def end_to_end(passes, setup, tally, acc):
    from stats import summarize
    rates = [r for p in passes for r in p["rates"]]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "trials_per_s": statistics.median(rates) if rates else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": tally.ok_frac,
    }
    for name in END_TO_END:
        if name not in values:
            values[name] = acc.value(name)
    samples = {"setup_s": summarize(setup),
               "wall_s": summarize([p["wall_s"] for p in passes])}
    if rates:
        samples["trials_per_s"] = summarize(rates)
    return values, samples


def per_layer(passes, tracer, workload):
    import layers
    import tracing
    spans = tracer.spans()
    self_times = tracing.self_times(spans["id"], spans["parent"],
                                    spans["start"], spans["end"],
                                    spans["thread"])
    rows = [layers.per_pass(spans, self_times, tracer.counters(k), k)
            for k, p in enumerate(passes) if p["traced"]]
    values = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
    values["trace.overhead_s"] = traced - untraced
    tracer.save(os.path.join(OUT, f"spans-{workload}.npz"))
    return values, rows


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hesspec", "__init__.py")):
        print(f"error: no hesspec sources under {SRC}; run from the root of "
              "a hesspec checkout", file=sys.stderr)
        return 2
    wl, own_setup = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    os.makedirs(OUT, exist_ok=True)
    setup = [own_setup] + [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import provenance
    from stats import MaxError, Tally
    tally = Tally()
    acc = MaxError(ERROR_FLOORS)
    passes, tracer = run_passes(wl, args, tally, acc)

    result = {"workload": wl.name, "why": wl.why, "trace": args.trace,
              "seconds": args.seconds, "smoke": args.smoke,
              "provenance": provenance.collect(ROOT, wl.seeds()),
              "passes": passes, "failures": tally.notes,
              "errors": {k: {"value": v[0], "where": v[1]}
                         for k, v in acc.worst.items()},
              "digests": getattr(wl, "digests", {})}
    if args.trace == 0:
        values, samples = end_to_end(passes, setup, tally, acc)
        units = END_TO_END
        result["samples"] = samples
    else:
        import layers
        values, rows = per_layer(passes, tracer, wl.name)
        units = layers.METRICS
        result["layer_passes"] = rows
    missing = sorted(k for k in units if values.get(k) is None)
    result["metrics"] = values
    with open(os.path.join(OUT, f"result-{wl.name}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    for name in units:
        if values.get(name) is not None:
            print(f"{wl.name:14s} {name:28s} {values[name]:.9g} {units[name]}")
    for note in dict.fromkeys(json.dumps(n) for n in tally.notes):
        print(f"{wl.name:14s} failed {note}")
    line = {
        "correct": tally.errors == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.errors,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if values.get(k) is not None},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
