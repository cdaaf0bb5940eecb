"""eigenscore benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload gmm2d-stream --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, and scratch files, results and traces go under ./.perfbench_work.
BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
package's own thread pool is the only parallelism.

A run sets the workload up three times (setup_s is the median), then
sends closed-loop requests for --seconds, at least the workload's minimum
count, then checks the outputs.  Every metric is printed as a line
`metric <name> <value> <unit>`; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics.  --trace 1 traces the last
set-up, the workload's minimum number of requests and the evaluation step,
then serves untraced for half of --seconds; it reports per-layer metrics
over the traced part (a fixed amount of work, so counts repeat exactly)
and the tracing overhead as the drop in samples_per_s from the untraced
to the traced requests.  Spans are written to .perfbench_work/traces/.
"""
import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("EIGENSCORE_THREADS", None)  # every CLI call passes --threads

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

N_SETUPS = 3
WORK = ".perfbench_work"
# The timed loop stops here even short of its minimum request count, so a
# very slow build still exits within 180 s.
DEADLINE_S = 130.0


def environment() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def serve(wl, run, first, seconds, min_total, deadline, tracer=None):
    """Closed loop from request `first` on; returns (latencies, samples, elapsed, next).

    With a tracer, each request is a span of its own with a fresh id.
    """
    latencies, samples, i = [], 0, first
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        if (now - t0 >= seconds and i >= min_total) or now >= deadline:
            break
        if tracer is not None:
            with tracer.request_span("bench.request"):
                samples += wl.request(run, i)
        else:
            samples += wl.request(run, i)
        latencies.append(time.perf_counter() - now)
        i += 1
    return latencies, samples, time.perf_counter() - t0, i


def execute(args, workdir, started) -> dict:
    from spans import Tracer, summarize, targets
    from workloads import WORKLOADS, PipelineLog, Run

    tracer = Tracer() if args.trace else None
    run = Run(args.seed, workdir)
    handler = PipelineLog(run)
    logging.getLogger("eigenscore.pipeline").addHandler(handler)
    wl = WORKLOADS[args.workload]()
    deadline = started + DEADLINE_S
    try:
        setup_s, train_rates = [], []
        for rep in range(N_SETUPS):
            if tracer is not None and rep == N_SETUPS - 1:
                tracer.install(targets())
            t0 = time.perf_counter()
            wl.setup(run)
            setup_s.append(time.perf_counter() - t0)
            if getattr(wl, "train_steps_per_s", None):
                train_rates.append(wl.train_steps_per_s)

        run.enter("timed")
        if tracer is None:
            lat, samples, elapsed, n = serve(wl, run, 0, args.seconds, wl.min_requests, deadline)
        else:
            # a fixed number of traced requests, so counts repeat exactly
            lat, samples, elapsed, n = serve(wl, run, 0, 0.0, wl.min_requests, deadline, tracer)
        run.check("min_requests", n >= wl.min_requests, f"{n} >= {wl.min_requests} requests")

        run.enter("evaluate")
        area = wl.evaluate(run)
        if tracer is not None:
            tracer.uninstall()
            run.enter("timed")
            _, plain_samples, plain_elapsed, _ = serve(wl, run, n, args.seconds / 2.0, 0, deadline)
        run.enter("check")
        topk_rel_err = wl.check(run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        logging.getLogger("eigenscore.pipeline").removeHandler(handler)

    attempted = sum(p.attempted for p in run.phases.values())
    failed = sum(p.failed for p in run.phases.values())
    extra = {
        "requests": (n, "count"),
        "failed_share": (failed / max(attempted, 1), "ratio"),
    }
    if train_rates:
        extra["train_steps_per_s"] = (statistics.median(train_rates), "1/s")
    if tracer is None:
        lat = lat or [math.nan]
        q = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "samples_per_s": (samples / elapsed, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1e3 * q[8], "ms"),
            "auroc": (area, "ratio"),
            "topk_rel_err": (topk_rel_err, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = summarize(tracer.spans, *wl.flops)
        traced_sps = samples / elapsed
        plain_sps = plain_samples / plain_elapsed
        metrics["trace.samples_per_s"] = (traced_sps, "1/s")
        metrics["trace.untraced_samples_per_s"] = (plain_sps, "1/s")
        metrics["trace.overhead_share"] = (1.0 - traced_sps / plain_sps if plain_sps else math.nan, "ratio")
        path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(path)
        extra["spans"] = (len(tracer.spans), "count")
        extra["spans_file"] = (path, "path")
    return {
        "correct": all(ok for _, ok, _ in run.checks) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": extra,
        "phases": {k: dataclasses.asdict(p) for k, p in run.phases.items()},
        "checks": run.checks,
        "setup_s": setup_s,
        "latencies_ms": [1e3 * x for x in lat],
    }


def main(argv=None) -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "eigenscore", "__init__.py")):
        print("error: no src/eigenscore here; run from the root of an eigenscore checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import eigenscore

    if not os.path.abspath(eigenscore.__file__).startswith(src + os.sep):
        print(f"error: eigenscore imported from {eigenscore.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = execute(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment()
    result["workload"] = {"name": args.workload, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace}
    result["wall_s"] = time.perf_counter() - started

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)

    env = result["environment"]
    print("environment " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, phase in result["phases"].items():
        print(f"phase {name} " + " ".join(f"{k}={v}" for k, v in phase.items()))
    for name, ok, detail in result["checks"]:
        print(f"check {name} {'ok' if ok else 'FAILED'} {detail}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a value that could not be measured is null, never a made-up number
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
