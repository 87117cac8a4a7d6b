"""wsdirac benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ./src only.
With --trace 0 the run streams seeded requests for S seconds of measured
time (oracle-ladder: a quota of requests sized by S) and reports the
end-to-end metrics of BENCHMARK.json, as times scaled to the host's sampled
speed (see hostspeed.py); with --trace 1 it replays a fixed seeded batch,
alternately untraced and traced, and reports the per-layer metrics.
Correctness checks run outside the timed region.
The last line of standard output is the JSON result; spans and provenance
are written under .bench_out/.
"""
from __future__ import annotations

import os

# cap BLAS threads before numpy is imported, here and in every child
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from itertools import chain, islice  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# fresh interpreters timed per setup_s sample, after one untimed warm-up
SETUP_SAMPLES = 5
# untimed warm-up before a run; the first second of requests ran markedly
# slower than the rest on a 2-vCPU Xeon VM
WARM_UP_S = 1.0
IMPORTTIME_SAMPLES = 3
_SCALED_IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                        "import hostspeed; hostspeed.import_probe(sys.argv[2])")
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import wsdirac; "
                 "print(time.perf_counter() - t)")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _import_library():
    if not (SRC / "wsdirac" / "__init__.py").is_file():
        _fail(f"no wsdirac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wsdirac
    if Path(wsdirac.__file__).resolve().parent != SRC / "wsdirac":
        _fail(f"imported wsdirac from {wsdirac.__file__}, not from {SRC}")


def _child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"child {args[:2]} failed: {proc.stderr.strip()[-400:]}")
    return proc


def setup_times(samples: int) -> tuple[list[float], list[float]]:
    """Cold `import wsdirac`, each in a fresh interpreter: raw and scaled
    seconds (see hostspeed)."""
    probe = ["-c", _SCALED_IMPORT_PROBE, str(BENCH), str(SRC)]
    _child(probe)  # leaves bytecode cached
    raw, scaled = [], []
    for _ in range(samples):
        r, s = map(float, _child(probe).stdout.split())
        raw.append(r)
        scaled.append(s)
    return raw, scaled


def import_split(samples: int) -> dict[str, float]:
    """setup.* from `-X importtime`, median over fresh interpreters."""
    runs = []
    for _ in range(samples):
        err = _child(["-X", "importtime", "-c", _IMPORT_PROBE, str(SRC)]).stderr
        cumulative, own = {}, 0.0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # header line
            name = name.strip()
            cumulative.setdefault(name, int(cum_us) / 1e6)
            if name == "wsdirac" or name.startswith("wsdirac."):
                own += int(self_us) / 1e6
        runs.append({"setup.numpy_s": cumulative.get("numpy", 0.0),
                     "setup.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
                     "setup.wsdirac_own_s": own})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "commit": _commit(),
    }


def _run_request(w, req, tally, tracer=None, rid=0, host=None):
    """One timed request, then its checks: (seconds, Checked, output,
    timing).  With a HostSpeed, timing is its (raw seconds, start, end) and
    the seconds leave the sampler's time out."""
    if tracer is not None:
        tracer.request = rid
    mark = host.begin() if host is not None else time.perf_counter()
    try:
        out = w.run(req)
    except Exception as exc:  # the run goes on; the request counts as failed
        out, error = None, f"error:{type(exc).__name__}"
    else:
        error = None
    timing = host.end(mark) if host is not None else None
    elapsed = timing[0] if host is not None else time.perf_counter() - mark
    if tracer is not None:
        tracer.request = None
    checked = stats.Checked([error], 0) if error else w.check(req, out)
    tally.record(checked.failures)
    return elapsed, checked, out, timing


def _warm_up(w, req) -> None:
    start = time.perf_counter()
    w.warm_up(req)
    while time.perf_counter() - start < WARM_UP_S:
        w.warm_up(req)


def measure(w, seed: int, seconds: float, tally) -> dict:
    """Untraced closed loop over the seeded stream for `seconds` of request
    time, or for the workload's quota of requests when it has one.

    Latencies and throughput are in scaled seconds (see hostspeed); the raw
    ones are returned too, and `seconds` counts raw time."""
    reqs = w.inputs(seed)
    first = next(reqs)
    timings, works, kept = [], [], []
    busy = 0.0
    quota = w.quota(seconds)
    with HostSpeed() as host:
        _warm_up(w, first)
        wall_cap = time.perf_counter() + 3 * seconds + 20
        for req in chain([first], reqs):
            raw, checked, out, timing = _run_request(w, req, tally, host=host)
            timings.append(timing)
            busy += raw
            works.append(checked.work)
            if out is not None and len(kept) < w.min_requests:
                kept.append(out)
            if quota is None:
                done = busy >= seconds and len(timings) >= w.min_requests
            else:
                done = len(timings) >= quota
            if done or time.perf_counter() > wall_cap:
                if not done and quota is not None:
                    # the counts would depend on the machine's speed
                    tally.run_errors.append("quota-not-reached")
                break
        host.settle()
        samples = [host.scale(*t) for t in timings]
        reference_s = statistics.median(host.durations)
    raws = [t[0] for t in timings]
    value, pct = stats.tail(samples)
    return {
        "p50_s": statistics.median(samples), "tail_s": value,
        "tail_percentile": pct, "requests": len(samples),
        "work_per_s": sum(works) / sum(samples), "digest": w.digest(kept),
        "raw_p50_s": statistics.median(raws),
        "raw_work_per_s": sum(works) / sum(raws),
        "reference_s": reference_s,
        "request_s": samples, "request_raw_s": raws, "request_work": works,
    }


def _counts(totals: dict) -> dict:
    return {name: (t["calls"], t["errors"], t["points"])
            for name, t in sorted(totals.items())}


def trace(w, seed: int, seconds: float, tally) -> tuple[dict, list]:
    """Alternate untraced and traced passes over a fixed seeded batch."""
    batch = list(islice(w.inputs(seed), w.trace_batch))
    _warm_up(w, batch[0])
    plain, traced, self_s, first_spans = [], [], {}, None
    counts = eigen_ok = None
    # a workload with a request quota makes a fixed number of passes
    quota = w.quota(seconds)
    passes = None if quota is None else max(1, quota // (2 * len(batch)))
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds if passes is None
                         else len(traced) < passes):
        plain.append(sum(_run_request(w, req, tally)[0] for req in batch))
        tracer = Tracer()
        tracer.install()
        try:
            results = [_run_request(w, req, tally, tracer, i)
                       for i, req in enumerate(batch)]
        finally:
            tracer.uninstall()
        traced.append(sum(r[0] for r in results))
        totals = tracer.layer_totals()
        if counts is None:
            counts, first_spans = _counts(totals), tracer.spans
            eigen_ok = sum(r[1].eigenvalues_ok for r in results)
            missing = [n for n in w.fires if not totals[n]["calls"]]
            if missing:
                tally.run_errors.append("trace-wrapper-silent:" + ",".join(missing))
        elif _counts(totals) != counts:
            tally.run_errors.append("trace-counts-differ")
        for name, t in totals.items():
            self_s.setdefault(name, []).append(t["self_s"])
    metrics = {}
    for name, (calls, errors, points) in counts.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.errors"] = errors
        metrics[f"{name}.points"] = points
        metrics[f"{name}.self_s"] = statistics.median(self_s[name])
    points = metrics.get("pekeris.shape_factor.points", 0)
    metrics["oracle.points_per_eigenvalue"] = points / eigen_ok if eigen_ok else 0.0
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(plain)
    metrics["trace.passes"] = len(traced)
    return metrics, first_spans


def _write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        for sid, s in enumerate(spans):
            fh.write(json.dumps({"id": sid, **s._asdict()}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = _spec()
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    w = workloads.WORKLOADS[args.workload]
    tally = stats.Tally()
    info = provenance(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        values = import_split(IMPORTTIME_SAMPLES)
        layer, spans = trace(w, args.seed, args.seconds, tally)
        values.update(layer)
        _write_spans(OUT / f"spans-{stem}.jsonl", spans)
        wanted = spec["per_layer"]
        info["samples"] = {"per_layer": int(values["trace.passes"]),
                           "setup": IMPORTTIME_SAMPLES}
        samples = {}
    else:
        setup_raw, setup = setup_times(SETUP_SAMPLES)
        values = measure(w, args.seed, args.seconds, tally)
        values["setup_s"] = statistics.median(setup)
        values["raw_setup_s"] = statistics.median(setup_raw)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        wanted = spec["end_to_end"]
        info["samples"] = {"setup_s": SETUP_SAMPLES, "peak_rss_mb": 1,
                           **dict.fromkeys(("p50_s", "tail_s", "work_per_s"),
                                           values["requests"])}
        info.update(tail_percentile=values["tail_percentile"], work_unit=w.unit,
                    grid_digest=values["digest"],
                    reference_loop_s=values["reference_s"],
                    raw={k: values[f"raw_{k}"]
                         for k in ("setup_s", "p50_s", "work_per_s")})
        samples = {"setup_s": setup, "setup_raw_s": setup_raw,
                   **{k: values[k] for k in
                      ("request_s", "request_raw_s", "request_work")}}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"metrics not produced: {', '.join(missing)}")
    info["fail_frac"] = tally.fail_frac
    info["failure_kinds"] = dict(tally.kinds)
    info["run_errors"] = tally.run_errors
    result = {
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": info, "samples": samples, "result": result}, indent=1) + "\n")
    for m in wanted:
        print(f"# {args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"# {args.workload} tail_s is p{values['tail_percentile']:.3g} "
              f"of {values['requests']} requests; work unit: {w.unit}")
        print(f"# {args.workload} times are scaled to a reference loop of "
              f"{REFERENCE_S:.3g} s; it took {values['reference_s']:.3g} s here; "
              + ", ".join(f"raw {k} = {v:.6g}" for k, v in info["raw"].items()))
    if info.get("grid_digest"):
        print(f"# {args.workload} energy digest = {info['grid_digest']}")
    print(f"# {args.workload} fail_frac = {tally.fail_frac:.4g} "
          f"({tally.failed}/{tally.attempted})"
          + (f" kinds={dict(tally.kinds)}" if tally.kinds else ""))
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
