"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload tauberian_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  Set-up (imports, input generation, one warm-up job per engine) is
timed before the measured phase and repeated.  The measured phase repeats
the workload's fixed job list for --seconds and times every job on every
pass.  Times are reported in the probe's reference seconds (see Probe): the
sum over jobs of each job's median time / probe ratio, times REF_S.  With
--trace 1 the first half of the time runs untraced and the second half runs
with every layer wrapped in spans (see tracer.py), which gives the per-layer
metrics and the tracing overhead; each span's self time is scaled by the
probe around its job.  Outputs are checked after the measured
phase.  The last line of standard output is one JSON object with the fields
correct, attempted, failed and metrics; the metrics are the end-to-end ones
of BENCHMARK.json with --trace 0 and its per-layer ones with --trace 1.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# numpy links a multithreaded BLAS; pin it before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
DEFAULT_SEED = 0
REFERENCE_DIR = HERE / "reference"
TRACE_DIR = HERE / "out"


def import_library():
    """Import the workloads against this checkout's library, or exit 1."""
    if not (SRC / "tauberian_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}/tauberian_lab")
    sys.path.insert(0, str(SRC))
    import tauberian_lab
    import workloads
    if SRC not in Path(tauberian_lab.__file__).resolve().parents:
        sys.exit(f"perfbench: imported {tauberian_lab.__file__}, not the checkout's copy")
    return workloads


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_meta(np) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit_id()}


class Probe:
    """A fixed piece of pure-Python and numpy work that runs no library code.

    On shared hardware, load outside this process slows everything by 15% to
    2x for seconds to minutes at a time.  The probe's duration tracks that
    speed.  Timings are divided by the probe time measured around them and
    multiplied by REF_S, so they read as seconds on the machine at REF_S's
    speed, whatever the current phase.  REF_S is the probe's time on the
    2-vCPU machine the benchmark was tuned on (Python 3.11, numpy 2.4) when it
    ran fastest.  A change to the library cannot change the probe.
    """

    REF_S = 2.0e-3

    def __init__(self, np):
        from fractions import Fraction
        from numpy.lib.stride_tricks import sliding_window_view

        grid = np.linspace(0.0, 1.0, 144).reshape(12, 12)

        def work():
            total = Fraction(0)
            for i in range(1, 150):
                total += Fraction(1, i)
            for _ in range(39):
                padded = np.pad(grid, [(2, 2), (0, 0)], constant_values=-np.inf)
                sliding_window_view(padded, 3, axis=0).max(axis=-1)

        self._work = work

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


def run_passes(jobs, budget_s, digest, probe, tracer=None, first=0):
    """Repeat the job list until budget_s has elapsed (at least once).

    Returns (per-job lists of (time, probe time around it), per-pass job
    digests or exceptions, the first pass's outputs).  Digests are taken
    outside the timed region.
    """
    samples = [[] for _ in jobs]
    digests, first_outputs = [], None
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < budget_s:
        p = first + len(digests)
        outputs = []
        before = probe()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"pass{p}/{i}"
            t0 = time.perf_counter()
            try:
                outputs.append(job.run())
            except Exception as exc:  # a failed job is counted, not fatal
                outputs.append(exc)
            elapsed = time.perf_counter() - t0
            after = probe()
            samples[i].append((elapsed, (before + after) / 2))
            before = after
        if tracer is not None:
            tracer.job = None
        digests.append([out if isinstance(out, Exception) else digest(out)
                        for out in outputs])
        if first_outputs is None:
            first_outputs = outputs
    return samples, digests, first_outputs


def reference_seconds(samples) -> float:
    """Sum over jobs of the median over passes of time / probe, in probe
    reference seconds (see Probe)."""
    return Probe.REF_S * sum(statistics.median(t / k for t, k in job) for job in samples)


def raw_seconds(samples) -> float:
    """Sum over jobs of the median over passes of the plain time."""
    return sum(statistics.median(t for t, _ in job) for job in samples)


def probed(probe, fn):
    """Run fn; return its result and REF_S / the probe time around it."""
    before = probe()
    result = fn()
    return result, 2 * Probe.REF_S / (before + probe())


def check_outputs(wl, jobs, outputs) -> dict[str, list[str]]:
    """Workload checks on one pass; a job that raised fails them all."""
    problems = {job.name: [] for job in jobs}
    good = [(j, o) for j, o in zip(jobs, outputs) if not isinstance(o, Exception)]
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            problems[job.name].append(f"raised {type(out).__name__}: {out}")
    try:
        found = wl.check([j for j, _ in good], [o for _, o in good])
    except Exception as exc:  # a crashing check fails every job it covers
        found = {j.name: [f"check raised {type(exc).__name__}: {exc}"] for j, _ in good}
    for name, msgs in found.items():
        problems[name].extend(msgs)
    return problems


def count_failures(jobs, digests, problems, reference) -> int:
    """Failed job runs.  A job whose checks fail fails on every run; a run
    also fails if it raised or its digest differs from the expected one (the
    checked-in reference at the default seed, else the first pass's)."""
    failed = 0
    for i, job in enumerate(jobs):
        bad = bool(problems[job.name])
        expected = reference.get(job.name) if reference is not None else digests[0][i]
        if reference is not None and expected is None:
            problems[job.name].append("no reference output for this job")
        for d in digests:
            if isinstance(d[i], str) and d[i] != expected:
                problems[job.name].append(f"digest {d[i]} != expected {expected}")
            failed += bad or d[i] != expected
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's per-job digests as the reference")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wls = import_library()
    import numpy as np
    import tracer as tracing
    import_s = time.perf_counter() - T_START
    if args.workload not in wls.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wls.WORKLOADS)}")
    wl = wls.WORKLOADS[args.workload]
    meta = run_meta(np)

    # -- set-up, repeated: the imports plus the median repetition
    probe = Probe(np)
    probe()  # the first call pays numpy's lazy set-up
    import_ref = Probe.REF_S * import_s / probe()
    setup = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        jobs = wl.jobs(args.seed)
        for job in wl.warmup(args.seed):
            job.run()
        elapsed = time.perf_counter() - t0
        setup.append(Probe.REF_S * elapsed / ((before + probe()) / 2))
    setup_s = import_ref + statistics.median(setup)

    # -- measured phase
    budget = seconds / 2 if args.trace else seconds
    samples, digests, outputs = run_passes(jobs, budget, wls.digest, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = reference_seconds(samples)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer().install()
        scale = {}  # job id -> factor from seconds to reference seconds
        try:
            tracer.job = "generate"  # inputs again, for the set-up layers' spans
            _, scale["generate"] = probed(probe, lambda: wl.jobs(args.seed))
            traced, tdigests, _ = run_passes(jobs, budget, wls.digest, probe, tracer,
                                             first=len(digests))
            tracer.job = "check"
            problems, scale["check"] = probed(probe, lambda: check_outputs(wl, jobs, outputs))
        finally:
            tracer.uninstall()
        scale.update({f"pass{len(digests) + r}/{i}": Probe.REF_S / k
                      for i, job in enumerate(traced) for r, (_, k) in enumerate(job)})
        digests += tdigests
    else:
        problems = check_outputs(wl, jobs, outputs)

    ref_path = REFERENCE_DIR / f"{args.workload}.json"
    reference = None
    if args.write_reference:
        REFERENCE_DIR.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(
            {"seed": args.seed, "jobs": {j.name: d for j, d in zip(jobs, digests[0])}},
            indent=1) + "\n")
    elif args.seed == DEFAULT_SEED and ref_path.is_file():
        reference = json.loads(ref_path.read_text())["jobs"]
    failed = count_failures(jobs, digests, problems, reference)
    attempted = len(jobs) * len(digests)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} passes={len(digests)}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# machine: plain time {raw_seconds(samples):.4f} s; probe "
          f"{1e3 * statistics.median(k for job in samples for _, k in job):.3f} ms "
          f"(reference {1e3 * Probe.REF_S:.3f} ms)")
    print(f"# digest {wls.digest([str(d) for d in digests[0]])}")
    for name, msgs in problems.items():
        for msg in dict.fromkeys(msgs):
            print(f"# FAIL {name}: {msg}")

    error_rate = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        table = tracing.phase_table(tracer.spans, scale)
        table["trace.overhead_s"] = reference_seconds(traced) - wall_s
        metrics = {m["name"]: tracing.metric_value(table, m["name"])
                   for m in spec["per_layer"]}
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {"meta": meta, "workload": args.workload, "seed": args.seed,
                      "scale": scale})
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}

    for name, value in metrics.items():
        print(f"{name:<52} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':<52} {error_rate:>14.6g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
