"""mcse benchmark: one workload per run, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload enhance --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics untraced. `--trace 1` runs one
untraced reference pass, then traced passes, and reports the per-layer
metrics (see perfbench/README.md). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report. The full result, with machine and run
information, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_thread_blas() -> int:
    """Run BLAS on one thread; returns the CPUs this process may use.

    Must run before numpy is imported. The hot paths are many small
    matmuls (LSTM steps on 256 x 64), which a second thread does not speed
    up, while spinning BLAS threads slow down many-fold when anything else
    shares the CPUs; one thread keeps runs comparable.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process;
    'unknown' outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "blas": vendor,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class Run:
    """Operation and check accounting for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = {}  # kind -> [(seconds, audio seconds)]
        self.errors = []
        self.checks = []

    def attempt(self, fn, *args):
        """(True, result) or (False, None); a failure is recorded, not raised."""
        try:
            return True, fn(*args)
        except Exception as exc:  # the run goes on; the failure is counted
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return False, None

    def tally(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def record(self, kind: str, seconds: float, audio_s: float):
        self.samples.setdefault(kind, []).append((seconds, audio_s))

    def op(self, kind: str, audio_s: float, fn, *args):
        """Time one operation; returns its result, or None if it failed."""
        t0 = time.perf_counter()
        ok, out = self.attempt(fn, *args)
        if ok:
            self.record(kind, time.perf_counter() - t0, audio_s)
        self.tally(1, 0 if ok else 1)
        return out

    def check(self, name: str, fn):
        ok, passed = self.attempt(fn)
        passed = ok and bool(passed)
        self.tally(1, 0 if passed else 1)
        self.checks.append((name, passed))

    def median_seconds(self, kind: str) -> float:
        return statistics.median(s for s, _ in self.samples[kind])

    def median_rtf(self, kind: str) -> float:
        return statistics.median(s / a for s, a in self.samples[kind])

    def rtf(self, mix: dict) -> float:
        """Weighted sum of per-kind median real-time factors."""
        return sum(w * self.median_rtf(kind) for kind, w in mix.items())


def measure(workload, state, run, seconds: float) -> list:
    """Passes until the next one would likely end after `seconds`; at least
    one. Returns the wall time of each pass."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.run_pass(state, run)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.mean(times) > seconds:
            return times


def layer_metrics(names, tracer, setup_reps, passes, unattributed, overhead, run, detail):
    """Per-layer values for one set-up plus one measured pass."""
    setup, meas = tracer.summary("setup")["spans"], tracer.summary("measure")["spans"]

    def span(name, key):
        return (setup.get(name, {}).get(key, 0.0) / setup_reps
                + meas.get(name, {}).get(key, 0.0) / passes)

    def count(name):
        return tracer.counter("setup", name) / setup_reps + tracer.counter("measure", name) / passes

    special = {
        "tensor.nodes_per_step": tracer.counter("measure", "tensor.nodes")
        / max(tracer.counter("measure", "optim.steps"), 1),
        "trace.unattributed_s": unattributed,
        "trace.overhead_share": overhead,
        "run.failed_share": run.failed / max(run.attempted, 1),
        "train.loss_ratio": detail.get("train_loss_ratio", 0.0),
        "baselines.wpe.stoi": detail.get("wpe_stoi", 0.0),
        "baselines.beamformer.stoi": detail.get("beamformer_stoi", 0.0),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = span(name[: -len(".self_s")], "self_s")
        elif name.endswith(".s"):
            out[name] = span(name[: -len(".s")], "total_s")
        elif name.endswith("_s"):
            out[name] = span(name[: -len("_s")], "total_s")
        else:
            out[name] = count(name)
    return out


def main(argv=None) -> int:
    nproc = single_thread_blas()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mcse", "__init__.py")):
        print(f"perfbench: no mcse package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit(), "machine": machine_info(nproc)}
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    run = Run()
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        workload.prepare()
        setup_s, state = [], None
        for _ in range(workload.SETUP_REPS):
            state = None  # the previous set-up's model is not kept alive
            if tracer:
                tracer.phase, tracer.recording = "setup", True
            t0 = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.recording = False
        reference, untraced = [], run
        if tracer:
            untraced, run = run, Run()
            reference = measure(workload, state, untraced, 0.0)
            tracer.phase, tracer.recording = "measure", True
        passes = measure(workload, state, run, args.seconds - sum(reference))
        if tracer:
            tracer.recording = False
            run.tally(untraced.attempted, untraced.failed)
            run.errors += untraced.errors
        workload.check(state, run)
        info["sizes"] = workload.sizes(state)
    finally:
        if tracer:
            tracer.uninstall()
        workload.cleanup()

    detail = workload.detail(run)
    if tracer:
        summary = tracer.summary("measure")
        unattributed = (sum(passes) - summary["root_s"]) / len(passes)
        overhead = run.rtf(workload.MIX) / untraced.rtf(workload.MIX) - 1.0
        metrics = layer_metrics([m["name"] for m in spec["per_layer"]], tracer,
                                len(setup_s), len(passes), unattributed, overhead, run, detail)
        declared = spec["per_layer"]
        info["self_s"] = {
            phase: {name: rec["self_s"] / reps for name, rec in sorted(
                tracer.summary(phase)["spans"].items(), key=lambda kv: -kv[1]["self_s"])}
            for phase, reps in (("setup", len(setup_s)), ("measure", len(passes)))}
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
        tracer.dump(spans_path)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "rtf": run.rtf(workload.MIX),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]

    info.update({"setup_s": setup_s, "reference_pass_s": reference, "pass_s": passes,
                 "detail": detail, "checks": run.checks, "errors": run.errors,
                 "samples": run.samples})
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    info["result"] = result
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(info, fh, indent=1)

    m = info["machine"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={info['commit'][:12]}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} blas={m['blas']} "
          f"threads={m['blas_threads']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']}")
    print(f"sizes: {json.dumps(info['sizes'])}")
    print(f"setup: {len(setup_s)} x, median {statistics.median(setup_s):.4f} s; "
          f"passes: {len(passes)} ({', '.join(f'{p:.2f}' for p in passes)} s)")
    for name, value in detail.items():
        print(f"detail {name} = {value:.6g}")
    for name, ok in run.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for err in run.errors:
        print(f"error {err}")
    if tracer:
        print(f"unattributed {unattributed:.4f} s per pass, "
              f"tracing overhead {100 * overhead:+.1f}%")
        for phase, table in info["self_s"].items():
            print(f"self time (s) per {'set-up' if phase == 'setup' else 'pass'}:")
            for name, self_s in table.items():
                print(f"  {name:40s} {self_s:10.4f}")
    for spec_m in declared:
        print(f"metric {spec_m['name']} = {metrics[spec_m['name']]:.6g} {spec_m['unit']} "
              f"({spec_m['better']} is better)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
