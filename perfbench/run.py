#!/usr/bin/env python3
"""Benchmark of the ``speechrig`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_10s --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

One client sends requests in a closed loop: each request is a
``speechrig`` subcommand run in this process through
``speechrig.cli.main(argv)``, on inputs generated from ``--seed``, and
the next request starts when the previous one has been checked. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run. The lines before it give provenance and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the keys of workloads.WORKLOADS, which cannot be imported before the thread pin
WORKLOAD_NAMES = ("infer_10s", "infer_60s", "train_desk", "analyze_takes")
# One BLAS thread: on a shared 2-vCPU host, interleaved runs of infer_10s
# spread 0.09 between runs at 1 thread and 0.20 at 2 threads.
BLAS_THREADS = 1
SETUP_REPEATS = 3

PROBE = """\
import json, time
t0 = time.perf_counter()
import speechrig.cli
t1 = t2 = time.perf_counter()
if {classifier}:
    import speechrig.blink
    speechrig.blink.default_blink_classifier()
    t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "classifier_s": t2 - t1}}))
"""


def pin_blas_threads() -> int:
    """Pin BLAS/OpenMP threads for this process and its children (before numpy loads)."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return n


def blas_threads_in_effect() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads_pinned": threads, "blas_threads_in_effect": blas_threads_in_effect(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit, "src_sha256": src.hexdigest(),
            "client": "one client, closed loop"}


def measure_setup(classifier: bool) -> list[dict]:
    """Fresh interpreters importing speechrig.cli (and training the blink classifier)."""
    probes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", PROBE.format(classifier=classifier)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probe["wall_s"] = time.perf_counter() - t0
        probes.append(probe)
    return probes


def tail_rank(n: int) -> int:
    """Index into sorted samples of the tail latency.

    The highest percentile that leaves at least ten samples beyond it is
    the (n-11)-th smallest; below 21 samples that falls under the median,
    and the median is reported instead.
    """
    return max(n - 11, (n - 1) // 2)


def tail(samples: list[float]) -> tuple[float, float]:
    """Tail latency and its percentile (linear-interpolation definition)."""
    xs = sorted(samples)
    n = len(xs)
    k = tail_rank(n)
    if n >= 21:
        return xs[k], 100.0 * k / (n - 1)
    return statistics.median(xs), 50.0


def run_request(cli, wl, i: int, out: Path, tracer=None) -> dict:
    """One request: its subcommands, timed, then its output check."""
    req = wl.request(i, out)
    problems, captured = [], io.StringIO()
    if tracer is not None:
        tracer.request = i
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in req.argvs:
                code = (tracer.call("cli.main", cli.main, (argv,), {}) if tracer is not None
                        else cli.main(argv))
                if code != 0:
                    problems.append(f"speechrig {argv[0]} exited {code}")
                    break
    except SystemExit as exc:
        problems.append(f"speechrig exited {exc.code}")
    except Exception:  # a crash is a failed request; the loop goes on
        problems.append(traceback.format_exc(limit=3))
    finally:
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = None
    if not problems:
        try:
            problems = req.check()
        except Exception:  # unreadable output fails the request
            problems.append(traceback.format_exc(limit=3))
    if problems:
        print(f"request {i} failed: {'; '.join(problems)}\n{captured.getvalue()[-2000:]}",
              file=sys.stderr)
    return {"index": i, "latency_s": latency, "frames": req.frames, "failed": bool(problems)}


def closed_loop(cli, wl, work: Path, first: int, seconds: float, tracer=None) -> list[dict]:
    """Send requests back to back; a new one starts only before ``seconds`` have passed."""
    records, deadline, i = [], time.perf_counter() + seconds, first
    while time.perf_counter() < deadline:
        records.append(run_request(cli, wl, i, work / "out", tracer))
        i += 1
    return records


def end_to_end(records: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    lat = [r["latency_s"] for r in records]
    rate = statistics.median(r["frames"] / r["latency_s"] for r in records)
    value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(p["wall_s"] for p in setup), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (value, "s"),
        "audio_s_per_s": (rate / 60.0, "s/s"),
        "train_frames_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = f"n={len(lat)} requests"
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
             "latency_p50_s": n, "latency_tail_s": f"p{pct:.1f} of {n}",
             "audio_s_per_s": f"median over {n} of 60 fps seconds / request seconds",
             "train_frames_per_s": f"median over {n} of 60 fps frames / request seconds"}
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "speechrig" / "cli.py").is_file():
        print(f"error: no speechrig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for w in WORKLOAD_NAMES]
        return max(codes)

    threads = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads

    # analyze_takes builds the blink classifier, which the process caches for its lifetime
    classifier = args.workload == "analyze_takes"
    setup = measure_setup(classifier)
    import speechrig.cli as cli
    from speechrig.blink import default_blink_classifier
    from speechrig.rig import default_map

    prov = provenance(args.workload, args.seed, threads)
    wl = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl.prepare(work, args.seed, workloads.ChannelMap(default_map()))
        prov["input_generation_s"] = time.perf_counter() - t0
        if classifier:
            default_blink_classifier()
        # The first request in a process is slower (the allocator's heap and
        # the page cache fill), so one checked but untimed request runs first.
        warm = run_request(cli, wl, 0, work / "warm")
        problems = []
        if args.trace:
            plain = closed_loop(cli, wl, work, 1, args.seconds / 2)
            tracer = layers.instrument()
            try:
                traced = closed_loop(cli, wl, work, 1 + len(plain), args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            records = plain + traced
            metrics, notes, covered = layers.summarize(tracer, traced, plain, setup)
            if not covered:
                problems.append("per-layer self times do not cover the request time")
        else:
            records = closed_loop(cli, wl, work, 1, args.seconds)
            # before the reference check, so that peak RSS is the program's
            metrics, notes = end_to_end(records, setup)
        last = records[-1]
        if hasattr(wl, "reference_check") and not last["failed"]:
            mismatch = wl.reference_check(last["index"], work / "out")
            if mismatch:
                print(f"request {last['index']} failed: {'; '.join(mismatch)}", file=sys.stderr)
                last["failed"] = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = 1 + len(records)
    failed = warm["failed"] + sum(r["failed"] for r in records)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} requests, "
          "the untimed first one included)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} {value:.6g} {unit}{note}")
    for problem in problems:
        print(f"# check failed: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, notes=notes, requests=records, setup=setup)
    if args.trace:
        record["spans"] = layers.span_records(tracer)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
