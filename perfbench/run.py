#!/usr/bin/env python3
"""statsizer benchmark: builds the library, statsizer_serve and the driver
from this checkout, runs one workload, checks its outputs and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (a
separate run with a span around every call into a library layer; the spans
are written to .bench_build/perfbench/runs/<run>/trace.json). "all" runs
every workload untraced and prints a table of the end-to-end metrics. Exit
status is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("table1_flow", "signoff_mesh8", "serve_mixed")
FLOW_WORKLOADS = ("table1_flow", "signoff_mesh8")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 160  # hard limit on one driver run
BUILD_TIMEOUT_S = 840

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _BENCHMARK = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCHMARK["per_layer"]]

# Per-layer metric -> span name whose median duration (ms) it reports.
SPAN_MEDIANS = {
    "opt.baseline_ms": "opt.baseline",
    "opt.optimize_ms": "opt.optimize",
    "fassta.run_ms": "fassta.run",
    "timing.whatif_ms": "timing.whatif",
    "ssta.fullssta_ms": "ssta.fullssta",
    "ssta.isle_ms": "ssta.isle",
    "sta.update_ms": "sta.update",
    "core.load_ms": "core.load",
    "core.sdc_ms": "core.sdc",
    "bench_format.read_ms": "bench_format.read",
    "bench_format.write_ms": "bench_format.write",
    "drc.preflight_ms": "drc.preflight",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def execution_width():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return nproc, max(1, min(nproc, 4))


def build(width):
    """Configures (once) and builds the driver; returns (driver, server)."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DSTATSIZER_SANITIZE=OFF", "-DSTATSIZER_PARANOID=OFF"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(width)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            log(r.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "perfbench_driver"),
            os.path.join(BUILD_DIR, "statsizer", "statsizer_serve"))


def source_identity():
    """SHA-256 of the sources the benchmark builds, plus the git SHA and
    dirty flag when this is a git checkout."""
    identity = {}
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src", "tools",
                                "CMakeLists.txt", "perfbench"],
                               capture_output=True, text=True, check=False).stdout.strip()
        if sha:
            identity = {"git_sha": sha, "dirty": bool(dirty)}
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    identity["source_sha256"] = h.hexdigest()
    return identity


# ---------------------------------------------------------------------------
# One driver run
# ---------------------------------------------------------------------------

def run_driver(driver, server, workload, seed, seconds, trace, nproc, width):
    """Runs the driver under a hard time limit. Returns (raw result or None,
    progress (attempted, succeeded, failed), error text)."""
    work = os.path.join(BUILD_DIR, "runs", "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "raw.json")
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--width", str(width), "--nproc", str(nproc),
           "--work", work, "--out", out, "--serve-bin", server]
    # Own process group: a hung run is killed with everything it started
    # (the driver and its statsizer_serve child).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    error = ""
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        error = "driver exceeded %d s and was killed" % DRIVER_TIMEOUT_S
    progress = (0, 0, 0)
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith("progress "):
            progress = tuple(int(x) for x in line.split()[1:4])
    if not error and proc.returncode != 0:
        error = "driver exited with status %d" % proc.returncode
    raw = None
    if not error:
        with open(out) as f:
            raw = json.load(f)
    return raw, progress, error, work


def trace_events(work):
    path = os.path.join(work, "trace.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)["traceEvents"]


def check_digests(workload, seed, source_sha256, digests, checks):
    """The final sizes of one seed must be identical across runs of the same
    sources (a change to the sizer may change them)."""
    store = os.path.join(BUILD_DIR, "digests", source_sha256)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d.json" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        for label, hex_digest in digests.items():
            if label in before and before[label] != hex_digest:
                checks.append(("sizes_identical_across_runs", False,
                               "%s: %s then %s" % (label, before[label], hex_digest)))
                return
    else:
        with open(path, "w") as f:
            json.dump(digests, f)
    checks.append(("sizes_identical_across_runs", True, ""))


def end_to_end(raw, checks):
    ops = raw["ops"]
    quality = {q["label"]: q for q in raw["quality"]}.values()
    values = {
        "setup_s": stats.median(raw["setup_s"]),
        "flow_s": stats.pass_seconds(raw["pass_s"]),
        "sigma_reduction_pct": (-100.0 * sum(q["sigma_change"] for q in quality) / len(quality)
                                if quality else None),
        "area_increase_pct": (100.0 * sum(q["area_change"] for q in quality) / len(quality)
                              if quality else None),
        "serve_rps": raw["window_ops"] / raw["window_s"] if raw["window_s"] > 0 else None,
        "success_rate": (raw["attempted"] - raw["failed"]) / max(raw["attempted"], 1),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for name, op, q in (("whatif_p50_ms", "whatif", 0.5), ("whatif_p99_ms", "whatif", 0.99),
                        ("yield_p50_ms", "yield", 0.5), ("sdc_p50_ms", "sdc", 0.5)):
        samples = ops.get(op, [])
        values[name] = stats.percentile(samples, q)
        if values[name] is None:
            checks.append(("percentile_qualifies", False,
                           "%s: %d samples, needs %d" % (name, len(samples),
                                                         stats.samples_needed(q))))
        log("  %-14s n=%d" % (name, len(samples)))
    metrics = {}
    for name, unit in END_TO_END:
        if values[name] is None or values[name] <= 0:
            checks.append(("metric_measured", False, name))
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def per_layer(raw, work, workload, checks):
    events = trace_events(work)
    durations = {}
    for e in events:
        durations.setdefault(e["name"], []).append(e["dur"] / 1000.0)
    values = {m: stats.median(durations.get(span, [])) for m, span in SPAN_MEDIANS.items()}
    # The rest are medians of the driver's counters of the same name.
    for m, _ in PER_LAYER:
        if m not in values:
            values[m] = stats.median(raw["counters"].get(m, []))
    ops = raw["ops"]
    values["serve.protocol_ms"] = (
        stats.median(ops["traced.whatif"]) - stats.median(ops["inproc.whatif"])
        if ops.get("traced.whatif") and ops.get("inproc.whatif") else 0.0)
    self_ms = stats.layer_self_ms(events)
    for m, _ in PER_LAYER:
        if m.startswith("self."):
            values[m] = self_ms.get(m[len("self."):-len("_ms")], 0.0)
    covered = stats.coverage(events)
    values["trace.coverage_pct"] = 100.0 * stats.median(covered)
    untraced, traced = stats.pass_seconds(raw["pass_s"]), stats.pass_seconds(raw["traced_pass_s"])
    values["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced
                                    if untraced and traced else 0.0)
    if workload in FLOW_WORKLOADS and values["trace.coverage_pct"] < 90.0:
        checks.append(("trace_covers_flow", False,
                       "layer spans cover %.1f%% of a pass" % values["trace.coverage_pct"]))
    table = sorted(self_ms.items(), key=lambda kv: -kv[1])
    log("  self time per pass: " + ", ".join("%s %.1f ms" % kv for kv in table))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_one(workload, seed, seconds, trace, tools, nproc, width):
    driver, server = tools
    identity = source_identity()
    log("perfbench: %s seed=%d seconds=%s trace=%d nproc=%d width=%d %s" %
        (workload, seed, seconds, trace, nproc, width, json.dumps(identity)))
    raw, progress, error, work = run_driver(driver, server, workload, seed, seconds, trace,
                                            nproc, width)
    if raw is None:
        # A hung or crashed run: everything started and unfinished failed.
        attempted, succeeded, failed = progress
        failed += attempted - succeeded - failed
        log("perfbench: %s" % error)
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                "metrics": {}}, [("run_completed", False, error)]
    log("perfbench: provenance %s" % json.dumps(raw["provenance"]))
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    check_digests(workload, seed, identity["source_sha256"], raw["digests"], checks)
    if trace:
        metrics = per_layer(raw, work, workload, checks)
    else:
        metrics = end_to_end(raw, checks)
    correct = all(ok for _, ok, _ in checks)
    return {"correct": correct, "attempted": max(raw["attempted"], 1), "failed": raw["failed"],
            "metrics": metrics}, checks


def report(workload, result, checks, out):
    for name, ok, detail in checks:
        if not ok:
            log("  CHECK FAILED %s: %s" % (name, detail))
    for name, m in result["metrics"].items():
        print("%-14s %-26s %14.6g %s" % (workload, name, m["value"], m["unit"]), file=out,
              flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no statsizer source tree at %s; nothing to build" % ROOT)
        return 2
    nproc, width = execution_width()
    try:
        tools = build(width)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    result = None
    for workload in workloads:
        result, checks = run_one(workload, args.seed, args.seconds, args.trace, tools, nproc, width)
        # "all" prints its table on stdout; a single run keeps stdout for the
        # JSON line.
        report(workload, result, checks, sys.stdout if args.workload == "all" else sys.stderr)
        ok = ok and result["correct"]
    if args.workload != "all":
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
