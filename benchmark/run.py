#!/usr/bin/env python3
"""The repository benchmark's one command (see benchmark/README.md).

One run of one workload, the form every measurement is driven by:

    python3 benchmark/run.py --workload nurd-google-inc --seed 1 \
        --seconds 10 --trace 0

builds nurd_bench if needed and runs it; its output passes through, and the
last line of stdout is the result JSON. `--trace 1` reports the per-layer
metrics instead of the end-to-end ones and leaves the Chrome trace and the
per-layer file under <build>/traces/.

The whole suite:

    python3 benchmark/run.py --runs 5 --out benchmark/results/new.json

runs every workload in BENCHMARK.json --runs times (seeds 1 to --runs) plus
one traced run, each in its own process; prints every metric's median as
`workload metric value unit`; writes one result file with a machine
fingerprint; and exits non-zero if any run failed its check or did not end
within the time limit. Compare two result files with benchmark/compare.py.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; nothing is read or written outside the checkout.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# One run of nurd_bench must end within 180 s; the build before it is not
# part of the run.
RUN_TIMEOUT_S = 180


def build_dir():
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return build if build.is_absolute() else ROOT / build


def build():
    """Configures and builds nurd_bench; build logs go to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no repository sources at {ROOT}; cannot build")
    out = build_dir()
    for cmd in (
        ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "nurd_bench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out / "nurd_bench"


def bench_command(exe, workload, seed, seconds, trace):
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-seed{seed}'}")
    return cmd


def run_captured(exe, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (result, stdout). A run
    past the time limit is killed and recorded as failed with exit code -1,
    so the suite goes on."""
    failed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        proc = subprocess.run(
            bench_command(exe, workload, seed, seconds, trace),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(failed, seed=seed, exit_code=-1), ""
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = failed
    result["seed"] = seed
    result["exit_code"] = proc.returncode
    return result, proc.stdout


def first_line(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        return out.stdout.strip().splitlines()[0] if out.stdout.strip() else ""
    except OSError:
        return ""


def fingerprint(bench_stdout):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = ""
    cache = build_dir() / "CMakeCache.txt"
    if cache.is_file():
        found = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache.read_text(),
                          re.M)
        if found:
            compiler = first_line([found.group(1), "--version"])
    backend = re.search(r"kernel backend (\S+),", bench_stdout)
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "kernel_backend": backend.group(1) if backend else "",
        "compiler": compiler,
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown",
        "platform": platform.platform(),
    }


def run_suite(args, exe):
    report = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    ok = True
    last_stdout = ""
    for name in (w["name"] for w in SPEC["workloads"]):
        entry = {"runs": [], "traced": []}
        for kind, count, trace in (("runs", args.runs, False),
                                   ("traced", 1, True)):
            for seed in range(1, count + 1):
                result, stdout = run_captured(exe, name, seed, args.seconds,
                                              trace)
                last_stdout = stdout or last_stdout
                entry[kind].append(result)
                good = result["correct"] and result["exit_code"] == 0
                ok = ok and good
                print(f"# {name} seed {seed}{' traced' if trace else ''}: "
                      f"{'ok' if good else 'FAILED'}", file=sys.stderr)
        report["workloads"][name] = entry
        for kind in ("runs", "traced"):
            metrics = {}
            for result in entry[kind]:
                for metric, m in result["metrics"].items():
                    metrics.setdefault(metric, (m["unit"], []))[1].append(
                        m["value"])
            for metric, (unit, values) in metrics.items():
                print(f"{name} {metric} {statistics.median(values):.6g} {unit}")
    report["fingerprint"] = fingerprint(last_stdout)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", help="result file of the suite run")
    args = parser.parse_args()

    exe = build()
    if args.workload is None:
        return run_suite(args, exe)
    cmd = bench_command(exe, args.workload, args.seed, args.seconds,
                        args.trace == 1)
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
