#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the rrbench program and rrsim from this checkout's sources into
.bench_build/, runs one workload and relays its output; the last line
of standard output is the result object.

  python3 perfbench/run.py --workload snoopy-8c|directory-64c|serve-mix \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

--selftest is the benchmark's own short test (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("snoopy-8c", "directory-64c", "serve-mix")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def require_sources():
    """The benchmark builds the program; without its sources it fails."""
    needed = [ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "rrsim.cc"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        log("repository sources missing: " + ", ".join(missing))
        sys.exit(2)


def build():
    """Configure once, then build incrementally (output to stderr)."""
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "rrbench", "rrsim"],
                   stdout=sys.stderr, check=True)
    return cmake_dir / "rrbench", cmake_dir / "rrsim"


def source_stamp():
    """git sha when the checkout is a repository, and a source digest."""
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "tools" / "rrsim.cc"]
    files += sorted(BENCH_DIR.glob("*.*"))
    for f in files:
        if f.is_file():
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return sha, digest.hexdigest()[:16]


def run_workload(binaries, workload, seed, seconds, trace, extra=()):
    """Run rrbench once; returns (exit code, stdout lines, results stem)."""
    rrbench, rrsim = binaries
    work = BUILD / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    results = BUILD / "results"
    sha, digest = source_stamp()
    cmd = [str(rrbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--results", str(results),
           "--rrsim", str(rrsim), "--git-sha", sha,
           "--src-digest", digest, *extra]
    # rrbench and the daemon it spawns share a new process group, so
    # whatever way rrbench ends, nothing it started outlives the run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        out, code = "", 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    stem = results / f"{workload}-s{seed}-t{trace}"
    return code, out.splitlines(), stem


def metric_specs():
    """Name -> unit of the end-to-end (0) and per-layer (1) metrics.

    BENCHMARK.json is the only list of metric names and units; rrbench
    reports values by name and this attaches the units.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def parse_result(lines, trace):
    """The result object built from rrbench's last line.

    Returns (result, problems). result is None when the line is missing
    or malformed, or when any metric of the run's set has no finite value.
    """
    if not lines:
        return None, ["no output"]
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, ["last line is not JSON"]
    if not isinstance(out, dict) or set(out) != {"attempted", "failed",
                                                 "values"}:
        return None, ["last line is not an rrbench result"]
    values = out["values"]
    metrics, problems = {}, []
    for name, unit in metric_specs()[trace].items():
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} has no value")
        else:
            metrics[name] = {"value": v, "unit": unit}
    if problems:
        return None, problems
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}, []


def selftest(binaries):
    """Short self-check of the benchmark itself; returns problems."""
    problems = []
    specs = metric_specs()
    known = set(specs[0]) | set(specs[1])

    def run(tag, workload, trace, extra=()):
        code, lines, stem = run_workload(binaries, workload, 7, 1, trace,
                                         ["--quick", *extra])
        res, missing = parse_result(lines, trace)
        if code != 0 or res is None:
            problems.append(f"{tag}: exit {code}, no result: "
                            + "; ".join(missing))
            return None, stem
        extra_names = set(json.loads(lines[-1])["values"]) - known
        if extra_names:
            problems.append(f"{tag}: values not in BENCHMARK.json: "
                            f"{sorted(extra_names)}")
        return res, stem

    # Every named metric is emitted with its unit, traced and untraced;
    # the traced run's Chrome trace passes tools/check_trace.py.
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            res, stem = run(tag, workload, trace)
            if res is not None and trace:
                chk = subprocess.run(
                    [sys.executable, str(ROOT / "tools" / "check_trace.py"),
                     str(stem) + ".trace.json"], capture_output=True,
                    text=True)
                if chk.returncode != 0:
                    problems.append(f"{tag}: check_trace.py failed: "
                                    f"{chk.stderr.strip()}")

    # A corrupted .rrlog copy and a wrong initial image are failed
    # operations, not crashes.
    for fault in ("corrupt-log", "wrong-image"):
        tag = f"inject {fault}"
        res, _ = run(tag, "snoopy-8c", 0, ["--inject", fault])
        if res is not None and (res["failed"] != 1 or res["correct"]):
            problems.append(f"{tag}: expected exactly one failed operation, "
                            f"got failed={res['failed']} "
                            f"correct={res['correct']}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    require_sources()
    try:
        binaries = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.selftest:
        problems = selftest(binaries)
        for p in problems:
            log(p)
        print("selftest: " + ("OK" if not problems else
                              f"{len(problems)} problem(s)"))
        return 0 if not problems else 1

    code, lines, _ = run_workload(binaries, args.workload, args.seed,
                                  args.seconds, args.trace)
    res, problems = parse_result(lines, args.trace)
    for line in lines[:-1]:
        print(line)
    if code != 0 or res is None:
        for p in problems:
            log(p)
        log(f"{args.workload} failed (exit {code})")
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
