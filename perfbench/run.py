#!/usr/bin/env python3
"""Builds and runs the pfc benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 19960901  # pfc::kDefaultTraceSeed
WORKLOADS = ["paper-grid", "policy-cells", "hit-runs", "mixed-use"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return None
    cmd = ["cmake", "--build", out, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unavailable (not a git checkout)"
    except OSError:
        return "unavailable (no git)"


def run_binary(binary, args):
    """Runs perfbench with the pinned environment; returns its report or None."""
    env = dict(os.environ, PFC_JOBS=str(nproc()), PFC_FULL="0")
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"perfbench: exit code {r.returncode}")
        return None
    return json.loads(lines[-1])


def expected_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def check_digests(report, seed, prefix):
    """At the default seed, counts every cell of a pass whose results differ
    from the committed digest as failed."""
    if seed != DEFAULT_SEED or prefix:
        return
    want = expected_digests()[report["workload"]]
    passes = max(1, len(report["digests"]))
    per_pass = report["attempted"] // passes
    wrong = [got for got in report["digests"] if got != want]
    if wrong:
        report["failed"] = min(report["attempted"], report["failed"] + per_pass * len(wrong))
        report["errors"].append(f"{len(wrong)} of {len(report['digests'])} passes: results "
                                f"digest {wrong[0]} != committed {want}")


def measure(binary, workload, seed, seconds, trace, prefix=0):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", work]
    if prefix:
        args += ["--prefix", str(prefix)]
    if trace:
        spans = os.path.join(build_dir(), "traces", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args += ["--spans-out", spans]
    report = run_binary(binary, args)
    if report is None:
        return None
    check_digests(report, seed, prefix)
    report["provenance"].update(nproc=nproc(), git=git_describe())
    if trace:
        report["provenance"]["spans"] = os.path.relpath(spans, ROOT)
    return report


def result_line(report):
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": report["metrics"]})


def self_check(binary):
    """Short mode: every workload on 2000-reference prefixes, both trace modes."""
    ok = subprocess.run([binary, "--self-check"], cwd=ROOT).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        log("self-check: BENCHMARK.json names a workload run.py does not know")
        ok = False
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            report = measure(binary, workload, DEFAULT_SEED, 0, trace, prefix=2000)
            if report is None:
                log(f"self-check: {workload} --trace {trace} did not run")
                ok = False
                continue
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics/units differ from BENCHMARK.json {key}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"unit mismatch {sorted(k for k in want if k in got and got[k] != want[k])}")
            if report["failed"] or report["attempted"] < 1:
                problems.append(f"{report['failed']} of {report['attempted']} cells failed: "
                                f"{report['errors'][:3]}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"self-check: {workload} --trace {trace}: {len(got)} metrics, "
                f"{report['attempted']} cells: {status}")
            ok = ok and not problems
    log("self-check: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and a.workload is None:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if a.self_check:
        return self_check(binary)

    report = measure(binary, a.workload, a.seed, a.seconds, a.trace)
    if report is None:
        return 1
    print("provenance: " + json.dumps(report["provenance"]))
    for e in report["errors"]:
        print("error: " + e)
    error_rate = report["failed"] / max(1, report["attempted"])
    print(f"{a.workload}: error_rate {error_rate:.6g} ({report['failed']} of "
          f"{report['attempted']} cells failed)")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
