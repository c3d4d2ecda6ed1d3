#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

    python3 perfbench/run.py --workload fig3-steady --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Builds the simulator library and the benchmark program (mcs_e2e) from the
checkout's own sources into .bench_build/perfbench with CMake, Release,
then runs the program from the checkout root with the given arguments.
The program's stdout passes through unchanged: its last line is the result
JSON. Build output goes to stderr. Exits non-zero, printing no result,
when the sources are missing or the build fails.

--self-test runs all four workloads at a tiny size in both modes, checks
every metric name and unit against BENCHMARK.json, and checks that each
output check fails a run when its artifact is deliberately corrupted.
"""
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "mcs_e2e")
WORKDIR = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no simulator sources under src/", file=sys.stderr)
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def source_id():
    """The commit in a git work tree, else a digest of the sources built."""
    head = os.path.join(ROOT, ".git")
    if os.path.exists(head):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git-" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256-" + digest.hexdigest()[:16]


def run(args, capture=False):
    command = [BINARY] + args + ["--workdir", WORKDIR, "--source-id", source_id()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def invoke(label, args, fired=None):
        """The result JSON, or None. With `fired`, also check that the
        run failed and that stderr names that check as the reason."""
        done = run(args, capture=True)
        if done is None or done.returncode != 0:
            problems.append(f"{label}: exit {None if done is None else done.returncode}: "
                            f"{'' if done is None else done.stderr.strip()}")
            return None
        try:
            result = last_json(done.stdout)
        except ValueError:
            problems.append(f"{label}: last line is not JSON")
            return None
        if fired is not None and (result.get("correct") is not False
                                  or result.get("failed", 0) < 1
                                  or "check failed: " + fired not in done.stderr):
            problems.append(f"{label}: the check '{fired}' did not fire")
        return result

    # Every workload the program runs, gated in BENCHMARK.json or not.
    workloads = ["fig3-steady", "ivshmem-quad", "high-root-boot", "paper-grid"]
    for workload in workloads:
        for trace in ("0", "1"):
            label = f"{workload} trace={trace}"
            result = invoke(label, ["--workload", workload, "--tiny", "--seconds", "0",
                                    "--trace", trace])
            if result is None:
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: an output check failed")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']}")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {missing} extra {extra} wrong unit {wrong}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} is not a finite number")
                elif trace == "0" and value <= 0:
                    problems.append(f"{label}: end-to-end {name} is {value}")

    # A non-default seed: only the determinism checks apply.
    result = invoke("held-out seed", ["--workload", workloads[0], "--tiny", "--seconds",
                                      "0", "--trace", "0", "--seed", "7"])
    if result is not None and result.get("correct") is not True:
        problems.append("held-out seed: an output check failed")

    # Every output check must fail the runs when its artifact is corrupted.
    # Every run makes at least two repetitions, so the repeated-pass and
    # traced-count checks run even at --seconds 0. The harness-error case
    # uses a held-out seed, so the distribution pin cannot fire with it.
    report = "the resumed comparison report differs"
    for check, workload, trace, seed, message in (
            ("nt-log", "fig3-steady", "0", "0xC0FFEE", "N-worker log vs 1-worker log"),
            ("repeat-log", "paper-grid", "0", "0xC0FFEE", "repeated pass vs first pass"),
            ("distribution", "high-root-boot", "0", "0xC0FFEE", "outcome distribution"),
            ("harness-error", "ivshmem-quad", "0", "7", "harness-error runs"),
            ("traced-log", "ivshmem-quad", "1", "0xC0FFEE", "traced log vs untraced log"),
            ("traced-counts", "high-root-boot", "1", "0xC0FFEE", "per-layer counts changed"),
            ("report", "paper-grid", "0", "0xC0FFEE", report),
            ("report", "fig3-steady", "1", "0xC0FFEE", report)):
        invoke(f"corrupt {check} on {workload} trace={trace}",
               ["--workload", workload, "--tiny", "--seconds", "0", "--trace", trace,
                "--seed", seed, "--corrupt", check], fired=message)

    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print(f"self-test: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return self_test()
    done = run(argv)
    return 2 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
