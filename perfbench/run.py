#!/usr/bin/env python3
"""Build and run the reqblock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: gc_write, read_hot, fleet_mixed, paper_grid (see BENCHMARK.json
for why each was chosen). The script builds the `perfbench` package (a cargo
workspace of its own under perfbench/) in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs one process per
workload. Each process prints its metrics by name with their units and, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics. With `--workload all` the workloads run one after another and a
last JSON line merges them, with every metric prefixed by its workload.

The exit code is non-zero when the build fails, a workload fails an output
check or a replay panics, or a workload runs past its time limit.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["gc_write", "read_hot", "fleet_mixed", "paper_grid"]
HERE = os.path.dirname(os.path.abspath(__file__))
# A workload process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def git_rev():
    """The checked-out git revision, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", HERE, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        # Build output goes to stderr so the last stdout line stays the result.
        return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False


def run_workload(binary, workload, rest, work_dir, rev):
    """Run one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, *rest, "--work-dir", work_dir, "--rev", rev]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return 124, e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
    return out.returncode, out.stdout


def main(argv):
    workload, rest, i = None, [], 0
    while i < len(argv):
        if argv[i] == "--workload" and i + 1 < len(argv):
            workload = argv[i + 1]
            i += 2
        else:
            rest.append(argv[i])
            i += 1
    if workload not in WORKLOADS + ["all"]:
        print(f"perfbench: --workload must be one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    work_dir = os.path.join(target_dir, f"perfbench-work-{os.getpid()}")
    rev = git_rev()

    if workload != "all":
        code, out = run_workload(binary, workload, rest, work_dir, rev)
        sys.stdout.write(out)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = run_workload(binary, name, rest, work_dir, rev)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            worst = worst or 1
            continue
        merged["correct"] &= bool(result["correct"])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
