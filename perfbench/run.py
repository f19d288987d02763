#!/usr/bin/env python3
"""Build and run the ThreadEngine serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two binaries of the `perfbench`
package into $CARGO_TARGET_DIR (default `.bench_build`): `perfbench`
without the engine's `trace` feature and `perfbench-traced` with it.

--trace 0 runs the plain binary: the end-to-end measurement.
--trace 1 replays the first round twice, untraced (plain binary) and
traced, and prints the per-layer metrics of the traced replay together
with the comparisons that need both: the tracing overhead and the
sim-vs-measured latency ratio.

The last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Files whose content decides what is measured, for the source revision
# when the checkout is not a git repository.
SOURCE_DIRS = ("crates", "perfbench", "vendor")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def source_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths.extend(os.path.join(base, f) for f in files)
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha1:" + h.hexdigest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def build(target_dir):
    """Build both binaries; returns their paths, or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for extra in (["--bin", "perfbench"], ["--features", "trace", "--bin", "perfbench-traced"]):
        cmd = ["cargo", "build", "--release", "--offline", "--locked", "-q",
               "--manifest-path", manifest] + extra
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return None
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print("perfbench: build failed", file=sys.stderr)
            return None
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "perfbench-traced")


def run(binary, argv, env):
    """Run one binary; echo all but its last line; return the parsed last line."""
    out = subprocess.run([binary] + argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(binary)} exited with {out.returncode}")
    return json.loads(lines[-1])


def merge(untraced, traced, workload):
    """The per-layer result of a --trace 1 run."""
    u, t = untraced["metrics"], traced["metrics"]
    metrics = {k: v for k, v in t.items() if k not in ("trace.wall_s", "sim.p50_ms")}
    base_wall = u["replay.wall_s"]["value"]
    metrics["trace.overhead_frac"] = {
        "value": t["trace.wall_s"]["value"] / base_wall - 1.0 if base_wall > 0 else 0.0,
        "unit": "ratio",
    }
    # The sim's p50 against the measured one on the same inputs: latency
    # (admission to completion) on the closed loop, point latency from the
    # scheduled send on the open one. churn-index has no sim replay.
    measured = {"hotspot-qcut": "replay.latency_p50_ms",
                "mixed-open": "replay.point_p50_ms"}.get(workload)
    sim = t["sim.p50_ms"]["value"]
    ratio = sim / u[measured]["value"] if measured and u[measured]["value"] > 0 else 0.0
    metrics["sim.latency_ratio"] = {"value": ratio, "unit": "ratio"}
    for k, v in u.items():
        if not k.startswith("replay."):
            metrics[k] = v
    return {
        "correct": bool(untraced["correct"] and traced["correct"]),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["hotspot-qcut", "mixed-open", "churn-index"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                                   ".bench_build")))
    binaries = build(target_dir)
    if binaries is None:
        return 1
    plain, traced = binaries
    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_rev(), PERFBENCH_RUSTC=rustc_version())
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        if args.trace == "0":
            result = run(plain, argv, env)
        else:
            result = merge(run(plain, argv, env), run(traced, argv, env), args.workload)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
