#!/usr/bin/env python3
"""Builds and runs the RevBiFPN benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (``perfbench/Cargo.toml``) with path
dependencies on the workspace crates, so it builds the program from source
into ``$CARGO_TARGET_DIR`` (default ``.bench_build``). Reports, span files
and the model artifacts a run writes go to ``.bench_out``.

The launcher adds the provenance the binary cannot see for itself
(toolchain, source revision, the reason each workload exists, taken from
``BENCHMARK.json``), and checks that the result line names exactly the
metrics ``BENCHMARK.json`` declares for the run's trace mode, with their
units. A failed build, a crashed run or a metric mismatch exits non-zero
without printing a result.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Whole-run ceiling for the benchmark binary; the build has its own.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def arg_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def revision():
    """Git revision when available, else a digest of the source tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "vendor", "perfbench"]:
        p = ROOT / top
        files = [p] if p.is_file() else sorted(f for f in p.rglob("*") if f.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    argv = sys.argv[1:]
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if not (ROOT / "crates").is_dir():
        fail("no workspace crates next to perfbench/: nothing to build")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    # Cargo keeps caches under CARGO_HOME even for an offline path-only
    # build; keep them inside the checkout.
    env["CARGO_HOME"] = str(ROOT / ".bench_cargo_home")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_REVISION"] = revision()
    env["PERFBENCH_REASONS"] = json.dumps({w["name"]: w["why"] for w in spec["workloads"]})
    exe = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(exe), *argv, "--out-dir", str(ROOT / ".bench_out")],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("last line is not a JSON result")
    trace = arg_value(argv, "--trace") == "1"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        sys.stderr.write(run.stdout)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}, unit mismatch {units}")
    bad = [k for k, v in result["metrics"].items() if not isinstance(v.get("value"), (int, float))]
    if bad:
        sys.stderr.write(run.stdout)
        fail(f"metrics without a numeric value: {bad}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
