#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the release `ipt-cli` binary of the library workspace and the
`perfbench` package beside this script (both offline, from source, into
CARGO_TARGET_DIR, default `.bench_build`), then runs `perfbench` with the
same arguments in `.bench_work/`. The last line of standard output is the
JSON result. Build output goes to standard error. Exits non-zero without
a result if either build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, extra):
    """Build one release target, with its log on standard error."""
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, target_dir)
    # Building from the root keeps the workspace's .cargo/config.toml
    # code-generation flags in force for both packages.
    build(target_dir, ["--bin", "ipt-cli"])
    build(target_dir, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target_dir, "release")
    # The run's working directory. Its empty `target/` is where the
    # library looks for a kernel calibration profile, so the lookup stays
    # inside the checkout and finds none: the default static dispatch.
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(os.path.join(work, "target"), exist_ok=True)
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:]
    cmd += ["--cli", os.path.join(release, "ipt-cli")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=work).returncode)


if __name__ == "__main__":
    main()
