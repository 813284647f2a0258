#!/usr/bin/env python3
"""Build the e2ebench binary from this checkout and run one workload.

    python3 e2ebench/run.py --workload build --seed 1 --seconds 55 --trace 0

Arguments are passed to the binary unchanged (see main.go). The build,
Go's caches and every file a run writes stay under the build directory
($CARGO_TARGET_DIR, default .bench_build) at the root of the checkout.
The binary's last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    # Keep the toolchain's caches and state inside the checkout, and the
    # build offline: the benchmark module depends only on the repository.
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"), ("XDG_CACHE_HOME", "home/.cache")):
        env[key] = os.path.join(out, sub)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOTELEMETRY="off", GOFLAGS="")
    binary = os.path.join(out, "e2ebench-bin")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        run = subprocess.run([binary, "-dir", os.path.join(out, "e2ebench")] + sys.argv[1:],
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
