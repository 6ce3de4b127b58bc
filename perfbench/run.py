#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the repository's
crates, then runs one workload from the repository root. The binary prints
every metric by name and, as its last line, the JSON result
`{"correct", "attempted", "failed", "metrics"}`; it writes the full record
(and, with `--trace 1`, a Chrome trace-event file) under `.bench_out/`.
The exit code is the binary's: nonzero when an oracle fails. Build output
goes to stderr, so standard output carries only the benchmark's lines.

`CARGO_TARGET_DIR` selects the build directory (default `.bench_build`).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), "--bin", "perfbench"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
