#!/usr/bin/env python3
"""Builds and runs the GenBase end-to-end benchmark.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root (or any copy of it that holds src/ and
perfbench/). The benchmark is built in Release from the repository's
sources into .bench_build/ (CARGO_TARGET_DIR, if set, names another build
directory), then run with every GENBASE_* environment variable removed, so
only the arguments decide the inputs. The last line of standard output is
the result object; build output goes to .bench_build/build.log.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    if not (ROOT / "src" / "core" / "driver.h").is_file():
        fail(f"no GenBase sources under {ROOT / 'src'}; run from a checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 stdin=subprocess.DEVNULL)
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({' '.join(cmd[:2])}); see {log_path}")
    return out


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("GENBASE_")}


def main(argv):
    out = build()
    if argv == ["--selftest"]:
        binary, args = out / "perfbench_selftest", []
    else:
        binary, args = out / "perfbench", list(argv)
        if "--trace-out" not in args:
            # Spans of a traced run land beside the build, inside the checkout.
            opts = dict(zip(args[::2], args[1::2]))
            name = f"trace-{opts.get('--workload', 'x')}-{opts.get('--seed', 'x')}"
            args += ["--trace-out", str(out / f"{name}.jsonl")]
    if not binary.is_file():
        fail(f"missing {binary} after build")
    proc = subprocess.Popen([str(binary)] + args, env=clean_env(),
                            stdin=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded 170 s and was stopped")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
