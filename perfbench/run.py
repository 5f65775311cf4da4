#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --reference <serve_single_short|train_small> --seed <n>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). The driver's last stdout line is the result object. Every
process the run starts, fleet workers included, is stopped and waited for
before this script exits, whatever the outcome.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) == 0


def stop_group(pgid):
    """SIGKILLs what is left of the driver's process group (orphaned fleet
    workers included) and waits until none of it is alive."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = os.path.join(build_dir, "perfbench")
    proc = subprocess.Popen([driver] + sys.argv[1:], stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        stop_group(proc.pid)
        shutil.rmtree(os.path.join(".bench_run", str(proc.pid)),
                      ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass
    if code == 0 and "--workload" in sys.argv and not names_match(out):
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code if code >= 0 else 1


def names_match(out):
    """The result must carry exactly the metrics BENCHMARK.json lists for
    the mode, with the listed units (the driver keeps its own catalogue)."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    traced = sys.argv[sys.argv.index("--trace") + 1] == "1"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in json.loads(out.splitlines()[-1])
           ["metrics"].items()}
    if got != want:
        print("perfbench: metrics differ from BENCHMARK.json: %s" %
              sorted(set(got.items()) ^ set(want.items())), file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
