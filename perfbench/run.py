#!/usr/bin/env python3
"""Run one benchmark measurement of the DeepMapping reproduction.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lookup-high --seed 1 --seconds 28 --trace 0

The first call in a checkout compiles the program and the benchmark harness
with sbt (the program through its own build.sbt); later calls reuse that
build while the sources are unchanged. Each measurement then runs in a
fresh JVM with fixed flags. The last line of standard output is the
result as one JSON object; everything else goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup-high", "lookup-low")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "2g"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file whose change means the build is stale."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for proj in (os.path.join(ROOT, "project"), os.path.join(HERE, "project")):
        if os.path.isdir(proj):
            files += [os.path.join(proj, f) for f in sorted(os.listdir(proj))
                      if f.endswith((".sbt", ".scala", ".properties"))]
    for tree in (os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"), os.path.join(HERE, "src")):
        for d, dirs, names in os.walk(tree):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "sbt.repository.config" not in opts and os.path.isfile(repos):
        opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    return env


def build():
    """Compile if needed; return the runtime classpath."""
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt")) and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        log("the program's sources (build.sbt, src/main/scala) are not next to perfbench/; nothing to measure")
        sys.exit(2)
    cp_file = os.path.join(HERE, "target", "runtime-classpath.txt")
    stamp_file = os.path.join(HERE, "target", "build.stamp")
    want = stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == want:
                with open(cp_file) as fh2:
                    return fh2.read().strip()
    log("building the program and the benchmark with sbt")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"]
    code = run_child(cmd, HERE, sbt_env(), BUILD_TIMEOUT_S, stdout=sys.stderr)[0]
    if code != 0 or not os.path.isfile(cp_file):
        log(f"build failed (exit {code})")
        sys.exit(3)
    with open(stamp_file, "w") as fh:
        fh.write(want + "\n")
    with open(cp_file) as fh:
        return fh.read().strip()


def run_child(cmd, cwd, env, timeout, stdout):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def jvm_flags(work):
    # No common-pool workers: the program's parallel loops run on the
    # calling thread. Charged with the CPU time of every thread (Trace.scala),
    # a call costs about the same either way, but run in parallel that
    # charge spread about half as far again from run to run.
    return [
        f"-Xms{HEAP}", f"-Xmx{HEAP}",
        "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
        "-Djava.util.concurrent.ForkJoinPool.common.parallelism=0",
        f"-Djava.io.tmpdir={work}",
        f"-Drepro.blockdir={work}",
        "-Dfile.encoding=UTF-8",
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, help="base table rows; the self-check runs small, measurements never set it")
    args = ap.parse_args()

    classpath = build()
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        rows = [f"-Dperfbench.rows={args.rows}"] if args.rows else []
        cmd = ["java"] + jvm_flags(work) + rows + ["-cp", classpath, "repro.perfbench.Main",
                                            "--workload", args.workload, "--seed", str(args.seed),
                                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                                            "--out", os.path.join(HERE, "out")]
        code, out = run_child(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        log(f"measurement failed (exit {code})")
        sys.exit(code if code > 0 else 1)
    lines = [ln for ln in out.decode().splitlines() if ln.strip()]
    if not lines or not lines[-1].startswith("{"):
        log("the measurement printed no result")
        sys.exit(1)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
