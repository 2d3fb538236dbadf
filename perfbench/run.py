#!/usr/bin/env python3
"""Runs one workload of the HPEZ benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spark-e3 --seed 1 --seconds 15 --trace 0

The harness and the program's sources are compiled together by the sbt
build in this directory. The build is redone only when a source changed:
a fingerprint of every source file and the resulting classpath are kept
in perfbench/target/classpath.txt. Each run then starts one JVM, whose
standard output ends with the JSON result line.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "classpath.txt")
WORKLOADS = ("spark-e3", "spark-e5")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module access Spark needs on Java 17 (as spark-submit passes it).
SPARK_JVM_OPTS = ["-Djdk.reflect.useDirectMethodHandle=false",
                  "-Dio.netty.tryReflectionSetAccessible=true"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")]


def fail(msg, code):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def source_files():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for tree in (PROGRAM_SRC, os.path.join(HERE, "src")):
        for dirpath, _, names in os.walk(tree):
            files.extend(os.path.join(dirpath, n) for n in names)
    return sorted(files)


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout), 5)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def spark_home():
    """SPARK_HOME, or the distribution that holds spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME", 2)
    return home


def build_env():
    """The build resolves only from the local caches; it never goes online."""
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath():
    fp = fingerprint()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == fp:
            return lines[1]
    env = build_env()
    code, out = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                          BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail("build failed", 3)
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as fh:
        fh.write("%s\n%s\n" % (fp, lines[-1]))
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail("the program's sources (src/main/scala/repro) are not in this checkout", 2)

    cp = classpath()
    work = os.path.join(TARGET, "run-%d" % os.getpid())
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    # A fixed, pre-touched heap: no page faults or generation resizing
    # while measuring. No perf-data file outside the checkout.
    jvm = ["-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
           "-XX:-UseAdaptiveSizePolicy", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp]
    cmd = [java] + jvm + SPARK_JVM_OPTS + [
        "-cp", cp, "perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--work", work, "--launched-at", repr(time.time() * 1000)]
    try:
        # Spark's scratch goes to the work dir, not to SPARK_LOCAL_DIRS.
        env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail("benchmark JVM exited with code %d" % code, 4)
    lines = out.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 4)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
