#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      determinism, held-out seed,
                                             perturbed golden entry
    python3 perfbench/run.py --golden        regenerate perfbench/golden.json

Run from the repository root.  The benchmark is an OCaml executable
(perfbench/main.ml) built here from source with dune's release profile;
the last line of standard output is the result object.  Workloads and
metrics are described in perfbench/NOTES.md.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIMEOUT_S = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune is not on PATH")


def build():
    cmd = dune() + ["build", "--root", ".", "--profile", "release",
                    "./perfbench/main.exe"]
    # the build's own chatter goes to stderr: stdout carries the result
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed ({proc.returncode})")


def main(argv):
    if argv in (["--selftest"], ["--golden"]):
        args = [argv[0][2:]]
    else:
        args = ["run"] + argv
    if not os.path.isfile(os.path.join(ROOT, "perfbench", "golden.json")):
        sys.exit("perfbench: perfbench/golden.json is missing")
    build()
    work = os.path.join("perfbench", ".work", str(os.getpid()))
    os.makedirs(os.path.join(ROOT, work))
    try:
        proc = subprocess.Popen([os.path.join(ROOT, EXE)] + args
                                + ["--work", work], cwd=ROOT)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit(f"perfbench: no result within {TIMEOUT_S} s")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(os.path.join(ROOT, work)))
        except OSError:
            pass  # another run's directory is still there
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
