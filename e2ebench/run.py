#!/usr/bin/env python3
"""Build the e2ebench executable from the checkout and run one measurement.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds e2ebench/ (a CMake package over the repository's src/ and tools/)
into .bench_build/ at the checkout root, then runs the executable there
with the workload's worker count pinned through RAPSIM_THREADS. The last
line of stdout is the executable's JSON result. Build output goes to
stderr. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170

# Worker threads per workload, through the repository's RAPSIM_THREADS
# contract (util::worker_count), never left to hardware_concurrency.
# table2_sweep is the only workload whose library calls fan out
# (estimate_congestion_2d over parallel_for_chunks); README.md records the
# measured spread that chose its value. serve_mix sets its 2 workers
# explicitly in code.
THREADS = {
    "table2_sweep": "1",
    "catalog_sim": "1",
    "catalog_lint": "1",
    "serve_mix": "1",
}


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(EXE)


def main(argv):
    if "--workload" not in argv:
        print("usage: run.py --workload NAME --seed N --seconds S --trace 0|1",
              file=sys.stderr)
        return 2
    workload = argv[argv.index("--workload") + 1]
    if workload not in THREADS:
        print(f"run.py: unknown workload {workload!r}", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, RAPSIM_THREADS=THREADS[workload])
    with subprocess.Popen([EXE] + argv, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print("run.py: e2ebench timed out", file=sys.stderr)
            return 1
    if child.returncode != 0:
        return child.returncode
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
