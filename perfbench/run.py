"""nmdyn's benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each round runs the workload's
command in a fresh process the way a user starts it, and the first
``SETUP_ROUNDS`` rounds run ``nmdyn hypotheses`` (the set-up every command
pays) before it; rounds repeat while the next one should end within
``--seconds``, and at least ``MIN_ROUNDS`` run.  Child processes see one
BLAS thread.  Every round's outputs are checked (see ``checks.py``).
End-to-end metrics are medians over the rounds; the two timings are CPU
seconds (user + system) of the child process, and its wall times are kept in
``rounds.json``.
With ``--trace 1`` one more, traced, in-process run of the workload follows
(see ``tracer.py``) and the per-layer metrics are printed instead.

The metric names and units printed are those listed in ``BENCHMARK.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

MIN_ROUNDS = 2
# set-up is timed in this many rounds; later rounds run the workload alone
SETUP_ROUNDS = 3
# every run must end within 180 s; processes still running then are killed
BUDGET_S = 170.0
# The load is one process with at most the two threads ``--threads 2`` asks
# for.  Left alone, OpenBLAS puts the products with the node array on every
# core; the extra thread spins, nearly doubling CPU time, and does not
# shorten the wall time.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    """Runs commands in fresh processes and times them from start to exit."""

    def __init__(self, root: str, env: dict, deadline: float):
        self.root = root
        self.env = env
        self.deadline = deadline

    def run(self, cmd: list, log_path: str):
        """(wall seconds, peak RSS in MB, exit code, CPU seconds) of one command.

        Peak RSS and CPU time (user + system) are the child's own, from
        wait4.  A command still running at the deadline is killed and
        reported with its signal as a negative exit code.
        """
        with open(log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                usage.ru_utime + usage.ru_stime)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    for needed in (os.path.join(src, "nmdyn", "__init__.py"),
                   os.path.join(root, "scripts", "verify_all.py"),
                   os.path.join(root, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            return _die(f"{os.path.relpath(needed, root)} not found; run from the "
                        "root of an nmdyn source checkout")
    sys.path.insert(0, src)
    from checks import CHECKS, CheckFailed
    from tracer import layer_metrics
    from workloads import SUITES, WORKLOADS, setup_command

    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)

    out_root = _fresh_dir(os.path.join(root, "perfbench", "out", workload.name))
    log = os.path.join(out_root, "commands.log")
    scenario = workload.scenario(args.seed)
    scenario_path = os.path.join(out_root, "scenario.json")
    with open(scenario_path, "w") as handle:
        json.dump(scenario, handle, indent=2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(BLAS_ONE_THREAD)
    runner = Runner(root, env, time.monotonic() + BUDGET_S)

    attempted = failed = 0
    problems = []

    def run_workload(cmd, out_dir):
        """Run the workload command, count its operations, check its outputs."""
        nonlocal attempted, failed
        wall, rss, code, cpu = runner.run(cmd, log)
        attempted += workload.operations
        if workload.script:  # one operation per suite; a crash leaves no report
            lost = sum(not os.path.exists(os.path.join(out_dir, f"verify_{s}.json"))
                       for s in SUITES)
        else:
            lost = 0 if code == 0 else workload.operations
        failed += lost
        if lost:
            print(f"perfbench: {workload.name} exited {code}; see {log}", file=sys.stderr)
        else:
            try:
                CHECKS[workload.name](scenario, out_dir, code)
            except CheckFailed as err:
                problems.append(str(err))
        return wall, rss, cpu

    # untimed: byte-code caches are written once, as on any installed copy
    runner.run([sys.executable, "-c", "import nmdyn.cli"], log)

    # per round: CPU and wall seconds of the set-up and of the workload
    setup_s, setup_wall_s, cpu_s, wall_s, rss_mb = [], [], [], [], []
    start = time.monotonic()
    round_s = 0.0  # the last round's length, checks included
    # a round starts only if it should end within --seconds, so that a run
    # lasts about --seconds whatever the machine's speed
    while len(wall_s) < MIN_ROUNDS or time.monotonic() - start + round_s <= args.seconds:
        began = time.monotonic()
        out_dir = _fresh_dir(os.path.join(out_root, "round"))
        if len(setup_s) < SETUP_ROUNDS:
            wall, _, code, cpu = runner.run(setup_command(scenario_path, out_dir), log)
            attempted += 1
            failed += code != 0
            setup_s.append(cpu)
            setup_wall_s.append(wall)
        wall, rss, cpu = run_workload(workload.command(scenario_path, out_dir), out_dir)
        wall_s.append(wall)
        rss_mb.append(rss)
        cpu_s.append(cpu)
        round_s = time.monotonic() - began

    with open(os.path.join(out_root, "rounds.json"), "w") as handle:
        json.dump({"setup_s": setup_s, "setup_wall_s": setup_wall_s, "cpu_s": cpu_s,
                   "wall_s": wall_s, "peak_rss_mb": rss_mb}, handle)
    values = {
        "setup_s": statistics.median(setup_s),
        "cpu_s": statistics.median(cpu_s),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    listed = declared["end_to_end"]
    if args.trace:
        out_dir = _fresh_dir(os.path.join(out_root, "traced"))
        spans_path = os.path.join(out_root, "spans.json")
        _, _, traced_cpu = run_workload(
            [sys.executable, os.path.join("perfbench", "tracer.py"), workload.name,
             scenario_path, out_dir, spans_path], out_dir)
        if not os.path.exists(spans_path):
            return _die(f"the traced run wrote no spans; see {log}")
        with open(spans_path) as handle:
            traced = json.load(handle)
        values = layer_metrics(traced["spans"], traced["import_s"])
        values["trace.cpu_s"] = traced_cpu
        values["trace.overhead"] = traced_cpu / statistics.median(cpu_s) - 1.0
        with open(os.path.join(out_root, "trace_report.json"), "w") as handle:
            json.dump({"untraced_cpu_s": cpu_s, "absent": traced["absent"],
                       "metrics": values}, handle, indent=2, sort_keys=True)
        for name in traced["absent"]:
            print(f"absent: {name} (not in this version of nmdyn)")
        listed = declared["per_layer"]

    print(f"{workload.name}: seed {args.seed}, {len(wall_s)} rounds in "
          f"{time.monotonic() - start:.1f} s")
    print(f"median wall time: set-up {statistics.median(setup_wall_s):.4g} s, "
          f"workload {statistics.median(wall_s):.4g} s")
    for problem in problems:
        print(f"FAILED {problem}")
    metrics = {}
    for entry in listed:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
