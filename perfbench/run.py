"""The checker's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload decoder-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py ... --out results.jsonl     # also append a record
    python3 perfbench/run.py compare before.jsonl after.jsonl
    python3 perfbench/run.py selftest

A run prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``).  It checks the program from ``src/`` next to this
directory and exits 2 when that source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def use_source() -> None:
    """Import the checker from this checkout's ``src/`` or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no checker source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (one of {names})",
              file=sys.stderr)
        return 2
    use_source()
    from workloads import WORKLOADS, pin_one_cpu

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cpu = pin_one_cpu()
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), SRC, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # unless another run uses it
        except OSError:
            pass
    metrics = {}
    # A layer a workload never enters reads 0 (no store on decoder-cold).
    missing = 0.0 if args.trace else None
    for metric in wanted:
        value = result.metrics.get(metric["name"], missing)
        if value is None or not math.isfinite(value):
            result.problem("metrics", [f"no value for {metric['name']}"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": dict(machine(), pinned_cpu=cpu),
            "params": result.params,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "problems": result.problems,
            "metrics": metrics,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:], load_spec())
    if argv and argv[0] == "selftest":
        use_source()
        from selftest import main as selftest_main
        from workloads import pin_one_cpu

        pin_one_cpu()

        return selftest_main(ROOT, SRC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append a self-describing JSON record here")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
