"""Command line of the harness.

``python -m benchmarks.harness``                    every workload, each in a
                                                    fresh subprocess
``python -m benchmarks.harness --trace``            plus the traced pass
``python -m benchmarks.harness --aa N``             N sets, spread per metric
``python -m benchmarks.harness prepare``            fill the dataset cache
``python -m benchmarks.harness --workload W --seed N --seconds S --trace 0|1``
                                                    one workload in this
                                                    process (the driver's
                                                    call); last stdout line
                                                    is the result object
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import REPO_ROOT, SRC_DIR


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", choices=["prepare"])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process, and end with the result line")
    parser.add_argument("--seed", type=lambda text: abs(int(text)), default=0,
                        help="feeds the LUBM generator and every operation "
                        "schedule (the sign is ignored)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: the scale's)")
    parser.add_argument("--scale", default="small",
                        choices=["smoke", "small", "paper"])
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1], help="run the traced pass")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="run N untraced sets and print each metric's "
                        "median, quartiles and spread against its bound")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --aa: reuse one seed for every set and "
                        "require exact counters to repeat (default: seeds "
                        "seed..seed+N-1, the driver's procedure)")
    parser.add_argument("--result", type=Path, help="also write the full "
                        "result (every metric, checks, breakdown) as JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        print(f"benchmarks.harness: no program to measure: {SRC_DIR}/repro "
              "is missing", file=sys.stderr)
        return 2
    # Imported late: everything below imports the program under test.
    from . import report
    from .runner import WORKLOADS
    from .workloads import SCALES

    if args.command == "prepare":
        from .datasets import prepare

        scale = SCALES[args.scale]
        for n in sorted({cls.dataset_n(scale) for cls in WORKLOADS.values()}):
            path, cold_s = prepare(n, args.seed)
            state = "cached" if cold_s is None else f"generated in {cold_s:.2f} s"
            print(f"LUBM({n}, seed={args.seed}): {path.name} ({state})")
        return 0

    if args.workload:
        from .runner import contract_line, run_workload

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; one of "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.scale, bool(args.trace))
        if args.result:
            args.result.write_text(json.dumps(result.to_json(), indent=1))
        report.print_result(result.to_json())
        print(contract_line(result))
        return 0

    if args.aa:
        sets = [
            run_set(args, args.seed if args.same_seed else args.seed + i, 0)
            for i in range(args.aa)
        ]
        report.print_aa(sets, same_seed=args.same_seed)
        ok = all(r["correct"] for results in sets for r in results)
        return 0 if ok else 1

    results = run_set(args, args.seed, 0)
    if args.trace:
        results += run_set(args, args.seed, 1)
    for check in report.cross_checks(results):
        print(check)
    if args.result:
        args.result.write_text(json.dumps(results, indent=1))
    return 0 if all(r["correct"] for r in results) else 1


def run_set(args: argparse.Namespace, seed: int, trace: int) -> list[dict]:
    """Every workload once, each in a fresh subprocess (so peak RSS and GC
    state are per workload), one after the other."""
    from . import report
    from .runner import OUT_DIR, WORKLOADS

    results = []
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        out = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "benchmarks.harness",
            "--workload", name, "--seed", str(seed),
            "--scale", args.scale, "--trace", str(trace),
            "--result", str(out)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, cwd=REPO_ROOT, text=True,
                              capture_output=True, timeout=900)
        if done.returncode != 0 or not out.exists():
            sys.stderr.write(done.stderr)
            raise SystemExit(
                f"workload {name} failed (exit {done.returncode})")
        result = json.loads(out.read_text())
        report.print_result(result)
        results.append(result)
    return results
