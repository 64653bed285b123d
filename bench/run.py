"""Run the benchmark and print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed S] [--seconds T]
                         [--trace 0|1] [--out PATH]

Each workload builds its inputs from ``--seed`` and measures for about
``--seconds`` of host time. ``--trace 0`` runs the end-to-end phase,
``--trace 1`` the traced phase; without ``--trace`` both run. Metrics
print by name and unit, then the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full results (medians, quartiles, sample counts, check outcomes and
provenance) are merged into ``bench/results/<commit>-s<seed>.json`` (or
``--out``), and a traced phase writes its spans beside that file.

Exits 0 when every correctness check passed, 1 when one failed, and 2
without printing a result when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS on one thread, whatever the environment asks for.

    With two threads on a two-core host, one busy neighbouring process
    doubled the host epoch time of train-arxiv-p1 and made it vary run to
    run; one thread kept it steady (see README). Must run before numpy is
    imported, which reads the variables once.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit() -> str:
    """Short commit id of the checkout, or ``nogit`` outside a repository."""
    if not (ROOT / ".git").exists():
        return "nogit"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "nogit"
    return done.stdout.strip() or "nogit"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds each phase measures (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end phase only, 1: traced phase only")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default bench/results/"
                             "<commit>-s<seed>.json)")
    return parser.parse_args(argv)


def _describe(metric: str, m: dict) -> str:
    line = f"    {metric:<34} {m['value']:.6g} {m['unit']}"
    if "iqr" in m:
        line += f"  (median of {m['n']}, IQR {m['iqr']:.3g})"
    elif "n" in m:
        line += f"  (over {m['n']})"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: program source not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import scipy
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"bench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    phases = ("e2e", "traced") if args.trace is None else (
        ("traced",) if args.trace else ("e2e",))
    single = len(names) == 1 and len(phases) == 1

    commit = git_commit()
    out_path = args.out or BENCH / "results" / f"{commit}-s{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    results = json.loads(out_path.read_text()) if out_path.exists() else {}
    results["provenance"] = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": args.seed,
        "seconds": args.seconds,
    }

    printed, attempted, failed = {}, 0, 0
    for name in names:
        for phase in phases:
            run = getattr(WORKLOADS[name], phase)(args.seed, args.seconds)
            attempted += run.attempted
            failed += run.failed
            entry = results.setdefault(name, {})
            entry["e2e" if phase == "e2e" else "layers"] = run.metrics
            entry.setdefault("checks", {})[phase] = {
                "attempted": run.attempted,
                "failed": run.failed,
                "steps": run.steps,
                "step_failures": run.step_failures[:10],
                "checks": run.checks,
            }
            print(f"{name} [{phase}] steps={run.steps} "
                  f"failed={run.failed}/{run.attempted}")
            for check, failures in run.checks.items():
                outcome = "FAIL " + "; ".join(failures) if failures else "ok"
                print(f"    check {check}: {outcome}")
            for failure in run.step_failures[:5]:
                print(f"    step FAIL {failure}")
            for metric, m in run.metrics.items():
                if phase == "e2e" or m["value"]:
                    print(_describe(metric, m))
                key = metric if single else f"{name}.{metric}"
                printed[key] = {"value": m["value"], "unit": m["unit"]}
            if run.tracer is not None:
                spans = out_path.parent / f"{out_path.stem}-{name}.spans.jsonl"
                run.tracer.write_spans(spans)
                print(f"    spans: {len(run.tracer.spans)} -> {spans}")

    out_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"results: {out_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
