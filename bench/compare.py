"""Compare two benchmark results files, one row per workload and metric.

    python3 bench/compare.py BASE.json NEW.json

For every workload and end-to-end metric in ``BENCHMARK.json`` it
prints ``better``, ``same``, ``worse`` or ``unresolved``:

* ``unresolved`` — either run's spread (IQR of its samples over its
  value; 0 for a metric computed once per run) is wider than the
  metric's bound, so the run cannot tell a change of that size from
  noise;
* ``same`` — the reported values differ by no more than the bound;
* ``better`` / ``worse`` — they differ by more, in the metric's
  direction.

Files are flattened with ``repro.telemetry.load_metrics`` and the bound
test is ``repro.telemetry.diff_metrics``. Exits 1 if any row is
``worse`` or missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def verdict(base: dict, new: dict, key: str, bound: float, better: str) -> str:
    """Classify ``key`` (a flattened ``workload.e2e.metric`` prefix)."""
    from repro.telemetry import diff_metrics

    value = f"{key}.value"
    if value not in base or value not in new:
        return "missing"
    spread = max(side.get(f"{key}.iqr", 0.0) / abs(side[value])
                 for side in (base, new))
    if spread > bound:
        return "unresolved"
    gate = diff_metrics({key: base[value]}, {key: new[value]},
                        tolerances={key: bound})
    if gate.passed:
        return "same"
    lower = new[value] < base[value]
    return "better" if lower == (better == "lower") else "worse"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.errors import ConfigurationError
    from repro.telemetry import load_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        base, new = (load_metrics(path) for path in argv)
    except ConfigurationError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':<22} {'metric':<18} {'base':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.e2e.{metric['name']}"
            if f"{key}.value" not in base and f"{key}.value" not in new:
                continue  # the workload ran in neither file
            result = verdict(base, new, key, metric["bound"], metric["better"])
            bad += result in ("worse", "missing")
            a = base.get(f"{key}.value", float("nan"))
            b = new.get(f"{key}.value", float("nan"))
            change = (b - a) / abs(a) if a else float("nan")
            print(f"{workload:<22} {metric['name']:<18} {a:>12.6g} {b:>12.6g} "
                  f"{change:>+8.2%}  {result} (bound {metric['bound']:.1%})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
