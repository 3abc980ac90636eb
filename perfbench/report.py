"""Run every workload untraced and traced; print every metric and check.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Prints one line per metric and workload: value, unit and the number of
samples its median is taken over, with ``fail_share`` as failed/attempted
checks and the tracing overhead as traced vs untraced round time. Exits
1 when any output check failed, 2 when a workload could not run.
"""

from __future__ import annotations

import argparse
import sys

import jobs
import run as R


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    failed = 0
    print(f"{'workload':<9} {'metric':<34} {'value':>16} {'unit':<10} samples")
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            ns = argparse.Namespace(workload=workload, seed=args.seed,
                                    seconds=args.seconds, trace=trace)
            try:
                result, prov = R.run(ns)
            except (RuntimeError, OSError, ValueError) as e:
                print(f"{workload}: benchmark failed: {e}", file=sys.stderr)
                return 2
            traced = sum(prov["rounds_traced"])
            plain = len(prov["rounds_traced"]) - traced
            samples = {"run_s": plain, "setup_s": len(prov["setup_samples"]),
                       "peak_rss_mb": 1, "trace.untraced_run_s": plain}
            for name, m in result["metrics"].items():
                value = m["value"]
                shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"{workload:<9} {name:<34} {shown} {m['unit']:<10} "
                      f"{samples.get(name, traced)}")
            if not trace:
                print(f"{workload:<9} {'fail_share':<34} "
                      f"{result['failed'] / result['attempted']:>16.6g} {'share':<10} "
                      f"{result['failed']}/{result['attempted']} checks")
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
