#!/usr/bin/env python3
"""Gate a bench/throughput measurement against bench/baseline_throughput.json.

Usage: check_bench.py [MEASURED.json] [--tolerance 0.25]

MEASURED defaults to the committed BENCH_throughput.json. Records are
matched by (group, name); a measured record without a baseline entry
fails, so no record runs ungated. Each baseline record names the gates
that apply to it through the fields it carries:

  cycles, runs        exact pins. Simulated cycle counts are workload
                      invariants (independent of host speed, jobs,
                      tiers and --no-fast-forward), so a mismatch
                      is a modelling or mix change: if intentional,
                      regenerate the pins in the same commit.
  mcps, mcps_interpreted, speedup
                      host-timing floors: measured >= (1 - tolerance) x
                      baseline. `speedup` on a cc record is the
                      compiled/interpreted MCPS ratio, measured in one
                      process, so it holds on faster and slower hosts.
  t2s_speedup         simulated time-to-solution speedup; a fixed 10%
                      bound that --tolerance does not scale.
  outputs_identical   the sweep engine's results must match the serial,
                      uncached sweep byte for byte.

--tolerance 1 switches every host-timing gate off and keeps the rest.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baseline_throughput.json")
SCHEMA = "issr-throughput-v1"
PINS = ("cycles", "runs")
HOST_FLOORS = ("mcps", "mcps_interpreted", "speedup")
T2S_TOLERANCE = 0.10


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {(r["group"], r["name"]): r for r in doc["records"]}


def check(measured, baseline, tolerance):
    failures = []
    for key, base in baseline.items():
        tag = "/".join(key)
        got = measured.get(key)
        if got is None:
            failures.append(f"{tag}: missing from measurement")
            continue
        for field in PINS:
            if field in base and got.get(field) != base[field]:
                failures.append(
                    f"{tag}: {field} changed ({got.get(field)} vs baseline "
                    f"{base[field]}) - modelling change; regenerate the "
                    "baseline if intentional")
        floors = [(f, tolerance) for f in HOST_FLOORS if f in base]
        if "t2s_speedup" in base:
            floors.append(("t2s_speedup", T2S_TOLERANCE))
        for field, tol in floors:
            floor = base[field] * (1.0 - tol)
            value = got.get(field, 0.0)
            ok = value >= floor
            print(f"{tag:28s} {field:16s} {value:9.4f} "
                  f"floor {floor:9.4f} {'OK' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{tag}: {field} {value:.4f} is more than {tol:.0%} "
                    f"below the baseline {base[field]:.4f}")
        if base.get("outputs_identical") and not got.get("outputs_identical"):
            failures.append(f"{tag}: sweep results differ from the serial, "
                            "uncached sweep")

    for key in sorted(measured.keys() - baseline.keys()):
        failures.append(f"{'/'.join(key)}: no baseline entry - add one to "
                        "bench/baseline_throughput.json")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("measured", nargs="?",
                    default=os.path.join(ROOT, "BENCH_throughput.json"))
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression of the host-timing "
                         "gates (default 0.25; 1 disables them)")
    args = ap.parse_args()

    failures = check(load(args.measured), load(BASELINE), args.tolerance)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nthroughput within tolerance of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
