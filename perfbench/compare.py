#!/usr/bin/env python3
"""Compares two benchmark reports saved with `run.py --report_out`.

    python3 perfbench/compare.py BASE.json NEW.json

Exact work counters (traced runs of one workload and seed) are compared
whatever the host: they do not depend on the hardware. Wall-time and
other end-to-end figures are compared only when both reports carry the
same host fingerprint (CPU model, nproc, build type, telemetry and SIMD
gates, dispatched intersection kernel); otherwise the comparison is
refused with exit code 2.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])["report"]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if base["workload"] != new["workload"]:
        print("refused: workloads differ (%s vs %s)"
              % (base["workload"], new["workload"]), file=sys.stderr)
        return 2
    same_seed = base["fingerprint"]["seed"] == new["fingerprint"]["seed"]
    if same_seed and "counters" in base and "counters" in new:
        for name in sorted(set(base["counters"]) | set(new["counters"])):
            a, b = base["counters"].get(name), new["counters"].get(name)
            print("%-34s %16s %16s %s" % (name, a, b,
                                          "same" if a == b else "CHANGED"))
    if base["fingerprint"]["host"] != new["fingerprint"]["host"]:
        print("refused: wall-time results from different hosts:\n  %s\n  %s"
              % (base["fingerprint"]["host"], new["fingerprint"]["host"]),
              file=sys.stderr)
        return 2
    for section in ("end_to_end", "per_layer"):
        if section not in base or section not in new:
            continue
        for name, a in base[section].items():
            b = new[section].get(name)
            change = (b - a) / a if a and b is not None else float("nan")
            print("%-36s %14.6g %14.6g %+8.1f%%" % (name, a, b, 100 * change))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        sys.exit(0)
