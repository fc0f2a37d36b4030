"""Regenerate perfbench/reference.json, the outputs each variant's pass must
reproduce, and show on the way that no check fails on any variant.

    python3 perfbench/make_reference.py --workload train-default --size full

Sections not named on the command line are kept as they are. A full-size
section takes one pass per variant: about 6 minutes for train-default and
3 to 4 minutes for ablation-small on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--size", action="append", choices=("full", "tiny"), help="default: both")
    args = ap.parse_args(argv)
    run.bootstrap()
    import workloads

    path = run.HERE / "reference.json"
    refs = json.loads(path.read_text(encoding="utf-8"))
    out_dir = run.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        for size in args.size or ["full", "tiny"]:
            section = {}
            for variant in range(workloads.VARIANTS):
                wl = workloads.WORKLOADS[name](size, variant, out_dir)
                wl.setup()
                tally = workloads.Tally()
                section[str(variant)] = wl.run_pass(tally)
                print(name, size, variant, tally.attempted, tally.failed, section[str(variant)], flush=True)
                if tally.failed:
                    print(f"{name}/{size} variant {variant} fails: {tally.failures}", file=sys.stderr)
                    return 1
            refs.setdefault(name, {})[size] = section
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
