"""Store output digests from benchmark results as references.

    python3 perfbench/update_reference.py

Reads the records run.py wrote to perfbench/_out/results/ and adds the
output digests of every full-scale run whose checks passed to
perfbench/reference.json, keyed by platform fingerprint, workload and
seed. Existing entries are never replaced: a record that disagrees with a
stored digest is reported and the script exits 1 without writing.
"""

import glob
import json
import os
import sys

from run import REFERENCE, RESULTS_DIR


def main() -> int:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    added = conflicts = 0
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        env = record["env"]
        if env["scale"] != "full" or record["problems"] \
                or not record["digests"]:
            continue
        stored = reference["platforms"].setdefault(env["fingerprint"], {}) \
            .setdefault(env["workload"], {})
        seed = str(env["seed"])
        if seed not in stored:
            stored[seed] = record["digests"]
            added += 1
        elif stored[seed] != record["digests"]:
            print(f"{os.path.basename(path)}: digests differ from the stored "
                  f"{env['workload']} seed {seed}", file=sys.stderr)
            conflicts += 1
    if conflicts:
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"added {added} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
