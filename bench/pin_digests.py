"""Recompute the pinned output digests in bench/digests.json.

    python3 bench/pin_digests.py

It pins seeds 0 .. run.PINNED_SEEDS-1 of every workload.  Run it only when a
change to the workloads alters their inputs on purpose; a change to the
package must leave every pinned digest as it is.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    tally = run.Tally()
    pins = {
        name: {str(seed): run.outputs_digest(name, seed, tally)
               for seed in range(run.PINNED_SEEDS)}
        for name in run.WORKLOAD_NAMES
    }
    if tally.failed:
        run.fail("refusing to pin outputs that fail their checks:\n" + "\n".join(tally.problems))
    with open(run.BENCH / "digests.json", "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
