"""Informational sweep, recorded in bench/out/sweep.json and never gated.

    python3 bench/sweep.py

It times the scaling curves behind the baseline tables: `charclass verify`
for theorem1 against --degree and for relations against --rank (in-process
through cli.main), and one product per kernel regime with and without a
degree cap.  The repeated benchmark runs never include it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import random
import time

import run

THEOREM1_DEGREES = (24, 32, 40, 48, 64)
RELATIONS_RANKS = (8, 16, 24, 32, 40)
PRODUCT_SIZES = (("dense", 1200, 1200), ("wide", 300, 300), ("mid", 64, 72), ("mid", 60, 60))


def timed_cli(argv: list) -> dict:
    from charclass import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "seconds": time.perf_counter() - t0}


def main() -> None:
    run.use_source()
    import numpy

    import workloads
    from charclass import wring

    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": os.cpu_count(), "theorem1": [], "relations": [], "products": []}
    for degree in THEOREM1_DEGREES:
        row = timed_cli(["verify", "--suite", "theorem1", "--degree", str(degree)])
        record["theorem1"].append(row)
        print(f"theorem1 --degree {degree}: {row['seconds']:.3f} s (exit {row['exit']})", flush=True)
    for rank in RELATIONS_RANKS:
        row = timed_cli(["verify", "--suite", "relations", "--degree", "24", "--rank", str(rank)])
        record["relations"].append(row)
        print(f"relations --rank {rank}: {row['seconds']:.3f} s (exit {row['exit']})", flush=True)
    rng = random.Random("sweep")
    for regime, na, nb in PRODUCT_SIZES:
        top = workloads.PRODUCT_REGIMES[regime]["cap"]  # the cap keeps the factors whole
        a = wring.MPoly2(frozenset(workloads._regime_poly(rng, regime, na, top)))
        b = wring.MPoly2(frozenset(workloads._regime_poly(rng, regime, nb, top)))
        for cap in (None, top):
            t0 = time.perf_counter()
            out = wring.mul(a, b, wring.RingContext(cap))
            row = {"regime": regime, "cap": cap, "pairs": na * nb,
                   "terms_out": len(out.monomials), "seconds": time.perf_counter() - t0}
            record["products"].append(row)
            print(f"mul {regime} {na}x{nb} cap={cap}: {row['seconds']:.3f} s, "
                  f"{row['terms_out']} terms", flush=True)
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "sweep.json", "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
