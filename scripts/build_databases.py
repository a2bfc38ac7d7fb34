#!/usr/bin/env python3
"""Regenerate the shipped critical-graph databases from fresh censuses.

Writes data/critical{4,5,6}.g6 inside the installed package source tree.
The k=6 run enumerates triangle-free graphs through order 11 and takes
about 20 s single-threaded (2-vCPU Xeon VM, Python 3.11); pass --workers
to spread the augmentation steps over one process pool.
"""

import argparse
import pathlib
import time

import kcrit
from kcrit.census import census_copaw_critical
from kcrit.certify import CriticalDatabase, save_database


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--out-dir", type=pathlib.Path,
                    default=pathlib.Path(kcrit.__file__).parent / "data")
    args = ap.parse_args()

    for k in args.levels:
        t = time.perf_counter()
        rows = census_copaw_critical(k, workers=args.workers)
        db = CriticalDatabase(k, frozenset(c for r in rows for c in r.codes))
        path = args.out_dir / f"critical{k}.g6"
        save_database(db, path)
        print(f"k={k}: {len(db.graphs)} graphs -> {path} "
              f"({time.perf_counter() - t:.1f}s)")


if __name__ == "__main__":
    main()
