#!/usr/bin/env python3
"""Scan the squeezing parameter and compare two separability thresholds for
the 14-23 grouping of the four-mode state: the measured noise strength at
which the partial transpose turns positive, and the analytic noise floor from
the two-mode sum/difference witness.  The two do not coincide; the witness
floor is the weaker bound.
"""

import argparse
import csv
import sys

import numpy as np

from cvbound.separability import duan_threshold_sigma_sq, named_bipartition, ppt_threshold_search


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r-min", type=float, default=0.25)
    parser.add_argument("--r-max", type=float, default=2.0)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    bp = named_bipartition("14-23")
    rows = []
    for r in np.linspace(args.r_min, args.r_max, args.steps):
        sigma_star = ppt_threshold_search(r, bp)
        witness_floor = np.sqrt(duan_threshold_sigma_sq(r))
        analytic = np.sqrt(np.sinh(2 * r) / 4)  # PPT transition in closed form
        rows.append((r, sigma_star, analytic, witness_floor))

    print(f"{'r':>6}  {'sigma* (search)':>16}  {'sqrt(sinh2r/4)':>15}  {'witness floor':>14}")
    for r, sigma_star, analytic, floor in rows:
        star = f"{sigma_star:.6f}" if sigma_star is not None else "none"
        print(f"{r:6.3f}  {star:>16}  {analytic:15.6f}  {floor:14.6f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "ppt_sigma_star", "ppt_sigma_closed_form", "duan_floor_sigma"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
