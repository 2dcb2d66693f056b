#!/usr/bin/env python3
"""Depth profile of the root's mean symmetrized entropy under broadcasting,
next to the contraction rate d * c(M) predicted by the variational constant.

One CSV row per (beta, depth); the ratio column is the step-to-step decay
mean(N) / mean(N-1), which should approach d * c(M) from below in the
non-reconstruction regime and stall near 1 in the reconstruction regime.
"""

import argparse
import csv
import sys

from treerecon import TreeSpec, compute_c, depth_sweep, potts_channel

FIELDS = ("beta", "depth", "mean_L", "stderr", "ratio", "rate_bound")


def parse_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SystemExit(f"depth range must look like 2..8, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--betas", default="0.5,0.9,1.2", metavar="B1,B2,...")
    ap.add_argument("--degree", type=int, default=2)
    ap.add_argument("--depths", default="2..8", metavar="A..B")
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=0,
                    help="Monte Carlo worker threads, 0 = one per CPU")
    ap.add_argument("--out", default="-", metavar="PATH")
    args = ap.parse_args(argv)

    depths = parse_range(args.depths)
    threads = None if args.threads == 0 else args.threads
    spec = TreeSpec.regular(args.degree, depths[0])

    rows = []
    for text in args.betas.split(","):
        beta = float(text)
        channel = potts_channel(args.q, beta)
        c = compute_c(channel).value
        rate = args.degree * c
        estimates = depth_sweep(spec, channel, depths, args.samples,
                                args.seed, threads=threads)
        prev = None
        for est in estimates:
            ratio = "" if not prev else f"{est.mean / prev:.4f}"
            rows.append({
                "beta": f"{beta:g}",
                "depth": est.depth,
                "mean_L": f"{est.mean:.6g}",
                "stderr": f"{est.stderr:.3g}",
                "ratio": ratio,
                "rate_bound": f"{rate:.4f}",
            })
            prev = est.mean
        print(f"beta={beta:g}: d*c = {rate:.4f}", file=sys.stderr)

    handle = sys.stdout if args.out == "-" else open(args.out, "w",
                                                     encoding="utf-8",
                                                     newline="")
    writer = csv.DictWriter(handle, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
