#!/usr/bin/env python3
"""Saliency-mask demo on a synthetic image with planted salient patches.

Writes the input image and one mask per (mode, rows) setting, then prints
which patches each run declared.  The background is constant, so every
patch except the planted noisy ones lies in a one-dimensional patch
subspace.
"""

import argparse
import pathlib

import numpy as np

from sketchout import AcosConfig, saliency_map
from sketchout.imaging import write_pgm

HOT = (3, 11, 22, 33, 44)


def planted_image(height=50, width=100, patch=10, seed=5):
    img = np.full((height, width), 128, dtype=np.uint8)
    rng = np.random.Generator(np.random.Philox(key=seed))
    gc = width // patch
    for idx in HOT:
        i, j = divmod(idx, gc)
        img[i * patch : (i + 1) * patch, j * patch : (j + 1) * patch] = rng.integers(
            0, 256, size=(patch, patch)
        )
    return img


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    img = planted_image()
    write_pgm(args.out / "saliency_input.pgm", img)
    print("planted patches:", list(HOT))
    # acos scores come from a single random probe, so they spread more than
    # sacos residual norms and a planted patch can fall below the largest
    # gap; acos measures fewer entries in exchange
    runs = [("sacos", 20, 0), ("sacos", 10, 0), ("acos", 10, 50)]
    for mode, m, p in runs:
        cfg = AcosConfig(gamma=0.6, m=m, p=p, seed=3)
        mask, declared = saliency_map(img, mode, cfg)
        name = "saliency_%s_m%d.pgm" % (mode, m)
        write_pgm(args.out / name, mask)
        print("%-5s m=%2d: declared %s -> %s" % (mode, m, declared.tolist(), args.out / name))


if __name__ == "__main__":
    main()
