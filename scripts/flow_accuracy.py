#!/usr/bin/env python3
"""Endpoint-error sweep for the pyramidal Horn-Schunck estimator.

Measures mean EPE on band-limited periodic textures under exact Fourier
translations, across displacement magnitudes and iteration counts, to
show where the default operating point (4 levels, alpha 15, 25
iterations) sits. The sweep is paired: each (magnitude, case) draws one
texture and one displacement, and every iteration count scores that same
pair, so the columns differ by the iteration count alone.

Example:
    python scripts/flow_accuracy.py --size 112 --cases 20 --iterations 20,25,50
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rtar.preprocess import FlowParams, compute_flow


def texture(size, seed, cutoff=8):
    rng = np.random.default_rng(seed)
    spectrum = np.zeros((size, size), dtype=complex)
    for ky in range(-cutoff, cutoff + 1):
        for kx in range(-cutoff, cutoff + 1):
            if ky or kx:
                spectrum[ky % size, kx % size] = rng.normal() + 1j * rng.normal()
    img = np.fft.ifft2(spectrum).real
    img -= img.min()
    img /= img.max()
    return img


def fourier_shift(img, dx, dy):
    n = img.shape[0]
    ky = np.fft.fftfreq(n)[:, None]
    kx = np.fft.fftfreq(n)[None, :]
    return np.fft.ifft2(np.fft.fft2(img) * np.exp(-2j * np.pi * (kx * dx + ky * dy))).real


MAGNITUDES = (0.5, 1.0, 1.5, 2.0, 3.0)


def sweep(size, cases, seed, iteration_grid):
    """Mean EPE, one row per magnitude and one column per iteration count.

    Each (magnitude, case) draws its texture and displacement angle once;
    every column scores that same pair.
    """
    rng = np.random.default_rng(seed)
    params = [FlowParams(iterations=iters) for iters in iteration_grid]
    epes = np.zeros((len(MAGNITUDES), len(params)))
    for i, magnitude in enumerate(MAGNITUDES):
        for case in range(cases):
            img = texture(size, seed=1000 * case + int(10 * magnitude))
            angle = rng.uniform(0, 2 * np.pi)
            dx, dy = magnitude * np.cos(angle), magnitude * np.sin(angle)
            moved = np.clip(fourier_shift(img, dx, dy), 0, 1)
            for j, p in enumerate(params):
                flow = compute_flow(img, moved, p)
                epes[i, j] += np.hypot(flow[..., 0] - dx, flow[..., 1] - dy).mean()
    return epes / cases


def iteration_list(text):
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"iteration counts must be >= 1, got {text!r}")
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=112)
    ap.add_argument("--cases", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=iteration_list, default=[10, 25, 50, 100],
                    help="comma list of Jacobi step counts, one column each (default 10,25,50,100)")
    args = ap.parse_args()

    epes = sweep(args.size, args.cases, args.seed, args.iterations)
    print(f"{'|d| px':>7} " + "".join(f"{f'iters={it}':>12}" for it in args.iterations))
    for magnitude, row in zip(MAGNITUDES, epes):
        print(f"{magnitude:>7.1f} " + "".join(f"{e:>12.3f}" for e in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
