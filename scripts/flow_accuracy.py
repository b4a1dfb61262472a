#!/usr/bin/env python3
"""Endpoint-error sweep for the pyramidal Horn-Schunck estimator.

Measures mean EPE on band-limited periodic textures under exact Fourier
translations, across displacement magnitudes and iteration counts, to
show where the default operating point (4 levels, alpha 15, 50
iterations) sits.

Example:
    python scripts/flow_accuracy.py --size 112 --cases 20
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=112)
    ap.add_argument("--cases", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    magnitudes = (0.5, 1.0, 1.5, 2.0, 3.0)
    iteration_grid = (10, 25, 50, 100)
    print(f"{'|d| px':>7} " + "".join(f"{f'iters={it}':>12}" for it in iteration_grid))
    for magnitude in magnitudes:
        row = [f"{magnitude:>7.1f} "]
        for iters in iteration_grid:
            params = FlowParams(iterations=iters)
            epes = []
            for case in range(args.cases):
                img = texture(args.size, seed=1000 * case + int(10 * magnitude))
                angle = rng.uniform(0, 2 * np.pi)
                dx, dy = magnitude * np.cos(angle), magnitude * np.sin(angle)
                moved = np.clip(fourier_shift(img, dx, dy), 0, 1)
                flow = compute_flow(img, moved, params)
                epes.append(float(np.hypot(flow[..., 0] - dx, flow[..., 1] - dy).mean()))
            row.append(f"{np.mean(epes):>12.3f}")
        print("".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
