#!/usr/bin/env python3
"""Write a synthetic MNIST-format IDX pair of random 28x28 images.

    python scripts/synthetic_idx.py OUT_DIR

writes OUT_DIR/train-images-idx3-ubyte and OUT_DIR/train-labels-idx1-ubyte:
COUNT images of uniform random pixels (seed 0), labeled 0 or 1 by a planted
separator with FLIP_FRACTION of the labels flipped, in the big-endian layout
that `decopt.objectives.load_mnist_partition` reads. It stands in for the
real MNIST files, which this repository never downloads, to run the `mnist`
problem kind end to end. The tests write their small IDX fixtures with
`write_idx_pair`.

The flips make the data non-separable, so the logistic minimizer is finite
and the reference solve behind the saddle metrics finds it in about 3 s at
m = 20. With labels drawn at random, COUNT samples in 784 dimensions lie
near the separability threshold, and that solve took about 55 s.
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

from decopt.objectives import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, LANE_MIN_BYTES

SIDE = 28
# At m = 20 agents: n = 80 samples each, 13 dropped, and a 10 MB feature slab,
# above the evaluators' lane cutoff
COUNT = 1613
assert 8 * SIDE * SIDE * 20 * (COUNT // 20) >= LANE_MIN_BYTES
FLIP_FRACTION = 0.1


def write_idx_pair(out_dir, images, labels) -> tuple[Path, Path]:
    """Write (count, rows, cols) images and (count,) labels as a big-endian IDX pair.

    Returns the paths of the images and labels files in out_dir.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    img_path = out_dir / "train-images-idx3-ubyte"
    lbl_path = out_dir / "train-labels-idx1-ubyte"
    count, rows, cols = images.shape
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(COUNT, SIDE, SIDE), dtype=np.uint8)
    # label 1 where <w, pixels / 255> is above its median, w ~ N(0, I)
    scores = (pixels.reshape(COUNT, -1) / 255.0) @ rng.standard_normal(SIDE * SIDE)
    labels = (scores > np.median(scores)).astype(np.uint8)
    labels[rng.random(COUNT) < FLIP_FRACTION] ^= 1
    write_idx_pair(args.out_dir, pixels, labels)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
