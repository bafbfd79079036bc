"""Test helper: the IDX writer of scripts/synthetic_idx.py, the fixture for the MNIST
parser, and the parser's pixels as floats."""

import importlib.util
from pathlib import Path

import numpy as np

from decopt.objectives import _read_idx_pixels

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_idx.py"
_spec = importlib.util.spec_from_file_location("synthetic_idx", _SCRIPT)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

write_idx_pair = _module.write_idx_pair


def read_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into a (count, rows*cols) float array."""
    return _read_idx_pixels(path).astype(float)
