"""Test helper: the IDX writer of scripts/synthetic_idx.py, the fixture for the MNIST parser."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_idx.py"
_spec = importlib.util.spec_from_file_location("synthetic_idx", _SCRIPT)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

write_idx_pair = _module.write_idx_pair
