"""Python code run in a fresh interpreter on this checkout's decopt."""

import os
import subprocess
import sys
from pathlib import Path

import decopt

SRC = str(Path(decopt.__file__).resolve().parents[1])


def run_probe(code: str, *args: str, timeout: float) -> str:
    """The stdout of ``python -c code *args``, with SRC first on PYTHONPATH; the
    probe must exit 0 within timeout seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
