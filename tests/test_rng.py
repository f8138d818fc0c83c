"""Seeded streams: pinned draws, and an import that leaves hashlib (and OpenSSL) unloaded."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvowf.rng import make_rng, spawn_rng

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "seed, path, draw",
    [
        (0, (), 11564597144276821748),
        (1, ("trial", 3), 6088894256631241091),
        (7, ("keygen",), 4998989340076059435),
        (-2, ("a", "b", 0), 14268218425049279892),
    ],
)
def test_spawn_rng_draws_are_pinned(seed, path, draw):
    assert spawn_rng(seed, *path).getrandbits(64) == draw


@pytest.mark.parametrize(
    "seed, draw",
    [(0, 7106521602475165645), (2**64 + 5, 4712128852136459333), (-1, 4589153898531806846)],
)
def test_make_rng_draws_are_pinned(seed, draw):
    assert make_rng(seed).getrandbits(64) == draw


@pytest.mark.skipif(importlib.util.find_spec("_blake2") is None, reason="no builtin _blake2 module")
def test_import_leaves_hashlib_unloaded():
    code = "import sys, mvowf, mvowf.rng; print('hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout == "False\n"
