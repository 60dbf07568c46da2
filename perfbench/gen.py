"""Seeded synthetic tables made by jittered resampling of data/pima.csv.

Each generated row copies a randomly drawn source row, adds gaussian noise of
5 % of the column's standard deviation to every attribute, clips it to the
column's observed range and rounds it to the column's printed precision. The
class label is copied unchanged, so the class balance and the attribute
ranges of the source table carry over. The same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

JITTER = 0.05


def _decimals(cells: list[str]) -> int:
    return max(len(c) - c.index(".") - 1 if "." in c else 0 for c in cells)


def jittered_table(source: Path, rows: int, seed: int) -> tuple[list[str], np.ndarray, list[int]]:
    """(header, values, decimals per column) for `rows` resampled rows."""
    with open(source, newline="") as fh:
        table = list(csv.reader(fh))
    header, body = table[0], table[1:]
    decimals = [_decimals([row[j] for row in body]) for j in range(len(header))]
    src = np.array(body, dtype=float)
    rng = np.random.default_rng(seed)
    out = src[rng.integers(len(src), size=rows)]
    attrs = out[:, :-1]
    noise = rng.standard_normal(attrs.shape) * (JITTER * src[:, :-1].std(axis=0))
    attrs = np.clip(attrs + noise, src[:, :-1].min(axis=0), src[:, :-1].max(axis=0))
    for j, d in enumerate(decimals[:-1]):
        attrs[:, j] = np.round(attrs[:, j], d)
    out[:, :-1] = attrs
    return header, out, decimals


def write_table(source: Path, dest: Path, rows: int, seed: int) -> None:
    """Write the seeded table to `dest`, unless an earlier run already did."""
    if dest.is_file():
        return
    header, values, decimals = jittered_table(source, rows, seed)
    formats = [f"%.{d}f" for d in decimals]
    tmp = dest.with_name(dest.name + f".{os.getpid()}.tmp")
    np.savetxt(tmp, values, fmt=formats, delimiter=",", header=",".join(header), comments="")
    os.replace(tmp, dest)
