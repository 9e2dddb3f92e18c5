"""The occupancy scan of bool flags, for tests that build their own flags."""

import numpy as np

from aoa_lab.engine import _scan_events


def scan_flags(flags: np.ndarray, state: int):
    """`_scan_events` of a (k, 2) bool flag array, packed as `_drawn` packs a chunk."""
    return _scan_events(np.packbits(flags.ravel(), bitorder="little"), len(flags), state)
