"""Models of the accelerator's data-movement hardware that no package code
reads: the automorphism unit's row map and the lane-matrix transpose
network.  The tests check them against direct permutations.
"""

import numpy as np

from effact.poly import automorphism_ntt_perm, bit_rev


def automorphism_row_map(n: int, s: int, lanes: int) -> list[int]:
    """Per-row source row of the NTT-domain automorphism.

    Viewing the bit-reversed vector as (n/lanes) rows of `lanes` consecutive
    positions, the permutation moves whole rows: every element of output row
    r comes from a single input row.  Returns that source row per output
    row; raises if the property ever failed.
    """
    perm = automorphism_ntt_perm(n, s)
    rows = []
    for r in range(n // lanes):
        src = {int(perm[p]) // lanes for p in range(r * lanes, (r + 1) * lanes)}
        if len(src) != 1:
            raise AssertionError("automorphism crossed row boundaries")
        rows.append(src.pop())
    return rows


# ---------------------------------------------------------------------------
# lane-matrix transpose

def transpose_fixed_network(mat, lanes: int):
    """Transpose a coefficient matrix held in bit-reversed element order.

    Input: (n/lanes) x lanes matrix whose row-major flattening is a vector
    in bit-reversed order.  Output: the lanes x (n/lanes) transpose of the
    equivalent natural-order matrix, in natural order.

    With this orientation the data movement is separable: output row c is
    read entirely from one contiguous block of the input (block index =
    bit-reverse of c) and every row applies the same within-block index
    pattern (bit-reversal over n/lanes).  That shared pattern is what a
    fixed wiring network implements; only the block fetch order changes.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = arr.shape
    n = rows * cols
    if cols != lanes:
        raise ValueError(f"matrix has {cols} columns, expected lanes={lanes}")
    if n & (n - 1) or lanes & (lanes - 1) or rows & (rows - 1):
        raise ValueError("matrix dimensions must be powers of two")
    flat = arr.reshape(n)
    lbits = lanes.bit_length() - 1
    rbits = rows.bit_length() - 1
    pattern = np.array([bit_rev(r, rbits) for r in range(rows)], dtype=np.int64)
    out = np.empty((lanes, rows), dtype=arr.dtype)
    for c in range(lanes):
        base = bit_rev(c, lbits) * rows
        out[c] = flat[base + pattern]
    return out
