"""Speed scaling for a shared container.

The speed of the container this benchmark was built on (2 shared vCPUs of
an Intel Xeon at 2.0 GHz) drifts by up to 40 % over a few seconds, with the
neighbours' load.  A fixed reference
kernel is timed between jobs, and each job's wall time is scaled by
REF_NOMINAL_S over the mean of the kernel's times just before and just after
it.  In a four-minute recording there, the total job time of 6 s windows
varied by 16 % (coefficient of variation) and its ratio to the kernel's
time by 3 %: the program and the kernel slow down together.

The kernel does the two kinds of work the program's hot path does, in the
interpreter and independent of it: Kronecker-style packing of many small
integers into bytes, one large multiplication and the unpacking (as in
`_conv2_raw`), and a loop of big- and small-integer arithmetic.
"""

from __future__ import annotations

import random
import time

# Median time of `reference_work` on the container above when undisturbed.
REF_NOMINAL_S = 0.022

_RNG = random.Random(20241001)
_SLOT_BYTES = 12
_SLOTS = [_RNG.randrange(1 << 80) for _ in range(2000)]
_BIG = 7 ** 4000
_BIG_MOD = (1 << 6007) - 1


def reference_work():
    acc = 0
    for rep in range(2):
        packed = bytearray(_SLOT_BYTES * len(_SLOTS))
        for j, v in enumerate(_SLOTS):
            packed[j * _SLOT_BYTES:(j + 1) * _SLOT_BYTES] = v.to_bytes(_SLOT_BYTES, "little")
        x = int.from_bytes(bytes(packed), "little")
        prod = x * (x + rep)
        raw = prod.to_bytes((prod.bit_length() + 7) // 8, "little")
        for j in range(0, len(raw) - _SLOT_BYTES, _SLOT_BYTES):
            acc += int.from_bytes(raw[j:j + _SLOT_BYTES], "little") % 1000003
    for i in range(30):
        acc ^= (_BIG * (_BIG + i)) % _BIG_MOD
        acc += sum(t * t % 97 for t in range(i % 7, 300, 7))
    return acc


def time_reference():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled(wall, ref_before, ref_after):
    """Wall time at the nominal speed, from the kernel times around it."""
    return wall * 2 * REF_NOMINAL_S / (ref_before + ref_after)
