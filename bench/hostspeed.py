"""How fast the host runs Python at the moment, from a fixed reference kernel.

The benchmark shares its CPUs with other virtual machines. For minutes at
a time the same sweep can run 1.3 to 1.6 times slower than on a quiet
host, with no steal time to show for it, so even the fastest repetition
of a cell moves by up to 30% from one run to the next. A kernel that
builds and sorts small Python objects, with no package code in it, slows
down over the same minutes, by about half as much.

:func:`kernel_s` times that kernel once; a run times it before every
timed call. :func:`scale` is the reference kernel time divided by the
fastest kernel time of the run. A time multiplied by it is the time the
call would take on this host when the kernel runs at
:data:`REFERENCE_KERNEL_S`, so runs made while the host is busy and runs
made while it is quiet report comparable times.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

#: Fastest :func:`kernel_s` seen on a quiet host: a 2-vCPU KVM guest on
#: an Intel Xeon (family 6, model 143) with Python 3.11.7.
REFERENCE_KERNEL_S = 0.0068


@dataclass
class _Row:
    value: float
    weight: float
    key: tuple[int, int]


def kernel_s() -> float:
    """Seconds to build and sort 20 000 small dataclass objects.

    The garbage collector is off while it runs, so the size of the
    caller's heap does not change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    rows = [_Row(float(i), 0.5 * i, (i, -i)) for i in range(20_000)]
    rows.sort(key=lambda r: -r.weight)
    elapsed = perf_counter() - start
    del rows
    if enabled:
        gc.enable()
    return elapsed


def scale(kernel_times: list[float]) -> float:
    """Factor that takes the times of a run to the reference speed."""
    return REFERENCE_KERNEL_S / min(kernel_times)
