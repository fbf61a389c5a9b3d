import os
import sys
import time

import pytest

# exact ladder values carry six-figure-digit integers; lift the int->str guard
sys.set_int_max_str_digits(10**7)


@pytest.fixture
def cpu_per_wall_second():
    """Process CPU seconds per wall second of one call.

    After a threaded BLAS call, OpenBLAS's idle workers busy-wait for about
    0.1 s, on a second core when there is one; a call that keeps calling BLAS
    keeps them spinning, so its ratio nears 2 on two CPUs.  The pause first
    lets workers woken by an earlier test go back to sleep.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2:
        pytest.skip("a spinning worker needs a second CPU to show")

    def measure(call):
        time.sleep(0.2)
        wall, cpu = time.perf_counter(), time.process_time()
        call()
        return (time.process_time() - cpu) / (time.perf_counter() - wall)

    return measure
