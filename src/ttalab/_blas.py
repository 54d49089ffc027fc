"""numpy's BLAS runs on one thread in every process that imports ttalab.

OpenBLAS picks its thread count from the host, and a multi-term BLAS
reduction (`resid.T @ feats` in the likelihood kernel, the low-rank chain
rule, `B @ A`) sums in a different order on a different count, so record
floats would move with the host's cores. Its spare threads also spin beside
every run and oversubscribe forked `--jobs` workers. Importing `ttalab`
therefore sets the OpenBLAS that numpy has already loaded to one thread,
through ctypes, before the library's first matmul; forked workers inherit
the setting. `STATUS` records the outcome, and a pin that fails prints
one warning on stderr instead of falling back silently.
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THREADS = 1

# (setter, getter) of each OpenBLAS build numpy ships, tried in order
SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),  # numpy 2.x
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),  # numpy 1.2x wheels
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@dataclass(frozen=True)
class BlasStatus:
    library: str | None   # basename of the OpenBLAS numpy loaded
    threads: int | None   # read back through the getter; None: not pinned
    reason: str | None = None   # why it is not pinned to THREADS

    def __str__(self) -> str:
        return f"blas={self.library} threads={self.threads}"


def _candidates():
    """OpenBLAS files numpy may have loaded: the one bundled next to the
    package (numpy.libs in Linux wheels, .dylibs on macOS), then any mapped
    into this process."""
    package = Path(np.__file__).resolve().parent
    for bundled in (package.parent / "numpy.libs", package / ".dylibs"):
        yield from sorted(bundled.glob("*openblas*"))
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return
    mapped = dict.fromkeys(Path(f[5].strip()) for f in fields if len(f) == 6)
    yield from (p for p in mapped if "openblas" in p.name.lower())


def _pin() -> BlasStatus:
    for path in _candidates():
        try:
            # RTLD_NOLOAD: a handle on the copy numpy loaded, never a second copy
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue  # not loaded in this process
        for setter_name, getter_name in SYMBOLS:
            try:
                setter, getter = getattr(lib, setter_name), getattr(lib, getter_name)
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(THREADS)
            threads = int(getter())
            return BlasStatus(path.name, threads, None if threads == THREADS else
                              f"{getter_name} reads {threads} after setting {THREADS}")
        return BlasStatus(path.name, None, f"{path.name} exports none of "
                                           f"{', '.join(s for s, _ in SYMBOLS)}")
    return BlasStatus(None, None, "numpy has loaded no OpenBLAS")


STATUS = _pin()
if STATUS.reason:
    print(f"warning: ttalab: numpy's BLAS is not set to {THREADS} thread, so output "
          f"floats may depend on the host's cores: {STATUS.reason}", file=sys.stderr)
