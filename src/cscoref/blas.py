"""The thread count of the OpenBLAS that numpy bundles, set for one block.

How many threads a product runs on decides how OpenBLAS splits its sums,
so the bytes of a trained checkpoint depend on it. ``threads(n)`` sets the
count through the library's own ``scipy_openblas_set_num_threads64_``,
found in the copy numpy has already loaded, and restores the previous
count on exit. Nothing is set at import: outside such a block the count is
whatever the caller or ``OPENBLAS_NUM_THREADS`` made it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import warnings
from contextlib import contextmanager

import numpy as np

# the count train and gradcheck run at: the pinned bytes assume it, and it
# leaves the second core to the training helper thread
TRAIN_THREADS = 1
# where numpy's wheels put the OpenBLAS they bundle
LIBRARY_GLOB = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs", "libscipy_openblas64_-*.so")


@functools.cache
def _controls():
    """(get, set) of numpy's OpenBLAS thread count, or None, with one
    warning, when no loaded library has them."""
    for path in sorted(glob.glob(LIBRARY_GLOB)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):  # not loaded, or another build
            continue
    warnings.warn("cannot set the BLAS thread count of this numpy build; "
                  "trained bytes follow its own setting")
    return None


@contextmanager
def threads(n: int):
    """Run the block with numpy's OpenBLAS at ``n`` threads; a no-op when
    the library offers no control."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_count = controls
    before = get()
    set_count(n)
    try:
        yield
    finally:
        set_count(before)


def describe() -> dict:
    """numpy's BLAS name and version, and the thread count training uses
    (None when it cannot be set)."""
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "train_threads": TRAIN_THREADS if _controls() else None}
