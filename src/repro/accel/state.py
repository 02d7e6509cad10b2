"""Global configuration for the acceleration subsystem.

Kept in its own leaf module (no module-level imports beyond the standard
library) so ``kernel``/``fixed_base``/``multi_exp``/``pool`` can consult
the switches without pulling in the package ``__init__`` — which would
create an import cycle through :mod:`repro.crypto.modmath`.

The subsystem is **off by default**: every algorithm must produce
bit-identical results either way, so enabling it is purely a performance
decision (made by the CLI flags, the benchmarks, or a library caller via
:func:`repro.accel.configure`).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

_LOCK = threading.RLock()

_ENABLED = False
#: Fixed-base window width in bits; 2^window table entries per row.
_WINDOW = 5
#: Bounded LRU capacity for fixed-base tables (distinct (base, modulus)).
_CACHE_SIZE = 64
#: Worker count for pools/bridges; ``None`` means "ask os.cpu_count()".
_WORKERS: Optional[int] = None
#: Room-scale batch verification (:mod:`repro.accel.batch`).  On by
#: default but only effective while the subsystem itself is enabled, so
#: the accel-off books stay untouched.
_BATCH = True


def configure(enabled: Optional[bool] = None,
              window: Optional[int] = None,
              cache_size: Optional[int] = None,
              workers: Optional[int] = None,
              batch: Optional[bool] = None) -> Dict[str, object]:
    """Update any subset of the switches; returns the resulting switches
    (without ``kernel``: configuring never loads the kernel)."""
    global _ENABLED, _WINDOW, _CACHE_SIZE, _WORKERS, _BATCH
    with _LOCK:
        if enabled is not None:
            _ENABLED = bool(enabled)
        if window is not None:
            if not 1 <= int(window) <= 16:
                raise ValueError("window must be in [1, 16]")
            _WINDOW = int(window)
        if cache_size is not None:
            if int(cache_size) < 1:
                raise ValueError("cache_size must be >= 1")
            _CACHE_SIZE = int(cache_size)
        if workers is not None:
            if int(workers) < 1:
                raise ValueError("workers must be >= 1")
            _WORKERS = int(workers)
        if batch is not None:
            _BATCH = bool(batch)
        return _switches()


def _switches() -> Dict[str, object]:
    with _LOCK:
        return {
            "enabled": _ENABLED,
            "window": _WINDOW,
            "cache_size": _CACHE_SIZE,
            "workers": _WORKERS,
            "batch": _BATCH,
        }


def snapshot() -> Dict[str, object]:
    """The switches, plus the read-only ``kernel`` that serves powers
    while the subsystem is enabled (reading it loads the kernel)."""
    from repro.accel import kernel

    return dict(_switches(), kernel=kernel.name())


def enable(workers: Optional[int] = None) -> None:
    configure(enabled=True, workers=workers)


def disable() -> None:
    configure(enabled=False)


def is_enabled() -> bool:
    return _ENABLED


def batch_enabled() -> bool:
    """True when room-scale batch verification should run: the subsystem
    is on *and* the batch switch has not been turned off."""
    return _ENABLED and _BATCH


def window() -> int:
    return _WINDOW


def cache_size() -> int:
    return _CACHE_SIZE


def workers() -> Optional[int]:
    return _WORKERS
