"""The modexp kernel (layer 0 of :mod:`repro.accel`).

Every modular power and inverse the library computes passes through
:func:`power` / :func:`invert` here once :mod:`repro.accel` is imported
(it installs them into :mod:`repro.crypto.modmath`).  They are the one
decision point for *how* a residue is reached:

1. accel off, or ``modulus <= 1`` — builtin ``pow``, exactly as without
   the subsystem;
2. accel on and the system GMP library loaded — ``mpz_powm`` /
   ``mpz_invert`` through a small :mod:`ctypes` binding, for registered
   and unregistered bases alike;
3. accel on, no GMP — the fixed-base table of a registered base
   (:func:`repro.accel.fixed_base.lookup_pow`), else builtin ``pow``.

The library is optional.  It is loaded once, on first use (never at
import); when it cannot be loaded, or fails its load-time self-check,
path 3 runs unchanged and :func:`name` reports ``"builtin"``.

Nothing here counts: :func:`repro.crypto.modmath.mexp` and
:func:`repro.accel.multi_exp.multi_exp` charge their modexps *before*
dispatching, :func:`repro.crypto.modmath.inverse` its inversion, so the
E1 books cannot tell the paths apart.  The results are bit-identical.

Thread safety: ``ctypes`` releases the GIL around every GMP call, and
the service bridge runs crypto in worker threads, so each thread owns
its mpz temporaries (a :class:`threading.local`); they are cleared when
the thread ends.  Inputs are normalised in Python before they reach
GMP: the base is reduced ``% modulus``, exponents are non-negative, and
the export buffer is sized from the modulus the result is reduced by.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Optional

from repro.accel import fixed_base, state

#: Sonames tried, in order, through the dynamic loader's own search
#: path.  ``ctypes.util.find_library`` is deliberately not used: on a
#: machine without GMP it spawns ``ldconfig``/``gcc``/``ld`` processes.
_CANDIDATES = ("libgmp.so.10", "libgmp.10.dylib", "libgmp.dylib")


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_void_p)]


class _Scratch:
    """One thread's mpz temporaries plus the export buffer."""

    def __init__(self, gmp: "Gmp") -> None:
        self._clear = gmp._clear
        self.base, self.exp, self.mod, self.out = (_Mpz() for _ in range(4))
        for z in (self.base, self.exp, self.mod, self.out):
            gmp._init(z)
        #: The int last imported into ``mod``.
        self.modulus = 0
        self.buffer = ctypes.create_string_buffer(0)
        self.count = ctypes.c_size_t()

    def __del__(self) -> None:
        for z in (self.base, self.exp, self.mod, self.out):
            self._clear(z)


class Gmp:
    """``mpz_powm`` / ``mpz_invert`` on Python ints via ``ctypes``."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        mpz = ctypes.POINTER(_Mpz)
        size = ctypes.c_size_t

        def bind(symbol, restype, *argtypes):
            function = getattr(lib, symbol)
            function.restype = restype
            function.argtypes = list(argtypes)
            return function

        self._init = bind("__gmpz_init", None, mpz)
        self._clear = bind("__gmpz_clear", None, mpz)
        self._import = bind("__gmpz_import", None, mpz, size, ctypes.c_int,
                            size, ctypes.c_int, size, ctypes.c_char_p)
        self._export = bind("__gmpz_export", ctypes.c_void_p,
                            ctypes.c_void_p, ctypes.POINTER(size),
                            ctypes.c_int, size, ctypes.c_int, size, mpz)
        self._powm = bind("__gmpz_powm", None, mpz, mpz, mpz, mpz)
        self._invert = bind("__gmpz_invert", ctypes.c_int, mpz, mpz, mpz)
        self.version = ctypes.c_char_p.in_dll(
            lib, "__gmp_version").value.decode("ascii")
        self._local = threading.local()

    def _scratch(self, modulus: int) -> _Scratch:
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _Scratch(self)
        if modulus != scratch.modulus:
            size = self._set(scratch.mod, modulus)
            scratch.modulus = modulus
            if len(scratch.buffer) < size:
                scratch.buffer = ctypes.create_string_buffer(size)
        return scratch

    def _set(self, z: _Mpz, value: int) -> int:
        """Import a non-negative int; returns its size in bytes."""
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        self._import(z, len(data), -1, 1, 0, 0, data)
        return len(data)

    def _result(self, scratch: _Scratch) -> int:
        # A result below the modulus fits the modulus-sized buffer.
        self._export(scratch.buffer, scratch.count, -1, 1, 0, 0, scratch.out)
        return int.from_bytes(scratch.buffer[:scratch.count.value], "little")

    def powm(self, base: int, exponent: int, modulus: int) -> int:
        """``pow(base, exponent, modulus)`` for ``exponent >= 0`` and
        ``modulus > 1``."""
        scratch = self._scratch(modulus)
        self._set(scratch.base, base % modulus)
        self._set(scratch.exp, exponent)
        self._powm(scratch.out, scratch.base, scratch.exp, scratch.mod)
        return self._result(scratch)

    def invert(self, a: int, modulus: int) -> Optional[int]:
        """``pow(a, -1, modulus)`` for ``modulus > 1``, or ``None`` when
        ``a`` is not invertible."""
        scratch = self._scratch(modulus)
        self._set(scratch.base, a % modulus)
        if not self._invert(scratch.out, scratch.base, scratch.mod):
            return None
        return self._result(scratch)


def _load() -> Optional[Gmp]:
    """Bind the system libgmp, or ``None`` when it is absent or fails a
    self-check against builtin ``pow``."""
    for soname in _CANDIDATES:
        try:
            gmp = Gmp(ctypes.CDLL(soname))
            modulus = (1 << 127) - 1
            if (gmp.powm(-3, 1 << 130, modulus) == pow(-3, 1 << 130, modulus)
                    and gmp.invert(1 << 100, modulus)
                    == pow(1 << 100, -1, modulus)
                    and gmp.invert(6, 9) is None):
                return gmp
        except (OSError, AttributeError, ValueError):
            continue
    return None


_UNLOADED = object()
_GMP = _UNLOADED
_LOAD_LOCK = threading.Lock()


def loaded() -> Optional[Gmp]:
    """The GMP binding, loading it on the first call; ``None`` without it."""
    global _GMP
    if _GMP is _UNLOADED:
        with _LOAD_LOCK:
            if _GMP is _UNLOADED:
                _GMP = _load()
    return _GMP


def name() -> str:
    """Which kernel serves accelerated powers: ``"gmp <version>"`` or
    ``"builtin"`` (fixed-base tables plus builtin ``pow``)."""
    gmp = loaded()
    return f"gmp {gmp.version}" if gmp is not None else "builtin"


def power(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, bit-identical, by the fastest
    path available (see the module docstring)."""
    if state.is_enabled() and modulus > 1 and exponent >= 0:
        gmp = _GMP if _GMP is not _UNLOADED else loaded()
        if gmp is not None:
            return gmp.powm(base, exponent, modulus)
        table_power = fixed_base.lookup_pow(base, exponent, modulus)
        if table_power is not None:
            return table_power
    return pow(base, exponent, modulus)


def invert(a: int, modulus: int) -> int:
    """``pow(a, -1, modulus)``; raises ``ValueError`` like builtin
    ``pow`` when ``a`` is not invertible."""
    if state.is_enabled() and modulus > 1:
        gmp = _GMP if _GMP is not _UNLOADED else loaded()
        if gmp is not None:
            inverse = gmp.invert(a, modulus)
            if inverse is None:
                raise ValueError("base is not invertible for the given modulus")
            return inverse
    return pow(a, -1, modulus)
