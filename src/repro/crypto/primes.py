"""Primality testing and prime generation.

Implements deterministic trial division for small inputs, Miller-Rabin for
large ones, and generators for random primes, safe primes and primes within
an interval (the latter is what ACJT certificate exponents need:
``e`` prime in ``]2^gamma1 - 2^gamma2, 2^gamma1 + 2^gamma2[``).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional

from repro.crypto.modmath import power
from repro.errors import ParameterError

_SIEVE_LIMIT = 4096


def _sieve(limit: int) -> List[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES: List[int] = _sieve(_SIEVE_LIMIT)
_SMALL_PRIME_SET = set(SMALL_PRIMES)


def is_prime(n: int, rounds: int = 32, rng: Optional[random.Random] = None) -> bool:
    """Probabilistic primality test (Miller-Rabin).

    Deterministically correct below ``_SIEVE_LIMIT``; error probability at
    most ``4**-rounds`` above it.
    """
    if n < _SIEVE_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in SMALL_PRIMES:
        if n % p == 0:
            return False
    rng = rng or random
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = power(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Return a random prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ParameterError("a prime needs at least 2 bits")
    rng = rng or random
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate, rng=rng):
            return candidate


def random_prime_in_interval(
    low: int, high: int, rng: Optional[random.Random] = None
) -> int:
    """Return a random prime in the open interval ``]low, high[``.

    Raises :class:`ParameterError` if the interval is too narrow to plausibly
    contain a prime (we give up after a bounded number of attempts).
    """
    if high - low < 4:
        raise ParameterError(f"interval ]{low}, {high}[ too narrow")
    rng = rng or random
    attempts = 0
    width = high - low - 2
    # Prime density near N is ~1/ln N; allow a generous multiple.
    max_attempts = max(64, 64 * (high.bit_length()))
    while attempts < max_attempts:
        candidate = low + 1 + rng.randrange(width)
        candidate |= 1
        if candidate <= low or candidate >= high:
            attempts += 1
            continue
        if is_prime(candidate, rng=rng):
            return candidate
        attempts += 1
    raise ParameterError(f"no prime found in ]{low}, {high}[ after {max_attempts} tries")


def is_safe_prime(p: int, rounds: int = 32) -> bool:
    """True iff both ``p`` and ``(p - 1) // 2`` are prime."""
    return p > 5 and p % 2 == 1 and is_prime(p, rounds) and is_prime((p - 1) // 2, rounds)


def random_safe_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a safe prime ``p = 2q + 1`` with ``p`` of exactly ``bits``
    bits.  Expensive for bits >= 512 — prefer the precomputed sets in
    :mod:`repro.crypto.params`.
    """
    rng = rng or random
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if any(q % sp == 0 or p % sp == 0 for sp in SMALL_PRIMES[1:64]):
            continue
        if is_prime(q, rounds=8, rng=rng) and is_prime(p, rounds=8, rng=rng):
            if is_prime(q, rounds=32, rng=rng) and is_prime(p, rounds=32, rng=rng):
                return p


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def product(values: Iterable[int]) -> int:
    """Product of an iterable of ints (1 for empty input)."""
    result = 1
    for v in values:
        result *= v
    return result
