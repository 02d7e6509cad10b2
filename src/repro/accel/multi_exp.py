"""Multi-term modular exponentiation with fixed-base splitting (layer 1b).

ACJT signing and verification are dominated by multi-term products of
the form ``b1^e1 * b2^e2 * ... (mod n)`` (the ``d1..d8`` commitment and
reconstruction values).  Most of those terms raise *long-lived* bases —
the group public key and Pedersen bases, the accumulator value — to the
very largest exponents (the ``s3``/``s_z`` responses run to ~6x the
modulus size), which is exactly what :mod:`repro.accel.fixed_base`
windowed tables are good at: one multiply per non-zero window digit, no
squarings.  The enabled path therefore splits each product by base:
registered bases evaluate through their shared table, everything else
(the per-signature ``T``-values, which only carry the short challenge
and ``s1_hat`` exponents) falls back to builtin ``pow``.

An earlier revision ran a pure-Python Shamir/Straus shared ladder here.
Profiling showed it *loses* to CPython's C ``pow`` on the mixed exponent
sizes these products actually contain — the shared squarings are Python
big-int multiplies, and the shortest exponent pads up to the longest —
so the ladder is gone; the split evaluation above is what made accel-on
finally beat accel-off on one core.

Negative exponents reach the tables too.  Many terms on registered
bases carry a negative exponent (``y^-s3``, ``g^-s3``, ``ped_h^-s_z``,
``ped_g^-s_z`` in verify; ``y^-t_z``, ``g^-t_z`` in sign), among them
the largest exponents in the protocol.  Inverting the *base* first
would hand an unregistered inverse to the lookup, so each term instead
evaluates ``base^|e|`` (from the table when the base has one) and then
inverts the *power*: ``(b^|e|)^-1 == (b^-1)^|e|`` for any unit ``b``,
and ``b^|e|`` is a unit exactly when ``b`` is, so a non-invertible base
still raises :class:`repro.errors.ParameterError`.

Accounting contract (the E1 invariant): a ``k``-term call charges
exactly ``k`` modexps — the number of :func:`repro.crypto.modmath.mexp`
calls it replaces — whether or not acceleration is enabled.  Each
negative exponent costs one :func:`repro.crypto.modmath.inverse`,
mirroring what each replaced ``mexp`` does, so the ``inversions`` extra
counter is also independent of the accel switch.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro import metrics
from repro.accel import fixed_base, state
from repro.crypto.modmath import inverse


def multi_exp(pairs: Iterable[Tuple[int, int]], modulus: int) -> int:
    """``prod(base**exp for base, exp in pairs) % modulus``, counted as
    ``len(pairs)`` modular exponentiations.

    Bit-identical to the naive per-term product for any input; the
    fixed-base split only changes *how* the same residue is reached, and
    only runs while :mod:`repro.accel` is enabled.  A negative exponent
    computes ``base^|e|`` and inverts that power (one counted inversion).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    lookup = fixed_base.lookup_pow if state.is_enabled() else None
    result, count = 1 % modulus, 0
    for base, exponent in pairs:
        power = lookup(base, abs(exponent), modulus) if lookup else None
        if power is None:
            power = pow(base, abs(exponent), modulus)
        if exponent < 0:
            power = inverse(power, modulus)
        result = (result * power) % modulus
        count += 1
    if count:
        metrics.count_modexp(count)
    return result
