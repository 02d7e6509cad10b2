"""Multi-term modular exponentiation (layer 1b).

ACJT signing and verification are dominated by multi-term products of
the form ``b1^e1 * b2^e2 * ... (mod n)`` (the ``d1..d8`` commitment and
reconstruction values).  Each term is evaluated through
:func:`repro.accel.kernel.power` — the same decision point as
:func:`repro.crypto.modmath.mexp`: GMP's ``mpz_powm`` when the system
library is loaded; without it, the :mod:`repro.accel.fixed_base` table
of a registered long-lived base (the public-key and Pedersen bases, the
accumulator value, which carry the ~3000-bit ``s3``/``s_z`` responses),
else builtin ``pow`` (the per-signature ``T``-values, which only carry
the short challenge and ``s1_hat`` exponents).

An earlier revision ran a pure-Python Shamir/Straus shared ladder here.
Profiling showed it *loses* to CPython's C ``pow`` on the mixed exponent
sizes these products actually contain — the shared squarings are Python
big-int multiplies, and the shortest exponent pads up to the longest —
so the ladder is gone.

Negative exponents reach the kernel and the tables too.  Many terms on
registered bases carry a negative exponent (``y^-s3``, ``g^-s3``,
``ped_h^-s_z``, ``ped_g^-s_z`` in verify; ``y^-t_z``, ``g^-t_z`` in
sign), among them the largest exponents in the protocol.  Inverting the
*base* first would hand an unregistered inverse to the table lookup, so
each term instead evaluates ``base^|e|`` and then inverts the *power*:
``(b^|e|)^-1 == (b^-1)^|e|`` for any unit ``b``, and ``b^|e|`` is a
unit exactly when ``b`` is, so a non-invertible base still raises
:class:`repro.errors.ParameterError`.

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
from repro.accel import kernel
from repro.crypto.modmath import inverse


def multi_exp(pairs: Iterable[Tuple[int, int]], modulus: int) -> int:
    """``prod(base**exp for base, exp in pairs) % modulus``, counted as
    ``len(pairs)`` modular exponentiations.

    Bit-identical to the naive per-term product for any input; each
    power goes through :func:`repro.accel.kernel.power`, which only
    changes *how* the same residue is reached.  A negative exponent
    computes ``base^|e|`` and inverts that power (one counted inversion).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    result, count = 1 % modulus, 0
    for base, exponent in pairs:
        power = kernel.power(base, abs(exponent), modulus)
        if exponent < 0:
            power = inverse(power, modulus)
        result = (result * power) % modulus
        count += 1
    if count:
        metrics.count_modexp(count)
    return result
