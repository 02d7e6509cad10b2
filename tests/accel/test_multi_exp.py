"""Property tests for fixed-base-routed multi-exponentiation.

``multi_exp`` must be bit-identical to the naive per-term product for
every input — enabled or disabled — and must charge exactly one modexp
per term (the E1 invariant: each term replaces one ``mexp`` call).
Negative exponents on registered bases must reach the fixed-base tables
without moving the ``modexp`` / ``inversions`` books.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.accel import fixed_base, kernel, state
from repro.accel.multi_exp import multi_exp
from repro.crypto.modmath import inverse
from repro.errors import ParameterError

PRIME_MODULI = st.sampled_from([2, 3, 101, 7919, (1 << 61) - 1])
#: Moduli whose random bases are units with overwhelming probability.
UNIT_MODULI = st.sampled_from([
    (1 << 61) - 1, (1 << 127) - 1, ((1 << 61) - 1) * ((1 << 31) - 1)])


def _naive(pairs, modulus):
    result = 1 % modulus
    for base, exponent in pairs:
        if exponent < 0:
            base = inverse(base, modulus)
            exponent = -exponent
        result = (result * pow(base, exponent, modulus)) % modulus
    return result


def _books(call):
    """Run ``call`` under a fresh recorder: its value, the guarded
    ``(modexp, inversions)`` books, and the fixed-base table lookups."""
    rec = metrics.Recorder()
    with metrics.using(rec):
        value = call()
    extra = rec.total().extra
    lookups = extra.get("accel:fb-hit", 0) + extra.get("accel:fb-miss", 0)
    return value, (rec.total().modexp, extra.get("inversions", 0)), lookups


@pytest.fixture(autouse=True)
def _clean_accel_state():
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()
    yield
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()


@pytest.mark.parametrize("enabled", [False, True])
class TestCorrectness:
    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 64),
                  st.integers(min_value=0, max_value=1 << 128)),
        min_size=0, max_size=9),
        modulus=st.sampled_from([1, 2, 3, 101, 7919, (1 << 61) - 1, 1 << 96]))
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_product(self, enabled, pairs, modulus):
        state.configure(enabled=enabled)
        assert multi_exp(pairs, modulus) == _naive(pairs, modulus)

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1 << 64),
                  st.integers(min_value=-(1 << 96), max_value=1 << 96)),
        min_size=1, max_size=5),
        modulus=PRIME_MODULI)
    @settings(max_examples=100, deadline=None)
    def test_negative_exponents_via_inverse(self, enabled, pairs, modulus):
        # Prime modulus keeps every nonzero base invertible.
        pairs = [(b, e) for b, e in pairs if b % modulus != 0]
        state.configure(enabled=enabled)
        assert multi_exp(pairs, modulus) == _naive(pairs, modulus)

    def test_edge_inputs(self, enabled):
        state.configure(enabled=enabled)
        assert multi_exp([], 101) == 1          # empty product
        assert multi_exp([], 1) == 0            # empty product mod 1
        assert multi_exp([(1, 0)], 101) == 1    # base 1, exponent 0
        assert multi_exp([(7, 0), (9, 0)], 101) == 1
        assert multi_exp([(5, 3), (4, 2)], 1) == 0   # modulus boundary

    def test_bad_modulus_rejected(self, enabled):
        state.configure(enabled=enabled)
        with pytest.raises(ValueError):
            multi_exp([(2, 3)], 0)


class TestAccounting:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_charges_one_modexp_per_term(self, enabled):
        state.configure(enabled=enabled)
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([(2, 10), (3, 20), (5, 30)], 7919)
        assert rec.total().modexp == 3

    @pytest.mark.parametrize("enabled", [False, True])
    def test_inversion_count_independent_of_switch(self, enabled):
        state.configure(enabled=enabled)
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([(2, -10), (3, 20), (5, -30)], 7919)
        assert rec.total().extra.get("inversions") == 2

    def test_empty_product_charges_nothing(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            multi_exp([], 101)
        assert rec.total().modexp == 0


@pytest.mark.usefixtures("kernel_fallback")
class TestRegisteredNegativeExponents:
    """Without GMP, a negative exponent on a registered base is served
    from that base's table (``base^|e|``, then one inversion of the
    power)."""

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=2, max_value=1 << 128),
                  st.integers(min_value=-(1 << 320), max_value=-1)),
        min_size=1, max_size=6),
        positive=st.lists(st.integers(min_value=0, max_value=1 << 320),
                          max_size=3),
        modulus=UNIT_MODULI)
    @settings(max_examples=60, deadline=None)
    def test_table_served_and_books_unchanged(self, pairs, positive,
                                              modulus):
        pairs = [(b, e) for b, e in pairs if math.gcd(b, modulus) == 1]
        pairs += [(b, e) for (b, _), e in zip(pairs, positive)]
        fixed_base.clear()
        for base, _ in pairs:
            fixed_base.register_base(base, modulus)
        state.configure(enabled=False)
        off = _books(lambda: multi_exp(pairs, modulus))
        state.configure(enabled=True)
        on = _books(lambda: multi_exp(pairs, modulus))
        negatives = sum(e < 0 for _, e in pairs)
        assert on[0] == off[0] == _naive(pairs, modulus)
        assert on[1] == off[1] == (len(pairs), negatives)
        assert (off[2], on[2]) == (0, len(pairs))

    @given(k=st.integers(min_value=1, max_value=1 << 64),
           exponent=st.integers(min_value=1, max_value=1 << 320))
    @settings(max_examples=30, deadline=None)
    def test_non_invertible_registered_base_raises(self, k, exponent):
        modulus = 7919 * 101
        base = 101 * k
        raised = []
        for enabled in (False, True):
            fixed_base.clear()
            fixed_base.register_base(base, modulus)
            state.configure(enabled=enabled)
            rec = metrics.Recorder()
            with metrics.using(rec), pytest.raises(ParameterError) as info:
                multi_exp([(3, -5), (base, -exponent), (5, -7)], modulus)
            raised.append((type(info.value), rec.total().modexp,
                           rec.total().extra.get("inversions", 0)))
        # The failing term stops the product before any modexp is
        # charged, exactly as with accel off.
        assert raised[0] == raised[1] == (ParameterError, 0, 2)


class TestKernelRegisteredBases:
    """On the GMP kernel path the same products reach the same result
    and books without consulting any table."""

    @pytest.fixture(autouse=True)
    def _needs_gmp(self):
        if kernel.loaded() is None:
            pytest.skip("the system GMP library is not available")

    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=2, max_value=1 << 128),
                  st.integers(min_value=-(1 << 320), max_value=1 << 320)),
        min_size=1, max_size=6),
        modulus=UNIT_MODULI)
    @settings(max_examples=60, deadline=None)
    def test_no_table_and_books_unchanged(self, pairs, modulus):
        pairs = [(b, e) for b, e in pairs if math.gcd(b, modulus) == 1]
        fixed_base.clear()
        for base, _ in pairs:
            fixed_base.register_base(base, modulus)
        state.configure(enabled=False)
        off = _books(lambda: multi_exp(pairs, modulus))
        state.configure(enabled=True)
        on = _books(lambda: multi_exp(pairs, modulus))
        assert on == off
        assert on[0] == _naive(pairs, modulus)
        assert on[1] == (len(pairs), sum(e < 0 for _, e in pairs))
        assert on[2] == 0 and fixed_base.stats()["tables"] == 0

    def test_non_invertible_base_raises_like_accel_off(self):
        modulus = 7919 * 101
        raised = []
        for enabled in (False, True):
            state.configure(enabled=enabled)
            rec = metrics.Recorder()
            with metrics.using(rec), pytest.raises(ParameterError) as info:
                multi_exp([(3, -5), (101 * 7, -(1 << 300)), (5, -7)],
                          modulus)
            raised.append((str(info.value), rec.total().modexp,
                           rec.total().extra.get("inversions", 0)))
        assert raised[0] == raised[1]
        assert raised[0][1:] == (0, 2)
