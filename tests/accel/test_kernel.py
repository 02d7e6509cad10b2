"""The modexp kernel (:mod:`repro.accel.kernel`).

With the system GMP library loaded, every power and inverse must equal
builtin ``pow`` bit for bit — for any base (negative, zero, at or past
the modulus), any exponent size, odd and even moduli — from any number
of threads at once.  A non-invertible input must raise the same
``ParameterError`` as the builtin path.  Without the library (forced
through the ``kernel_fallback`` fixture) the fixed-base tables serve,
as before the kernel existed.
"""

import random
import subprocess
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel, metrics
from repro.accel import batch, fixed_base, kernel, state
from repro.core.handshake import run_handshake
from repro.core.scheme1 import scheme1_policy
from repro.crypto import modmath
from repro.errors import ParameterError

MODULI = st.one_of(
    st.just(2),
    st.integers(min_value=2, max_value=1 << 16),
    st.integers(min_value=1 << 511, max_value=1 << 1024),
    st.integers(min_value=1 << 511, max_value=1 << 1024).map(
        lambda m: m | 1),
)
EXPONENTS = st.one_of(st.just(0), st.integers(min_value=0,
                                              max_value=1 << 3100))


@pytest.fixture(scope="module")
def gmp():
    loaded = kernel.loaded()
    if loaded is None:
        pytest.skip("the system GMP library is not available")
    return loaded


@pytest.fixture(autouse=True)
def _clean_accel_state():
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()
    yield
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()


def _base(modulus):
    """Bases around and past the modulus: negative, 0, ≥ modulus."""
    return st.one_of(st.just(0), st.just(modulus), st.integers(
        min_value=-3 * modulus, max_value=3 * modulus))


def _builtin_inverse(a, modulus):
    try:
        return pow(a, -1, modulus)
    except ValueError:
        return None


class TestMatchesBuiltin:
    @given(data=st.data(), modulus=MODULI, exponent=EXPONENTS)
    @settings(max_examples=150, deadline=None)
    def test_powm(self, gmp, data, modulus, exponent):
        base = data.draw(_base(modulus))
        assert gmp.powm(base, exponent, modulus) == pow(base, exponent,
                                                        modulus)

    @given(data=st.data(), modulus=MODULI)
    @settings(max_examples=150, deadline=None)
    def test_invert(self, gmp, data, modulus):
        a = data.draw(_base(modulus))
        assert gmp.invert(a, modulus) == _builtin_inverse(a, modulus)

    @given(data=st.data(), modulus=st.one_of(st.just(1), MODULI),
           exponent=EXPONENTS)
    @settings(max_examples=100, deadline=None)
    def test_dispatch(self, gmp, data, modulus, exponent):
        """``modulus == 1`` and negative exponents stay on builtin pow;
        everything else goes to GMP — same residues either way."""
        base = data.draw(_base(modulus))
        state.configure(enabled=True)
        assert kernel.power(base, exponent, modulus) == pow(base, exponent,
                                                            modulus)
        expected = _builtin_inverse(base, modulus)
        if expected is None:
            with pytest.raises(ValueError):
                kernel.invert(base, modulus)
        else:
            assert kernel.invert(base, modulus) == expected
            assert kernel.power(base, -exponent, modulus) == pow(
                base, -exponent, modulus)


class TestErrors:
    @pytest.mark.parametrize("a, modulus", [(0, 7), (6, 9), (101 * 3, 7919 * 101),
                                            (-10, 4), (1 << 600, 1 << 512)])
    def test_non_invertible_raises_same_parameter_error(self, gmp, a, modulus):
        messages = []
        for enabled in (False, True):
            state.configure(enabled=enabled)
            with pytest.raises(ParameterError) as info:
                modmath.inverse(a, modulus)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"{a} not invertible mod {modulus}"

    def test_accel_off_stays_on_builtin_pow(self, gmp, monkeypatch):
        def refuse(*args):
            raise AssertionError("GMP called while accel is off")

        monkeypatch.setattr(gmp, "powm", refuse)
        monkeypatch.setattr(gmp, "invert", refuse)
        modulus = (1 << 127) - 1
        assert kernel.power(-5, 1 << 200, modulus) == pow(-5, 1 << 200,
                                                          modulus)
        assert kernel.invert(3, modulus) == pow(3, -1, modulus)


class TestThreads:
    def test_concurrent_threads_match_builtin(self, gmp):
        """More threads than cores, a short switch interval, a different
        modulus per thread: every result equals builtin pow."""
        state.configure(enabled=True)
        moduli = [(1 << 521) - 1, (1 << 607) - 1, (1 << 127) - 1,
                  ((1 << 61) - 1) * ((1 << 89) - 1), 1 << 512, 3 ** 400]
        errors = []

        def work(index, modulus):
            try:
                for step in range(60):
                    base = (index + 3) ** (step + 40) - step
                    exponent = (7 ** (step + 300)) >> index
                    want = pow(base, exponent, modulus)
                    got = kernel.power(base, exponent, modulus)
                    if got != want:
                        errors.append((index, step, "power"))
                    inv = _builtin_inverse(base, modulus)
                    if inv is not None and kernel.invert(base, modulus) != inv:
                        errors.append((index, step, "invert"))
            except Exception as exc:  # surfaced in the main thread
                errors.append((index, repr(exc)))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i, m), daemon=True)
                       for i, m in enumerate(moduli)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []

    def test_thread_temporaries_released_at_thread_end(self, gmp):
        state.configure(enabled=True)
        refs = []

        def work():
            kernel.power(3, 1 << 100, (1 << 127) - 1)
            refs.append(weakref.ref(gmp._local.scratch))

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(refs) == 1 and refs[0]() is None


class TestReporting:
    def test_kernel_named_in_snapshot_and_stats(self, gmp):
        assert kernel.name() == f"gmp {gmp.version}"
        assert state.snapshot()["kernel"] == kernel.name()
        assert accel.stats()["kernel"].startswith("gmp ")

    def test_import_does_not_load_gmp(self):
        code = ("import repro, repro.accel\n"
                "from repro.accel import kernel\n"
                "assert kernel._GMP is kernel._UNLOADED\n"
                "assert not any('gmp' in line for line in "
                "open('/proc/self/maps')) if sys.platform == 'linux' "
                "else True\n")
        subprocess.run([sys.executable, "-c", "import sys\n" + code],
                       check=True, timeout=60)

    def test_configure_does_not_load_gmp(self, monkeypatch):
        monkeypatch.setattr(kernel, "_GMP", kernel._UNLOADED)
        switches = accel.configure(enabled=True)
        accel.configure(enabled=False)
        assert "kernel" not in switches
        assert kernel._GMP is kernel._UNLOADED


@pytest.mark.usefixtures("kernel_fallback")
class TestFallback:
    def test_reported_builtin(self):
        assert state.snapshot()["kernel"] == "builtin"
        assert accel.stats()["kernel"] == "builtin"

    def test_registered_base_served_by_table(self):
        modulus = (1 << 127) - 1
        fixed_base.register_base(5, modulus)
        state.configure(enabled=True)
        rec = metrics.Recorder()
        with metrics.using(rec):
            assert modmath.mexp(5, -(1 << 300), modulus) == pow(
                pow(5, -1, modulus), 1 << 300, modulus)
            # The uncounted checks pass unregistered bases: builtin pow.
            assert modmath.power(7, 1 << 300, modulus) == pow(
                7, 1 << 300, modulus)
        extra = rec.total().extra
        assert rec.total().modexp == 1
        assert extra.get("accel:fb-miss") == 1 and "accel:fb-hit" not in extra
        assert extra.get("inversions") == 1


def _seeded_room(world):
    """A seeded 4-party room: session keys, transcripts and every
    scope's books (``accel:*`` extras and wall time aside)."""
    members = world.lineup("alice", "bob", "carol", "dave")
    for member in members:
        batch.warm_member(member)
    rec = metrics.Recorder()
    with metrics.using(rec):
        outcomes = run_handshake(members, scheme1_policy(),
                                 rngs=[random.Random(61000 + i)
                                       for i in range(len(members))])
    assert all(o.success for o in outcomes)
    books = {scope: {k: v for k, v in counters.as_dict().items()
                     if k != "wall_time" and not k.startswith("accel:")}
             for scope, counters in rec.snapshot().items()}
    return ([o.session_key for o in outcomes],
            [o.transcript.entries for o in outcomes], books)


def test_room_identical_with_kernel(scheme1_world, gmp):
    """Accel off and the GMP kernel give the same keys, transcripts and
    books — ``inversions`` included."""
    plain = _seeded_room(scheme1_world)
    assert plain[2]["hs:0"]["inversions"] > 0
    state.configure(enabled=True)
    assert _seeded_room(scheme1_world) == plain
    assert fixed_base.stats()["tables"] == 0


def test_room_identical_with_fallback(scheme1_world, kernel_fallback):
    plain = _seeded_room(scheme1_world)
    state.configure(enabled=True)
    assert _seeded_room(scheme1_world) == plain
    assert fixed_base.stats()["hits"] > 0
