"""Tripwire: without GMP, every registered-base term of a scheme-1
signature is served by its fixed-base table; with GMP, none is.

The table tests run under ``kernel_fallback`` (the kernel path a machine
without libgmp takes).  Once the tables are warm, one ACJT ``gsig_sign`` books exactly 22
``accel:fb-hit`` and one ``gsig_verify`` exactly 15 — one per term of
the sign commitments / of ``acjt.spk_d_terms`` whose base is a long-lived
registered base (the public-key and Pedersen bases, the accumulator
value), whatever the sign of its exponent.  A future term that slips
past the tables fails here instead of showing up only as an unexplained
slowdown.  The guarded ``modexp`` / ``inversions`` books must match the
accel-off run exactly.  The kernel twins pin the same books on the GMP
path, which builds and consults no table at all.
"""

import random

import pytest

from repro import metrics
from repro.accel import batch, fixed_base, kernel, state
from repro.core import wire
from repro.gsig import acjt

MESSAGE = b"table-coverage"
SIGN_TERMS, SIGN_TABLE_TERMS = 26, 22
VERIFY_TERMS, VERIFY_TABLE_TERMS = 23, 15


@pytest.fixture
def signer_verifier(scheme1_world, kernel_fallback):
    """Two members with their long-lived bases registered and every
    table they need already built by a warm-up sign and verify."""
    yield from _warm(scheme1_world)


@pytest.fixture
def gmp_signer_verifier(scheme1_world):
    """The same warm pair on the GMP kernel path."""
    if kernel.loaded() is None:
        pytest.skip("the system GMP library is not available")
    yield from _warm(scheme1_world)


def _warm(scheme1_world):
    state.configure(enabled=True, window=5, cache_size=64)
    fixed_base.clear()
    signer, verifier = scheme1_world.lineup("alice", "bob")
    for member in (signer, verifier):
        batch.warm_member(member)
    blob = signer.gsig_sign(MESSAGE, random.Random(0))
    assert verifier.gsig_verify(MESSAGE, blob)
    yield signer, verifier
    state.configure(enabled=False, window=5, cache_size=64)
    fixed_base.clear()


def _run(call):
    rec = metrics.Recorder()
    with metrics.using(rec):
        value = call()
    total = rec.total()
    books = (total.modexp, total.extra.get("inversions", 0))
    return value, books, total.extra


def test_sign_serves_every_registered_term(signer_verifier):
    signer, _ = signer_verifier
    blob, books, extra = _run(
        lambda: signer.gsig_sign(MESSAGE, random.Random(1)))
    assert extra.get("accel:fb-hit") == SIGN_TABLE_TERMS
    assert "accel:fb-miss" not in extra
    state.configure(enabled=False)
    plain_blob, plain_books, _ = _run(
        lambda: signer.gsig_sign(MESSAGE, random.Random(1)))
    assert blob == plain_blob
    assert books == plain_books
    assert books[0] == SIGN_TERMS


def test_verify_serves_every_registered_term(signer_verifier):
    signer, verifier = signer_verifier
    blob = signer.gsig_sign(MESSAGE, random.Random(2))
    ok, books, extra = _run(lambda: verifier.gsig_verify(MESSAGE, blob))
    assert ok
    assert extra.get("accel:fb-hit") == VERIFY_TABLE_TERMS
    assert "accel:fb-miss" not in extra
    terms = [term
             for d_terms in acjt.spk_d_terms(
                 verifier.info.gsig_public_key,
                 wire.signature_from_bytes(blob), verifier.gsig_view())
             for term in d_terms]
    assert books == (VERIFY_TERMS, sum(e < 0 for _, e in terms))
    assert len(terms) == VERIFY_TERMS
    state.configure(enabled=False)
    assert _run(lambda: verifier.gsig_verify(MESSAGE, blob))[:2] == (
        True, books)


def test_kernel_sign_books_match_accel_off(gmp_signer_verifier):
    signer, _ = gmp_signer_verifier
    blob, books, extra = _run(
        lambda: signer.gsig_sign(MESSAGE, random.Random(1)))
    assert not {"accel:fb-hit", "accel:fb-miss"} & set(extra)
    state.configure(enabled=False)
    plain_blob, plain_books, _ = _run(
        lambda: signer.gsig_sign(MESSAGE, random.Random(1)))
    assert blob == plain_blob
    assert books == plain_books
    assert books[0] == SIGN_TERMS


def test_kernel_verify_books_match_accel_off(gmp_signer_verifier):
    signer, verifier = gmp_signer_verifier
    blob = signer.gsig_sign(MESSAGE, random.Random(2))
    ok, books, extra = _run(lambda: verifier.gsig_verify(MESSAGE, blob))
    assert ok
    assert not {"accel:fb-hit", "accel:fb-miss"} & set(extra)
    assert books[0] == VERIFY_TERMS
    state.configure(enabled=False)
    assert _run(lambda: verifier.gsig_verify(MESSAGE, blob))[:2] == (
        True, books)
    assert fixed_base.stats()["tables"] == 0
