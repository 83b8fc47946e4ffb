"""HMAC-DRBG and the simulated TRNG."""

import pytest

from repro.crypto.ec import P256
from repro.crypto.ecdsa import EcdsaKeyPair
from repro.crypto.rng import HmacDrbg, SimulatedTrng, device_drbg


class TestSimulatedTrng:
    def test_deterministic_per_seed(self):
        assert SimulatedTrng(b"s").read(32) == SimulatedTrng(b"s").read(32)

    def test_distinct_seeds_distinct_streams(self):
        assert SimulatedTrng(b"a").read(32) != SimulatedTrng(b"b").read(32)

    def test_ratchets_between_reads(self):
        trng = SimulatedTrng(b"s")
        assert trng.read(32) != trng.read(32)

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError):
            SimulatedTrng(b"")

    def test_arbitrary_lengths(self):
        assert len(SimulatedTrng(b"s").read(100)) == 100


class TestHmacDrbg:
    def test_reproducible(self):
        a = HmacDrbg(b"entropy", b"p").generate(48)
        b = HmacDrbg(b"entropy", b"p").generate(48)
        assert a == b

    def test_personalization_separates(self):
        assert HmacDrbg(b"e", b"p1").generate(32) != HmacDrbg(b"e", b"p2").generate(32)

    def test_sequential_outputs_differ(self):
        drbg = HmacDrbg(b"e")
        assert drbg.generate(32) != drbg.generate(32)

    def test_additional_input_changes_output(self):
        a = HmacDrbg(b"e").generate(32, additional=b"x")
        b = HmacDrbg(b"e").generate(32)
        assert a != b

    def test_reseed_changes_stream(self):
        d1 = HmacDrbg(b"e")
        d2 = HmacDrbg(b"e")
        d1.generate(16)
        d2.generate(16)
        d1.reseed(b"fresh")
        assert d1.generate(16) != d2.generate(16)

    def test_random_int_below_in_range(self):
        drbg = HmacDrbg(b"e")
        for bound in (1, 2, 255, 256, 10**9, 1 << 255):
            value = drbg.random_int_below(bound)
            assert 0 <= value < bound

    def test_random_int_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"e").random_int_below(0)

    def test_random_int_covers_small_range(self):
        drbg = HmacDrbg(b"cover")
        seen = {drbg.random_int_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_p256_outputs_unchanged_by_masking(self):
        # both in-tree callers draw below the 256-bit P-256 order, where
        # the simple-discard mask keeps every bit: these values were
        # produced by the unmasked sampler and must not move
        key = EcdsaKeyPair.generate(device_drbg(b"pin-device"))
        assert key.private == int(
            "abb9f02e95c958782d936f7261a735ca6a0878db2280d4336f28c784d6b36433", 16)
        scalar = HmacDrbg(b"latency-calibration").random_int_below(P256.n)
        assert scalar == int(
            "7bc34caf587f9804281101ad48c0cf4bcd53c94ddc099ddbf1d7e4e689ae5804", 16)

    def test_draws_are_masked_to_bound_bits(self):
        # a mask to bit_length(4) = 3 bits accepts half of all draws, so
        # 200 samples consume a few hundred one-byte draws, not ~12800
        drbg = HmacDrbg(b"cover")
        for _ in range(200):
            drbg.random_int_below(4)
        assert drbg.reseed_counter < 1000


def test_device_drbg_distinct_devices():
    assert device_drbg(b"dev-a").generate(16) != device_drbg(b"dev-b").generate(16)
