"""Known-answer tests: fixed seeds reproduce the published outputs."""

from qaoa_maxcut.seeding import SplitMix64, fnv1a64


def test_splitmix64_matches_the_reference_outputs():
    # First five outputs of the reference SplitMix64 for seed 1234567.
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_seed_zero():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_fnv1a64_standard_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8
