import itertools
import json
import math
import random
import tracemalloc
import zlib
from pathlib import Path

import pytest
import sympy

from lcamatch.graph import gen_random_bounded
from lcamatch.ordering import (
    _next_prime,
    Seed,
    SeedSet,
    encode_path,
    eval_poly,
    init_seeds,
    primary_rank,
    Rank,
    rank,
    seedset_from_blob,
    seedset_to_blob,
)

from conftest import batch_primary_ranks, simple_paths

DATA = Path(__file__).parent / "data"


def test_init_seeds_structure_k1_n2():
    ss = init_seeds(1, 2, 0)
    assert set(ss.phases) == {1}
    assert ss.k == 1 and ss.n == 2


def test_init_seeds_phases_for_k3():
    ss = init_seeds(3, 10, 5)
    assert set(ss.phases) == {1, 3, 5}
    assert len(ss.phases) == 3


def test_init_seeds_deterministic():
    a = init_seeds(2, 12, 99)
    b = init_seeds(2, 12, 99)
    assert a == b
    c = init_seeds(2, 12, 100)
    assert c != a


@pytest.mark.parametrize(
    "k, n, rng_seed",
    # n=4 and n=16 give moduli 17, 257 and 65537, each just above a power of
    # two, where draws are rejected nearly half the time; n=4096 reaches the
    # 2^61 - 1 fallback.
    [(1, 2, 0), (2, 4, 3), (3, 16, 5), (2, 50, 1), (3, 4096, 0)],
)
def test_init_seeds_draws_like_randrange(k, n, rng_seed):
    ss = init_seeds(k, n, rng_seed)
    ref = random.Random(rng_seed)
    for ell in range(1, 2 * k, 2):
        s = ss.phase(ell)
        assert s.copies == tuple(
            tuple(ref.randrange(s.modulus) for _ in range(s.kappa))
            for _ in range(s.bit_width)
        )
    assert seedset_from_blob(seedset_to_blob(ss)) == ss


def test_seed_and_seed_set_are_records():
    s = init_seeds(1, 8, 3).phase(1)
    twin = Seed(base=s.base, length=s.length, modulus=s.modulus, copies=s.copies)
    assert twin == s and hash(twin) == hash(s)
    assert Seed(s.base, s.length, s.modulus, s.copies[1:]) != s
    with pytest.raises(AttributeError):
        s.modulus = 7
    with pytest.raises(AttributeError):
        del s.copies
    assert s.modulus == twin.modulus
    with pytest.raises(ValueError, match="at least one"):
        Seed(8, 1, 257, ())
    with pytest.raises(ValueError, match="one degree"):
        Seed(8, 1, 257, ((1, 2), (3,)))
    # A seed set is mutable, so it compares by fields but does not hash.
    ss = init_seeds(2, 8, 3)
    assert SeedSet(2, 8, dict(ss.phases)) == ss != SeedSet(2, 8, {1: ss.phase(1)})
    with pytest.raises(TypeError):
        hash(ss)


def test_seed_shape_matches_construction():
    n = 50
    ss = init_seeds(2, n, 1)
    for ell, s in ss.phases.items():
        n_dom = n ** (ell + 1)
        assert s.bit_width == 4 * math.ceil(math.log2(n_dom))
        assert s.kappa == math.ceil(4 * math.log2(n))
        assert s.modulus > n_dom
        assert sympy.isprime(s.modulus)
        assert all(0 <= c < s.modulus for copy in s.copies for c in copy)


def test_large_domain_falls_back_to_mersenne():
    # n=4096, ell=5: domain 4096^6 = 2^72 exceeds the word-size cutoff
    ss = init_seeds(3, 4096, 0)
    assert ss.phases[5].modulus == (1 << 61) - 1
    assert ss.phases[3].modulus > 4096**4


def test_init_seeds_validation():
    with pytest.raises(ValueError):
        init_seeds(0, 4, 0)
    with pytest.raises(ValueError):
        init_seeds(1, 1, 0)


def test_eval_poly_hand_example():
    # 1 + 1*3 mod 5
    assert eval_poly((1, 1), 3, 5) == 4


def test_rank_hand_example_low_bit():
    s = Seed(base=5, length=1, modulus=5, copies=((1, 1),))
    assert primary_rank((0, 3), s) == 0  # encodes to 3, value 4, low bit 0
    assert primary_rank((0, 2), s) == 1  # encodes to 2, value 3, low bit 1


def test_encode_path_injective_on_small_domain():
    g = gen_random_bounded(12, 3, 3)
    seen = {}
    for p in simple_paths(g, 3):
        x = encode_path(p, 12)
        assert x not in seen
        assert x < 12**4
        seen[x] = p


def test_rank_deterministic():
    ss = init_seeds(1, 8, 5)
    a, b = rank((2, 3), ss.phases[1]), rank((2, 3), ss.phases[1])
    assert not a < b and not b < a
    # the tie ran through every bit, and both keys drew the same ones
    assert (a.bits, a.nbits) == (b.bits, b.nbits)
    assert a.nbits == ss.phases[1].bit_width


def test_all_zero_copies_force_tie_break():
    s = Seed(base=6, length=1, modulus=7, copies=((0, 0), (0, 0)))
    p, q = (0, 1), (1, 2)
    assert primary_rank(p, s) == primary_rank(q, s) == 0
    assert rank(p, s) < rank(q, s)  # lexicographic key decides
    assert not rank(q, s) < rank(p, s)


def _eager_key(seed):
    return lambda p: (primary_rank(p, seed), *p)


def _with_zero_top_copies(seed, m):
    zero = (0,) * seed.kappa
    copies = seed.copies[: seed.bit_width - m] + (zero,) * m
    return Seed(seed.base, seed.length, seed.modulus, copies)


def test_lazy_rank_sorts_like_the_eager_tuple():
    g = gen_random_bounded(8, 3, 5)
    by_phase = {ell: simple_paths(g, ell) for ell in (1, 3, 5)}
    shuffler = random.Random(4)
    for rng_seed in range(50):
        ss = init_seeds(3, 8, rng_seed)
        for ell, paths in by_phase.items():
            seed = ss.phase(ell)
            # top m copies all zero tie the first m bits; m = bit_width
            # ties the whole primary, leaving the path tie-break
            m = rng_seed % 8 if rng_seed < 40 else seed.bit_width
            for s in (seed, _with_zero_top_copies(seed, m)):
                expected = sorted(paths, key=_eager_key(s))
                keys = {p: rank(p, s) for p in paths}
                # the second sort meets keys evaluated to different depths
                for _ in range(2):
                    shuffler.shuffle(paths)
                    assert sorted(paths, key=keys.__getitem__) == expected
                assert all(0 < k.nbits <= s.bit_width for k in keys.values())
            if m == seed.bit_width:
                assert expected == sorted(paths)


def test_lazy_rank_order_and_seed_check():
    ss = init_seeds(2, 8, 5)
    s = ss.phase(1)
    p, q = (0, 1), (1, 2)
    assert isinstance(rank(p, s), Rank)
    assert not rank(p, s) < rank(p, s)
    assert (rank(p, s) < rank(q, s)) == (_eager_key(s)(p) < _eager_key(s)(q))
    # an equal seed drawn separately orders the same way
    twin = init_seeds(2, 8, 5).phase(1)
    assert twin is not s
    assert (rank(p, s) < rank(q, twin)) == (rank(p, s) < rank(q, s))
    other = init_seeds(2, 8, 6).phase(1)
    with pytest.raises(ValueError, match="different seeds"):
        rank(p, s) < rank(q, other)
    with pytest.raises(ValueError, match="length"):
        rank((0, 1, 2, 3), s)


def test_rank_rejects_wrong_length():
    ss = init_seeds(2, 8, 5)
    with pytest.raises(ValueError, match="length"):
        primary_rank((0, 1), ss.phases[3])


def test_precedes_totality_and_transitivity():
    g = gen_random_bounded(14, 3, 11)
    ss = init_seeds(2, 14, 17)
    s = ss.phases[3]
    paths = simple_paths(g, 3)
    assert len(paths) >= 8
    for p, q in itertools.combinations(paths[:12], 2):
        assert (rank(p, s) < rank(q, s)) != (rank(q, s) < rank(p, s))
    rng = random.Random(0)
    for _ in range(300):
        p, q, r = rng.sample(paths, 3)
        if rank(p, s) < rank(q, s) and rank(q, s) < rank(r, s):
            assert rank(p, s) < rank(r, s)


def test_pairwise_uniformity_exhaustive_mod7():
    # degree-1 polynomials over F_7: for any x1 != x2 the output pair takes
    # every value in F_7 x F_7 exactly once across all 49 coefficient vectors
    for x1, x2 in itertools.combinations(range(7), 2):
        counts = {}
        for a0 in range(7):
            for a1 in range(7):
                pair = (eval_poly((a0, a1), x1, 7), eval_poly((a0, a1), x2, 7))
                counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 49
        assert set(counts.values()) == {1}


def test_vectorized_ranks_match_scalar():
    g = gen_random_bounded(50, 3, 21)
    paths = simple_paths(g, 3)[:200]
    ss = init_seeds(2, 50, 9)
    s = ss.phases[3]
    assert s.modulus < (1 << 31)
    assert batch_primary_ranks(paths, s) == [primary_rank(p, s) for p in paths]
    # acceptance 9's case: n=50, phase 3, over many seeds
    for rng_seed in range(20):
        s = init_seeds(2, 50, rng_seed).phase(3)
        assert batch_primary_ranks(paths, s) == [primary_rank(p, s) for p in paths]


def test_blob_round_trip_kwise():
    ss = init_seeds(2, 9, 77)
    blob = seedset_to_blob(ss)
    assert set(blob) <= set("0123456789abcdef")
    assert seedset_from_blob(blob) == ss


def test_blob_in_pieces_equals_blob_whole():
    # A file is inflated chunk by chunk; a chunk may end between the two
    # digits of a byte, and whitespace anywhere is dropped.
    ss = init_seeds(3, 64, 5)
    blob = seedset_to_blob(ss)
    for size in (1, 7, 4096):
        pieces = [blob[i : i + size] + "\n" for i in range(0, len(blob), size)]
        assert seedset_from_blob(iter(pieces)) == ss
    with pytest.raises(ValueError, match="malformed seed blob: odd number"):
        seedset_from_blob(iter([blob, "a"]))
    with pytest.raises(ValueError, match="malformed seed blob: truncated"):
        seedset_from_blob(iter([blob[: len(blob) // 4 * 2]]))


def test_blob_from_earlier_version_replays_bit_identical():
    # written by the release that still drew seeds as init_seeds(2, 9, 3, 77)
    blob = (DATA / "seeds-k2-n9-rng77.hex").read_text().strip()
    ss = seedset_from_blob(blob)
    assert ss == init_seeds(2, 9, 77)
    assert seedset_to_blob(ss) == blob


def test_blob_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        seedset_from_blob("zz")
    with pytest.raises(ValueError, match="malformed"):
        seedset_from_blob("00ff00")


def test_blob_that_inflates_without_bound_is_refused_at_the_cap():
    # 64 MiB of spaces deflate to ~65 KB; the blob is malformed either way,
    # but it must be refused before it is inflated in full
    deflater = zlib.compressobj(9)
    chunk = b" " * (1 << 20)
    data = b"".join(deflater.compress(chunk) for _ in range(64)) + deflater.flush()
    blob = data.hex()
    # whole, then in 64 KiB pieces: the cap follows the bytes read so far
    for given in (blob, (blob[i : i + 2**16] for i in range(0, len(blob), 2**16))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="malformed seed blob"):
                seedset_from_blob(given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_next_prime_matches_sympy_on_every_seed_domain():
    for ell in (1, 3, 5):
        for n in range(2, 4097):
            x = n ** (ell + 1)
            if x >= 1 << 61:
                break
            assert _next_prime(x) == sympy.nextprime(x), (n, ell)


def test_next_prime_matches_sympy_on_random_values():
    rng = random.Random(2013)
    for bits in range(2, 62):
        for _ in range(20):
            x = rng.randrange(1 << (bits - 1), 1 << bits)
            assert _next_prime(x) == sympy.nextprime(x), x


def _blob_of(payload) -> str:
    return zlib.compress(json.dumps(payload).encode("ascii")).hex()


def _good_payload() -> dict:
    ss = init_seeds(2, 6, 3)
    return json.loads(zlib.decompress(bytes.fromhex(seedset_to_blob(ss))))


def _edit(fn):
    payload = _good_payload()
    fn(payload)
    return payload


# A blob of the retired keyed-hash ordering, as earlier versions wrote it.
_RANDOM_MODE_PAYLOAD = {
    "version": 1,
    "mode": "random",
    "k": 1,
    "n": 6,
    "phases": {"1": {"base": 6, "length": 1, "key": "00" * 32}},
}


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2, 3],
        {"version": 1, "k": 1, "n": 4},
        _edit(lambda p: p.update(mode=3)),
        _edit(lambda p: p.update(mode="bogus")),
        _edit(lambda p: p.pop("k")),
        _edit(lambda p: p.update(k="2")),
        _edit(lambda p: p.pop("n")),
        _edit(lambda p: p.update(n=6.0)),
        _edit(lambda p: p.pop("phases")),
        _edit(lambda p: p.update(phases=[])),
        _edit(lambda p: p["phases"]["1"].pop("copies")),
        _edit(lambda p: p["phases"].update({"1": "seed"})),
        _edit(lambda p: p["phases"]["3"].update(length=1)),
        _RANDOM_MODE_PAYLOAD,
        _edit(lambda p: p["phases"]["1"].update(modulus=0)),
        _edit(lambda p: p["phases"]["3"].update(modulus=p["phases"]["3"]["modulus"] + 2)),
        _edit(lambda p: p["phases"]["1"].update(base=5)),
        _edit(lambda p: p["phases"]["3"]["copies"][0].__setitem__(
            0, p["phases"]["3"]["modulus"])),
        _edit(lambda p: p["phases"]["3"]["copies"][1].pop()),
        _edit(lambda p: p["phases"]["3"]["copies"].pop()),
        _edit(lambda p: [c.pop() for c in p["phases"]["1"]["copies"]]),
        _edit(lambda p: p["phases"].pop("3")),
        _edit(lambda p: p["phases"].update({"5": p["phases"]["3"]})),
        _edit(lambda p: p["phases"].update({"5": p["phases"].pop("3")})),
        _edit(lambda p: p.update(k=0)),
        _edit(lambda p: p.update(n=1)),
        _edit(lambda p: p["phases"]["3"]["copies"][0].__setitem__(
            0, p["phases"]["3"]["copies"][0][0] + 0.9)),
        _edit(lambda p: p["phases"]["3"]["copies"][0].__setitem__(
            0, str(p["phases"]["3"]["copies"][0][0]))),
        _edit(lambda p: p["phases"]["3"].update(modulus=p["phases"]["3"]["modulus"] + 0.5)),
        _edit(lambda p: p["phases"]["1"].update(length="1")),
        _edit(lambda p: p["phases"]["1"].update(length=True)),
        _edit(lambda p: p["phases"]["1"]["copies"][0].__setitem__(0, True)),
    ],
)
def test_blob_rejects_malformed_payload(payload):
    with pytest.raises(ValueError, match="malformed seed blob"):
        seedset_from_blob(_blob_of(payload))
