"""Seeded pseudorandom total orders over candidate augmenting paths.

Each phase of the matching scheme needs its own ordering of all simple paths
of one fixed length, and the ordering must be reproducible from a small seed.
The construction: encode a path injectively as an integer ``x`` in a domain
of size ``n_dom = n ** (length + 1)``, then evaluate ``4 * ceil(log2(n_dom))``
independent degree-``(kappa - 1)`` polynomials over a prime field at ``x``
and concatenate one low-order bit per polynomial into the primary rank.  Any
``kappa`` distinct evaluation points of one polynomial are jointly uniform
over the field, which is what the query-locality analysis needs, and the bit
width makes rank collisions rare; remaining ties are broken by canonical-key
order, so the result is a strict total order.

A second mode replaces the polynomials with a keyed hash, giving a
full-random ordering with the same interface.  It exists for differential
testing against the structured construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import zlib
from dataclasses import dataclass, field

import numpy as np

from .paths import PathKey

__all__ = [
    "Seed",
    "RandomSeed",
    "SeedSet",
    "init_seeds",
    "encode_path",
    "eval_poly",
    "primary_rank",
    "primary_ranks",
    "rank",
    "precedes",
    "seedset_to_blob",
    "seedset_from_blob",
]

# Fixed fallback prime (2^61 - 1) for domains too large for a word-sized
# field; path encodings are then folded into the field, a documented
# heuristic that trades exact injectivity for cheap arithmetic.
MERSENNE_61 = (1 << 61) - 1

# Fields smaller than this make int64 Horner evaluation overflow-safe.
_VECTOR_MOD_LIMIT = 1 << 31

_FOLD_MULT = 0x9E3779B97F4A7C15

# Miller-Rabin with these witnesses is exact for every n below 3.3 * 10**24,
# which covers all moduli drawn here (below 2^61).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(x: int) -> int:
    """Smallest prime strictly greater than ``x``."""
    n = x + 1
    while not _is_prime(n):
        n += 1
    return n


def _ceil_log2(x: int) -> int:
    if x < 2:
        return 1
    return (x - 1).bit_length()


def eval_poly(coeffs: tuple[int, ...], x: int, modulus: int) -> int:
    """Evaluate ``sum(coeffs[i] * x**i)`` in the field, Horner style."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def encode_path(p: PathKey, base: int) -> int:
    """Injective integer id of a canonical path over vertex ids below ``base``."""
    x = 0
    for v in p:
        x = x * base + v
    return x


def _fold_into_field(x: int, modulus: int) -> int:
    # Heuristic compression of an oversized encoding into the field.
    h = 0
    while x:
        h = (h * _FOLD_MULT + (x & MERSENNE_61)) % modulus
        x >>= 61
    return h


@dataclass(frozen=True)
class Seed:
    """Per-phase seed for the polynomial ordering.

    ``copies`` holds one coefficient vector per output bit, each of length
    ``kappa``, coefficients in ascending power order.
    """

    base: int
    length: int
    modulus: int
    copies: tuple[tuple[int, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.copies:
            raise ValueError("seed needs at least one polynomial copy")
        widths = {len(c) for c in self.copies}
        if len(widths) != 1:
            raise ValueError("all polynomial copies must share one degree")

    @property
    def kappa(self) -> int:
        return len(self.copies[0])

    @property
    def bit_width(self) -> int:
        return len(self.copies)

    def rank_of_encoding(self, x: int) -> int:
        if x >= self.modulus:
            x = _fold_into_field(x, self.modulus)
        bits = 0
        for j, coeffs in enumerate(self.copies):
            bits |= (eval_poly(coeffs, x, self.modulus) & 1) << j
        return bits


@dataclass(frozen=True)
class RandomSeed:
    """Per-phase seed for the keyed-hash (full-random) ordering."""

    base: int
    length: int
    key: bytes

    @property
    def bit_width(self) -> int:
        return 128

    def rank_of_encoding(self, x: int) -> int:
        data = x.to_bytes((x.bit_length() + 7) // 8 or 1, "little")
        digest = hashlib.blake2b(data, key=self.key, digest_size=16).digest()
        return int.from_bytes(digest, "little")


PhaseSeed = Seed | RandomSeed


@dataclass(eq=True)
class SeedSet:
    """Seeds for every odd phase ``1, 3, ..., 2k - 1`` of one engine run."""

    k: int
    n: int
    mode: str
    phases: dict[int, PhaseSeed]

    def phase(self, ell: int) -> PhaseSeed:
        try:
            return self.phases[ell]
        except KeyError:
            raise ValueError(f"no seed for phase length {ell}") from None


def init_seeds(
    k: int,
    n: int,
    d: int,
    rng_seed: int,
    *,
    c: float = 4.0,
    mode: str = "kwise",
) -> SeedSet:
    """Draw fresh per-phase seeds; deterministic in all arguments.

    ``kappa = ceil(c * log2(n))`` coefficients per polynomial and
    ``4 * ceil(log2(n ** (ell + 1)))`` polynomial copies per phase.  ``d`` is
    accepted so call sites hand over the full problem context, but the
    construction itself depends only on ``n`` and ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if d < 1:
        raise ValueError(f"degree bound must be at least 1, got {d}")
    if mode not in ("kwise", "random"):
        raise ValueError(f"unknown ordering mode {mode!r}")
    rng = random.Random(rng_seed)
    kappa = max(2, math.ceil(c * math.log2(n)))
    phases: dict[int, PhaseSeed] = {}
    for ell in range(1, 2 * k, 2):
        if mode == "random":
            phases[ell] = RandomSeed(n, ell, rng.getrandbits(256).to_bytes(32, "big"))
            continue
        n_dom = n ** (ell + 1)
        copy_count = 4 * _ceil_log2(n_dom)
        if n_dom < (1 << 61):
            modulus = _next_prime(n_dom)
        else:
            modulus = MERSENNE_61
        copies = tuple(
            tuple(rng.randrange(modulus) for _ in range(kappa))
            for _ in range(copy_count)
        )
        phases[ell] = Seed(n, ell, modulus, copies)
    return SeedSet(k, n, mode, phases)


def primary_rank(p: PathKey, seed: PhaseSeed) -> int:
    """Pseudorandom integer rank of one path, before tie-breaking."""
    if p.length != seed.length:
        raise ValueError(
            f"path has length {p.length}, seed is for length {seed.length}"
        )
    return seed.rank_of_encoding(encode_path(p, seed.base))


def primary_ranks(paths: list[PathKey], seed: PhaseSeed) -> list[int]:
    """Primary ranks of many paths; vectorized when the field fits in int64."""
    if (
        isinstance(seed, Seed)
        and seed.modulus < _VECTOR_MOD_LIMIT
        and len(paths) > 1
    ):
        xs = np.fromiter(
            (encode_path(p, seed.base) for p in paths),
            dtype=np.int64,
            count=len(paths),
        )
        m = seed.modulus
        bits = np.empty((len(paths), seed.bit_width), dtype=np.uint8)
        for j, coeffs in enumerate(seed.copies):
            acc = np.zeros(len(paths), dtype=np.int64)
            for coef in reversed(coeffs):
                acc = (acc * xs + coef) % m
            bits[:, j] = (acc & 1).astype(np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]
    return [primary_rank(p, seed) for p in paths]


def rank(p: PathKey, seed: PhaseSeed) -> tuple[int, ...]:
    """Totally ordered rank: primary integer first, canonical key as tie-break."""
    return (primary_rank(p, seed), *p)


def precedes(p: PathKey, q: PathKey, seed: PhaseSeed) -> bool:
    """Strict order between two distinct paths of the seed's phase length."""
    if p == q:
        raise ValueError("precedes needs two distinct paths")
    if p.length != q.length:
        raise ValueError(
            f"paths of different lengths {p.length} and {q.length} are not comparable"
        )
    return rank(p, seed) < rank(q, seed)


_BLOB_VERSION = 1


def seedset_to_blob(seeds: SeedSet) -> str:
    """Hex blob carrying the full seed material for replayable runs."""
    phases: dict[str, dict] = {}
    for ell, s in sorted(seeds.phases.items()):
        if isinstance(s, Seed):
            phases[str(ell)] = {
                "base": s.base,
                "length": s.length,
                "modulus": s.modulus,
                "copies": [list(c) for c in s.copies],
            }
        else:
            phases[str(ell)] = {
                "base": s.base,
                "length": s.length,
                "key": s.key.hex(),
            }
    payload = {
        "version": _BLOB_VERSION,
        "mode": seeds.mode,
        "k": seeds.k,
        "n": seeds.n,
        "phases": phases,
    }
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")
    return zlib.compress(raw, level=6).hex()


def _malformed(why: str) -> ValueError:
    return ValueError(f"malformed seed blob: {why}")


def _phase_from_blob(mode: str, entry) -> PhaseSeed:
    if mode == "kwise":
        return Seed(
            int(entry["base"]),
            int(entry["length"]),
            int(entry["modulus"]),
            tuple(tuple(int(x) for x in c) for c in entry["copies"]),
        )
    return RandomSeed(
        int(entry["base"]), int(entry["length"]), bytes.fromhex(entry["key"])
    )


def seedset_from_blob(blob: str) -> SeedSet:
    """Inverse of :func:`seedset_to_blob`; any malformed blob is a ValueError."""
    try:
        raw = zlib.decompress(bytes.fromhex(blob))
        payload = json.loads(raw)
    except (ValueError, zlib.error) as exc:
        raise _malformed(str(exc)) from None
    if not isinstance(payload, dict):
        raise _malformed("payload is not an object")
    if payload.get("version") != _BLOB_VERSION:
        raise ValueError(f"unsupported seed blob version {payload.get('version')!r}")
    mode = payload.get("mode")
    if mode not in ("kwise", "random"):
        raise _malformed(f"missing or unknown mode {mode!r}")
    for name in ("k", "n"):
        if type(payload.get(name)) is not int:
            raise _malformed(f"missing or mistyped {name!r}")
    entries = payload.get("phases")
    if not isinstance(entries, dict):
        raise _malformed("missing or mistyped 'phases'")
    phases: dict[int, PhaseSeed] = {}
    for key, entry in entries.items():
        try:
            ell = int(key)
            seed = _phase_from_blob(mode, entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(f"phase {key!r}: {exc!r}") from None
        if seed.length != ell:
            raise _malformed(f"phase {key!r} has length {seed.length}")
        phases[ell] = seed
    return SeedSet(payload["k"], payload["n"], mode, phases)
