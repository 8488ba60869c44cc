"""Seeded pseudorandom total orders over candidate augmenting paths.

Each phase of the matching scheme needs its own ordering of all simple paths
of one fixed length, and the ordering must be reproducible from a small seed.
The construction: encode a path injectively as an integer ``x`` in a domain
of size ``n_dom = n ** (length + 1)``, then evaluate ``4 * ceil(log2(n_dom))``
independent degree-``(kappa - 1)`` polynomials over a prime field at ``x``
and concatenate one low-order bit per polynomial into the primary rank.  Any
``kappa`` distinct evaluation points of one polynomial are jointly uniform
over the field, which is what the query-locality analysis needs, and the bit
width makes rank collisions rare; remaining ties are broken by comparing the
canonical path tuples, so the result is a strict total order.  The field,
the copy count and ``kappa`` depend only on ``n`` and the phase length, so a
seed is fully described by its coefficients.

:func:`rank` returns a :class:`Rank` key that evaluates the primary bits on
demand, most significant first, and only as many as a comparison needs: two
ranks almost always differ within their top few bits, so most of the
polynomials are never evaluated.  :func:`primary_rank` is the eager
reference, evaluating every bit at once.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import islice, repeat
from typing import Iterable, NamedTuple

from .graph import _as_int

__all__ = [
    "Seed",
    "SeedSet",
    "init_seeds",
    "encode_path",
    "eval_poly",
    "primary_rank",
    "Rank",
    "rank",
    "seedset_to_blob",
    "seedset_from_blob",
]

# Fixed fallback prime (2^61 - 1) for domains too large for a word-sized
# field; path encodings are then folded into the field, a documented
# heuristic that trades exact injectivity for cheap arithmetic.
MERSENNE_61 = (1 << 61) - 1

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


def encode_path(p: tuple[int, ...], base: int) -> int:
    """Injective integer id of a canonical path over vertex ids below ``base``."""
    x = 0
    for v in p:
        x = x * base + v
    return x


def _into_field(x: int, modulus: int) -> int:
    if x < modulus:
        return x
    # Heuristic compression of an oversized encoding into the field.
    h = 0
    while x:
        h = (h * _FOLD_MULT + (x & MERSENNE_61)) % modulus
        x >>= 61
    return h


class _SeedFields(NamedTuple):
    base: int
    length: int
    modulus: int
    copies: tuple[tuple[int, ...], ...]


class Seed(_SeedFields):
    """Per-phase seed for the polynomial ordering.

    ``copies`` holds one coefficient vector per output bit, each of length
    ``kappa``, coefficients in ascending power order.
    """

    __slots__ = ()

    def __new__(cls, base: int, length: int, modulus: int, copies: tuple) -> Seed:
        if not copies:
            raise ValueError("seed needs at least one polynomial copy")
        if len({len(c) for c in copies}) != 1:
            raise ValueError("all polynomial copies must share one degree")
        return super().__new__(cls, base, length, modulus, copies)

    @classmethod
    def _make(cls, iterable) -> Seed:  # and so _replace: tuple.__new__ would skip the checks
        return cls(*iterable)

    def __reduce__(self):
        # Copies and unpickled seeds, under every pickle protocol, go
        # through __new__'s checks (protocols 0 and 1 would skip them).
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"Seed(base={self.base!r}, length={self.length!r}, modulus={self.modulus!r})"

    @property
    def kappa(self) -> int:
        return len(self.copies[0])

    @property
    def bit_width(self) -> int:
        return len(self.copies)

    def bit(self, x: int, j: int) -> int:
        """Bit ``j`` of the primary rank at field point ``x``: copy ``j``'s low bit."""
        return eval_poly(self.copies[j], x, self.modulus) & 1


class SeedSet(NamedTuple):
    """Seeds for every odd phase ``1, 3, ..., 2k - 1`` of one engine run."""

    k: int
    n: int
    phases: dict[int, Seed]

    def phase(self, ell: int) -> Seed:
        try:
            return self.phases[ell]
        except KeyError:
            raise ValueError(f"no seed for phase length {ell}") from None


def _phase_shape(n: int, ell: int) -> tuple[int, int, int]:
    """``(modulus, copy count, kappa)`` of the phase-``ell`` seed for ``n`` vertices."""
    n_dom = n ** (ell + 1)
    modulus = _next_prime(n_dom) if n_dom < (1 << 61) else MERSENNE_61
    return modulus, 4 * _ceil_log2(n_dom), max(2, math.ceil(4 * math.log2(n)))


def init_seeds(k: int, n: int, rng_seed: int) -> SeedSet:
    """Draw fresh per-phase seeds; deterministic in all arguments.

    Each argument is an integer, and ``rng_seed`` is non-negative: anything
    else is a ``ValueError``, never a silently different draw.

    Phase ``ell`` gets ``4 * ceil(log2(n ** (ell + 1)))`` polynomial copies of
    ``kappa = ceil(4 * log2(n))`` coefficients each.  Phases are drawn in
    ascending order from one stream, so the seeds of the first phases do not
    depend on ``k``.
    """
    k, n = _as_int(k, "k", 1), _as_int(n, "n", 2, sys.maxsize)
    # random.Random would hash a str, draw from the OS for None and drop a sign.
    draw = random.Random(_as_int(rng_seed, "seed", 0)).getrandbits
    phases: dict[int, Seed] = {}
    for ell in range(1, 2 * k, 2):
        modulus, copy_count, kappa = _phase_shape(n, ell)
        # randrange(modulus)'s own loop without its per-call overhead: draw
        # modulus.bit_length() bits until the value is below modulus.
        draws = map(draw, repeat(modulus.bit_length()))
        coeffs = list(islice(filter(modulus.__gt__, draws), copy_count * kappa))
        copies = tuple(tuple(coeffs[i : i + kappa]) for i in range(0, len(coeffs), kappa))
        phases[ell] = Seed(n, ell, modulus, copies)
    return SeedSet(k, n, phases)


def _check_length(p: tuple[int, ...], seed: Seed) -> None:
    if len(p) - 1 != seed.length:
        raise ValueError(
            f"path has length {len(p) - 1}, seed is for length {seed.length}"
        )


def primary_rank(p: tuple[int, ...], seed: Seed) -> int:
    """Pseudorandom integer rank of one path, before tie-breaking.

    Bit ``j`` is ``seed.bit(x, j)`` at the path's field point ``x``.
    """
    _check_length(p, seed)
    x = _into_field(encode_path(p, seed.base), seed.modulus)
    bits = 0
    for j in range(seed.bit_width):
        bits |= seed.bit(x, j) << j
    return bits


class Rank:
    """Order key of one path under one seed, evaluated lazily.

    ``a < b`` holds exactly when ``(primary_rank(a.path, seed), *a.path)``
    is below the same tuple of ``b``, so ``sorted`` orders keys like those
    tuples.  Construction only encodes the path into the field; ``bits``
    holds the top ``nbits`` primary bits evaluated so far, and a comparison
    extends them one bit at a time, most significant (``copies[-1]``)
    first, until the two keys differ.  ``<`` is the only comparison: callers
    key their caches by the path itself.  Comparing keys of different seeds
    is a ValueError.
    """

    __slots__ = ("path", "x", "seed", "bits", "nbits")

    def __init__(self, p: tuple[int, ...], seed: Seed) -> None:
        _check_length(p, seed)
        self.path = p
        self.x = _into_field(encode_path(p, seed.base), seed.modulus)
        self.seed = seed
        self.bits = 0
        self.nbits = 0

    def _prefix(self, m: int) -> int:
        """The top ``m`` primary bits, evaluating those still missing."""
        if self.nbits < m:
            seed, x, bits = self.seed, self.x, self.bits
            top = seed.bit_width - 1
            for j in range(top - self.nbits, top - m, -1):
                bits = bits << 1 | seed.bit(x, j)
            self.bits, self.nbits = bits, m
        return self.bits >> (self.nbits - m)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Rank):
            return NotImplemented
        if other.seed is not self.seed and other.seed != self.seed:
            raise ValueError("ranks under different seeds are not comparable")
        # Compare the prefixes both keys already hold, then extend both one
        # bit at a time: equal prefixes of length m - 1 make comparing the
        # length-m prefixes a compare of bit m.
        m = min(self.nbits, other.nbits)
        a = self.bits >> (self.nbits - m)
        b = other.bits >> (other.nbits - m)
        width = self.seed.bit_width
        while a == b:
            if m == width:
                return self.path < other.path
            m += 1
            a, b = self._prefix(m), other._prefix(m)
        return a < b


def rank(p: tuple[int, ...], seed: Seed) -> Rank:
    """Totally ordered rank: primary bits first, the path tuple as tie-break."""
    return Rank(p, seed)


_BLOB_VERSION = 1
# Written blobs inflate about 2x (JSON lists of random integers); inflating
# stops at this multiple of the compressed size, and a blob not done by then
# is refused.
_BLOB_MAX_INFLATION = 16


def _dump(payload) -> bytes:
    import json  # blob functions only: no query loads json or zlib

    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")


def _encode(seeds: SeedSet) -> bytes:
    """The JSON bytes a blob of ``seeds`` inflates to: the one definition of
    the blob format, which the reader re-encodes to check a blob against."""
    phases = {
        str(ell): {
            "base": s.base,
            "length": s.length,
            "modulus": s.modulus,
            "copies": [list(c) for c in s.copies],
        }
        for ell, s in sorted(seeds.phases.items())
    }
    # "mode" has one value; the field stays so that earlier blobs replay.
    return _dump(
        {"version": _BLOB_VERSION, "mode": "kwise", "k": seeds.k, "n": seeds.n,
         "phases": phases}
    )


def seedset_to_blob(seeds: SeedSet) -> str:
    """Hex blob carrying the full seed material for replayable runs."""
    import zlib

    return zlib.compress(_encode(seeds), level=6).hex()


def _malformed(why: str) -> ValueError:
    return ValueError(f"malformed seed blob: {why}")


def _inflate_hex(pieces: Iterable[str]) -> bytes:
    # One inflater fed piece by piece, so a blob that is not a zlib stream
    # fails at its first piece and output never passes the inflation cap of
    # the bytes read so far.  A piece may end between the two digits of a
    # byte; that digit waits for the next piece.
    import zlib

    inflater = zlib.decompressobj()
    out: list[bytes] = []
    read = produced = 0
    odd = ""
    for piece in pieces:
        piece = odd + "".join(piece.split())
        cut = len(piece) & ~1
        odd = piece[cut:]
        data = bytes.fromhex(piece[:cut])
        if not data or inflater.eof:
            continue  # bytes after the stream's end are ignored
        read += len(data)
        # read just grew, so the room is positive (0 would mean no limit).
        out.append(
            inflater.decompress(
                inflater.unconsumed_tail + data, _BLOB_MAX_INFLATION * read - produced
            )
        )
        produced += len(out[-1])
    if odd:
        raise ValueError("odd number of hex digits")
    if not inflater.eof:
        raise ValueError(f"truncated, or inflates past {_BLOB_MAX_INFLATION}x its size")
    return b"".join(out)


def seedset_from_blob(blob: str | Iterable[str]) -> SeedSet:
    """Inverse of :func:`seedset_to_blob`; any malformed blob is a ValueError.

    ``blob`` is the hex text, or its pieces in order (say, chunks of a file),
    which are inflated as they arrive.  Whitespace is ignored.  A blob is
    accepted only if its JSON holds exactly what :func:`seedset_to_blob`
    writes for the seed set it describes: the same keys, values and JSON
    types (``true`` is not ``1``, ``2.0`` is not ``2``), no key more or
    less.  Whitespace and key order inside the JSON may differ.
    """
    import json
    import zlib

    try:
        payload = json.loads(_inflate_hex((blob,) if isinstance(blob, str) else blob))
    except (ValueError, zlib.error) as exc:
        raise _malformed(str(exc)) from None
    if not isinstance(payload, dict):
        raise _malformed("payload is not an object")
    if payload.get("version") != _BLOB_VERSION:
        raise ValueError(f"unsupported seed blob version {payload.get('version')!r}")
    for name, low in (("k", 1), ("n", 2)):
        value = payload.get(name)
        if type(value) is not int or value < low:
            raise _malformed(f"missing, mistyped or too small {name!r}")
    k, n = payload["k"], payload["n"]
    phases: dict[int, Seed] = {}
    for ell in range(1, 2 * k, 2):
        # Read the entry before computing its shape: k is only as large as
        # the phases the blob holds.
        try:
            copies = payload["phases"][str(ell)]["copies"]
        except (KeyError, TypeError):
            raise _malformed(f"no copies for phase {ell}") from None
        modulus, copy_count, kappa = _phase_shape(n, ell)
        if not (
            isinstance(copies, list)
            and len(copies) == copy_count
            and all(isinstance(c, list) and len(c) == kappa for c in copies)
            and all(type(x) is int and 0 <= x < modulus for c in copies for x in c)
        ):
            raise _malformed(f"phase {ell} needs {copy_count} copies of {kappa} "
                             f"integers in [0, {modulus})")
        phases[ell] = Seed(n, ell, modulus, tuple(map(tuple, copies)))
    seeds = SeedSet(k, n, phases)
    if _dump(payload) != _encode(seeds):
        raise _malformed(f"fields differ from the blob written for k={k}, n={n}")
    return seeds
