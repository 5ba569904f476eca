"""k-wise independent hash families over a Mersenne prime field.

Streaming sketches need limited-independence hash functions whose
description fits in a few words: CountMin needs pairwise independence,
CountSketch needs 4-wise, and the p-stable sketch of [JW19] needs
``O(log(1/eps)/log log(1/eps))``-wise independence.  The standard
construction is a random degree-``(k-1)`` polynomial over ``GF(P)`` with
``P = 2^61 - 1`` (a Mersenne prime, enabling fast modular reduction).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

#: Mersenne prime 2^61 - 1; universe items must be < MERSENNE_P.
MERSENNE_P = (1 << 61) - 1

_P64 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64((1 << 32) - 1)
_MASK29 = np.uint64((1 << 29) - 1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)


def _domain_error(x) -> str:
    return f"hash input {x} is outside [0, 2^61 - 1)"


def _reduce_many(x: np.ndarray) -> np.ndarray:
    """Canonical residue mod ``P`` of every value of a ``uint64`` array.

    One fold leaves ``(x & P) + (x >> 61) <= P + 7``; the wrapped
    ``x - P`` is below ``x`` exactly when ``x >= P``, so the minimum
    of the two is the residue.  Valid for *any* ``uint64``, which lets
    a Horner step add its coefficient before its single reduction.
    """
    x = (x & _P64) + (x >> _U61)
    return np.minimum(x, x - _P64)


def _fold_many(low: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """``low + mid * 2^32`` folded mod ``P`` to a ``uint64 < 2^62 + 2^34``
    (``low < 2^64``, ``mid < 2^62``): ``mid_hi * 2^61 ≡ mid_hi`` and
    ``low_hi * 2^61 ≡ low_hi``."""
    return (
        (mid >> _U29)
        + ((mid & _MASK29) << _U32)
        + (low & _P64)
        + (low >> _U61)
    )


def _mulmod_narrow(a, x: np.ndarray) -> np.ndarray:
    """Unreduced ``a * x mod (2^61 - 1)`` for residues ``a`` (array or
    scalar) and ``x < 2^32``; the result is ``< 2^62 + 2^33``.

    With ``a = a1*2^32 + a0`` the product is ``a0*x + a1*x*2^32``:
    ``a0*x < 2^64`` and ``a1*x < 2^61``, so the high limb of ``x``
    and its two partial products never appear.
    """
    return _fold_many((a & _MASK32) * x, (a >> _U32) * x)


def _mulmod_many(a, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Unreduced ``a * x mod (2^61 - 1)`` for residues ``a`` and
    ``x = x1*2^32 + x0 < 2^61``; the result is ``< 3 * 2^61 + 2^34``.

    The 122-bit product never materializes: every partial product fits
    ``uint64`` — ``a0*x0 < 2^64``, ``a1*x0 + a0*x1 < 2^62``,
    ``a1*x1 < 2^58`` — and the powers of two fold down via
    ``2^64 ≡ 8`` and ``2^61 ≡ 1`` (mod ``P``).
    """
    a0 = a & _MASK32
    a1 = a >> _U32
    return ((a1 * x1) << _U3) + _fold_many(a0 * x0, a1 * x0 + a0 * x1)


class KWiseHash:
    """A k-wise independent hash function ``h: [P] -> [P]``.

    Parameters
    ----------
    k:
        Independence level (polynomial degree ``k - 1``); ``k >= 1``.
    seed:
        Seeds the coefficient draw; runs with equal seeds share the
        hash function (needed for nested subsampling across levels).
    rng:
        Optional explicit PRNG; overrides ``seed``.
    """

    __slots__ = ("k", "_coeffs", "_coeffs_u64")

    def __init__(
        self,
        k: int,
        seed: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"independence level k must be >= 1: {k}")
        if rng is None:
            rng = random.Random(seed)
        self.k = k
        # Leading coefficient non-zero so the polynomial has exact degree
        # k-1; the remaining coefficients are uniform in GF(P).
        coeffs = [rng.randrange(MERSENNE_P) for _ in range(k - 1)]
        coeffs.append(rng.randrange(1, MERSENNE_P))
        # Stored leading coefficient first, in Horner order.
        coeffs.reverse()
        self._coeffs: Sequence[int] = tuple(coeffs)
        self._coeffs_u64 = tuple(np.uint64(c) for c in coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate the polynomial at ``x`` by Horner's rule, starting
        at the leading coefficient.

        Raises :class:`ValueError` for ``x`` outside ``[0, P)``.
        """
        if not 0 <= x < MERSENNE_P:
            raise ValueError(_domain_error(x))
        coeffs = self._coeffs
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = (acc * x + c) % MERSENNE_P
        return acc

    def many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__`: hash a whole ``int64`` chunk.

        Returns a ``uint64`` array with ``many(xs)[i] == self(xs[i])``
        exactly (same Horner recurrence, canonical residues), which the
        chunked kernels' bit-identity to the scalar path rests on.  Each
        step adds its coefficient to the unreduced product and reduces
        once.  The chunk's maximum picks the multiply: the narrow
        one-limb path below ``2^32``, the full two-limb one otherwise.
        The same maximum rejects a chunk holding an item outside
        ``[0, P)`` with :class:`ValueError` (negatives wrap to
        ``>= 2^63``), so a kernel that hashes before it writes refuses
        the chunk whole.
        """
        x = np.asarray(xs).astype(np.uint64)
        if not len(x):
            return x
        top = x.max()
        if top >= _P64:
            raise ValueError(_domain_error(np.asarray(xs)[x >= _P64][0]))
        acc, *rest = self._coeffs_u64
        if not rest:
            return np.full(len(x), acc)
        if top <= _MASK32:
            for c in rest:
                acc = _reduce_many(_mulmod_narrow(acc, x) + c)
        else:
            x0 = x & _MASK32
            x1 = x >> _U32
            for c in rest:
                acc = _reduce_many(_mulmod_many(acc, x0, x1) + c)
        return acc

    def unit(self, x: int) -> float:
        """Hash into ``[0, 1)`` (uniform under k-wise independence)."""
        return self(x) / MERSENNE_P

    def unit_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`unit`.

        Caveat: hashes exceed 2^53, so ``uint64 -> float64`` rounding
        may differ from Python's correctly-rounded ``int / int`` by one
        ulp — callers comparing against scalar :meth:`unit` values must
        leave a relative slack (see the KMV candidate pre-pass).
        """
        return self.many(xs) / MERSENNE_P

    def bucket(self, x: int, num_buckets: int) -> int:
        """Hash into ``range(num_buckets)``."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        return self(x) % num_buckets

    def bucket_many(self, xs: np.ndarray, num_buckets: int) -> np.ndarray:
        """Vectorized :meth:`bucket`; returns an ``int64`` array."""
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        return (self.many(xs) % np.uint64(num_buckets)).astype(np.int64)

    def sign(self, x: int) -> int:
        """Hash into ``{-1, +1}`` (for CountSketch-style sketches)."""
        return 1 if self(x) & 1 else -1

    def sign_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sign`; returns an ``int64`` array of ±1."""
        odd = (self.many(xs) & np.uint64(1)).astype(np.int64)
        return 2 * odd - 1

    @property
    def description_words(self) -> int:
        """Words needed to store the hash function (its coefficients)."""
        return self.k


def hash_to_unit(seed: int, *parts: int) -> float:
    """Deterministic pseudo-uniform ``[0,1)`` value from ``(seed, parts)``.

    Used to derandomize per-(row, item) random variates: the same
    ``(seed, parts)`` tuple always yields the same value, so a sketch
    can regenerate an item's randomness on demand instead of storing a
    full random matrix (the trick [JW19] attributes to limited-
    independence generation).
    """
    mix = random.Random(hash((seed,) + parts))
    return mix.random()
