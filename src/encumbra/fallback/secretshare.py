"""Threshold secret sharing by polynomial interpolation.

The field modulus is the smallest prime above 2**256, so every 32-byte
secret is a field element and no rejection sampling is needed.  A
(t, n) split evaluates a random degree t-1 polynomial with the secret
as constant term at x = 1..n; any t shares reconstruct by Lagrange
interpolation at x = 0, and any t-1 shares yield a value independent
of the secret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..crypto import Drbg
from ..errors import InsufficientShares

PRIME = 2**256 + 297


@dataclass(frozen=True)
class Share:
    index: int
    value: int
    threshold: int
    total: int


def _mod_inverse(a: int) -> int:
    return pow(a, PRIME - 2, PRIME)


def split(secret: bytes, threshold: int, total: int, seed: bytes) -> List[Share]:
    """Split a 32-byte secret into ``total`` shares, any ``threshold``
    of which reconstruct it.

    Coefficients are drawn deterministically from the seed so a run is
    replayable; distinct seeds give unrelated polynomials.
    """
    if len(secret) != 32:
        raise ValueError("secret must be 32 bytes")
    if not 1 <= threshold <= total:
        raise ValueError("need 1 <= threshold <= total")
    secret_int = int.from_bytes(secret, "big")
    drbg = Drbg(seed, "shamir-coeff", threshold, total)
    coefficients = [secret_int] + [
        drbg.integer(PRIME) for _ in range(threshold - 1)
    ]
    shares = []
    for x in range(1, total + 1):
        accumulator = 0
        for coefficient in reversed(coefficients):
            accumulator = (accumulator * x + coefficient) % PRIME
        shares.append(Share(index=x, value=accumulator, threshold=threshold, total=total))
    return shares


def reconstruct(shares: Sequence[Share]) -> bytes:
    """Interpolate at x = 0 and return the 32-byte secret.

    With fewer than threshold shares the interpolated value is wrong
    (information-theoretically unrelated to the secret); values that
    cannot even fit 32 bytes are rejected here, anything else must be
    caught by the caller's known-plaintext check.
    """
    if not shares:
        raise InsufficientShares("no shares supplied")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise InsufficientShares("duplicate share indices")
    total = 0
    for i, share_i in enumerate(shares):
        numerator = 1
        denominator = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = (numerator * (-share_j.index)) % PRIME
            denominator = (denominator * (share_i.index - share_j.index)) % PRIME
        term = share_i.value * numerator % PRIME * _mod_inverse(denominator) % PRIME
        total = (total + term) % PRIME
    if total >= 2**256:
        raise InsufficientShares("reconstructed value outside the secret space")
    return total.to_bytes(32, "big")
