"""Lattice security estimation against the Homomorphic Encryption Standard.

The paper targets "the 128-bit security standard" [5] with polynomial
degrees 2^14–2^16.  This module encodes the HE-standard tables (Albrecht
et al., homomorphicencryption.org) mapping ring degree to the maximum
total modulus width at a given security level for ternary secrets, plus
log-linear interpolation for estimates between table rows.

Used to validate that a :class:`~repro.ckks.params.CkksParameters` choice
(e.g. 24 x 36-bit primes at N = 2^16) actually meets its security target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.params import CkksParameters

__all__ = ["SecurityReport", "max_modulus_bits", "estimate_security_bits", "check_parameters"]

# HE-standard table: ring degree -> {security level: max log2(Q)} for
# ternary secrets (uniform in {-1,0,1}), classical attacks.
_HE_STANDARD: dict[int, dict[int, int]] = {
    1024: {128: 27, 192: 19, 256: 14},
    2048: {128: 54, 192: 37, 256: 29},
    4096: {128: 109, 192: 75, 256: 58},
    8192: {128: 218, 192: 152, 256: 118},
    16384: {128: 438, 192: 305, 256: 237},
    32768: {128: 881, 192: 611, 256: 476},
    65536: {128: 1772, 192: 1229, 256: 959},
}


def max_modulus_bits(degree: int, security: int = 128) -> int:
    """Largest total log2(Q) at a degree meeting a security level."""
    row = _HE_STANDARD.get(degree)
    if row is None:
        raise ValueError(
            f"degree {degree} not in the HE-standard table "
            f"({sorted(_HE_STANDARD)}); toy rings have no security"
        )
    if security not in row:
        raise ValueError(f"security level must be one of {sorted(row)}")
    return row[security]


def estimate_security_bits(degree: int, total_modulus_bits: float) -> float:
    """Approximate security of an (N, log Q) pair by interpolation.

    Security scales ~linearly in N / log(Q) for these parameter ranges;
    we interpolate between the table's security columns at the given
    degree (and clamp to [0, 300]).
    """
    row = _HE_STANDARD.get(degree)
    if row is None:
        raise ValueError(f"degree {degree} not in the HE-standard table")
    if total_modulus_bits <= 0:
        raise ValueError("modulus width must be positive")
    # Invert the (security -> logQ) map by fitting security ≈ c * N/logQ.
    points = [(sec, row[sec]) for sec in sorted(row)]
    ratios = [sec * logq for sec, logq in points]
    c = sum(ratios) / len(ratios)  # sec * logQ ≈ const at fixed N
    return max(0.0, min(300.0, c / total_modulus_bits))


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of checking a parameter set against the standard."""

    degree: int
    total_modulus_bits: float
    limit_bits: int
    security_target: int
    estimated_bits: float

    @property
    def secure(self) -> bool:
        return self.total_modulus_bits <= self.limit_bits

    @property
    def margin_bits(self) -> float:
        """Unused modulus budget (negative when insecure)."""
        return self.limit_bits - self.total_modulus_bits


def check_parameters(params: CkksParameters, security: int = 128) -> SecurityReport:
    """Validate a CKKS parameter set against the HE standard.

    The paper's evaluation point — N = 2^16 with 24 x 36-bit primes
    (864 modulus bits) — passes the 128-bit column (1772 bits) with
    plenty of margin for bootstrapping's auxiliary moduli.
    """
    total = params.num_primes * params.prime_bits
    limit = max_modulus_bits(params.degree, security)
    return SecurityReport(
        degree=params.degree,
        total_modulus_bits=total,
        limit_bits=limit,
        security_target=security,
        estimated_bits=estimate_security_bits(params.degree, total),
    )
