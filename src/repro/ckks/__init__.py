"""The CKKS scheme: client-side encode/encrypt/decode/decrypt plus the
server-side evaluator needed for end-to-end flows.

Public entry points:

* :class:`repro.ckks.CkksContext` — one-stop construction;
* :func:`repro.ckks.bootstrappable_params` — the paper's N = 2^16 /
  24-level / 36-bit configuration;
* :func:`repro.ckks.toy_params` — small rings for tests and examples.
"""

from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.cheby import ChebyshevSeries, evaluate_chebyshev, sine_mod_series
from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.linear import HomomorphicLinearTransform
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Decryptor, Encryptor
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import (
    KeyGenerator,
    PublicKey,
    SecretKey,
    SwitchingKey,
    expand_uniform_poly,
)
from repro.ckks.keyswitch import KeySwitchEngine
from repro.ckks.params import CkksParameters, bootstrappable_params, toy_params
from repro.ckks.security import (
    SecurityReport,
    check_parameters,
    estimate_security_bits,
    max_modulus_bits,
)
from repro.ckks.serialization import (
    WireFormatError,
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    deserialize_plaintext,
    deserialize_seeded,
    deserialize_switching_key,
    pack_frame,
    pack_residues,
    read_frame,
    serialize_ciphertext,
    serialize_plaintext,
    serialize_seeded,
    serialize_switching_key,
    unpack_residues,
    wire_coeff_bits,
)
from repro.ckks.bootstrap import measure_bootstrap_precision
from repro.ckks.precision import (
    PrecisionPoint,
    drop_off_point,
    measure_precision,
    sweep_mantissa,
)

__all__ = [
    "BootstrapConfig",
    "Bootstrapper",
    "ChebyshevSeries",
    "Ciphertext",
    "CkksContext",
    "HomomorphicLinearTransform",
    "evaluate_chebyshev",
    "SecurityReport",
    "WireFormatError",
    "check_parameters",
    "ciphertext_wire_bytes",
    "deserialize_ciphertext",
    "deserialize_plaintext",
    "deserialize_seeded",
    "deserialize_switching_key",
    "estimate_security_bits",
    "max_modulus_bits",
    "measure_bootstrap_precision",
    "pack_frame",
    "pack_residues",
    "read_frame",
    "serialize_ciphertext",
    "serialize_plaintext",
    "serialize_seeded",
    "serialize_switching_key",
    "wire_coeff_bits",
    "sine_mod_series",
    "unpack_residues",
    "CkksEncoder",
    "CkksParameters",
    "Decryptor",
    "Encryptor",
    "Evaluator",
    "KeyGenerator",
    "KeySwitchEngine",
    "Plaintext",
    "PrecisionPoint",
    "PublicKey",
    "SecretKey",
    "SwitchingKey",
    "bootstrappable_params",
    "drop_off_point",
    "expand_uniform_poly",
    "measure_precision",
    "sweep_mantissa",
    "toy_params",
]
