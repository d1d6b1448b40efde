"""Fourier-like transforms: negacyclic NTT, CKKS special FFT, and the
hardware-facing twiddle/dataflow models.

* :mod:`repro.transforms.ntt` — merged-ψ negacyclic NTT/INTT kernels;
* :mod:`repro.transforms.fft` — canonical-embedding special FFT/IFFT with a
  pluggable floating-point datapath;
* :mod:`repro.transforms.fp_custom` — FP55-style reduced-mantissa formats;
* :mod:`repro.transforms.twiddle` — unified on-the-fly twiddle generation
  and its memory accounting (Section IV-B);
* :mod:`repro.transforms.dataflow` — multiplier-count models for pipelined
  radix-2^k designs (Fig. 4).
"""

from repro.transforms.dataflow import (
    MultiplierCount,
    design_space,
    pipeline_multipliers,
    reduction_vs,
    sfg_multiplications_merged,
    sfg_multiplications_unmerged,
)
from repro.transforms.fft import SpecialFft, embedding_matrix
from repro.transforms.fp_custom import FP55, FP64, FloatFormat
from repro.transforms.ntt import BatchNtt, NttContext
from repro.transforms.twiddle import (
    OnTheFlyTwiddleGenerator,
    StageSeed,
    TwiddleMemoryModel,
)

__all__ = [
    "BatchNtt",
    "FP55",
    "FP64",
    "FloatFormat",
    "MultiplierCount",
    "NttContext",
    "OnTheFlyTwiddleGenerator",
    "SpecialFft",
    "StageSeed",
    "TwiddleMemoryModel",
    "design_space",
    "embedding_matrix",
    "pipeline_multipliers",
    "reduction_vs",
    "sfg_multiplications_merged",
    "sfg_multiplications_unmerged",
]
