"""Calibration constants for the ABC-FHE performance/area models.

Every constant is traceable to a specific sentence, table, or figure of the
paper (or to a first-principles fit against one).  Keeping them in a single
module makes the modeling assumptions auditable and lets ablation benches
vary them.
"""

from __future__ import annotations

from repro.nums.kernels import REDUCER_SPECS

# ---------------------------------------------------------------------------
# Clock / memory system (Section V-A)
# ---------------------------------------------------------------------------

CLOCK_HZ = 600e6
"""Synthesis target frequency: "maintaining a 600 MHz clock frequency"."""

LPDDR5_BYTES_PER_SEC = 68.4e9
"""LPDDR5 bandwidth "commonly used in client-side environments"."""

GLOBAL_SCRATCHPAD_BYTES = 880 * 1024
"""Double-buffered global scratchpad capacity (Fig. 3a / Section V-A)."""

LOCAL_SCRATCHPAD_BYTES = 440 * 1024
"""Per-RSC local scratchpad capacity (Fig. 3a)."""

INSTRUCTION_MEMORY_BYTES = 1024
"""Instruction memory (Fig. 3a)."""

TWIDDLE_SEED_MEMORY_BYTES = int(26.4 * 1024)
"""Twiddle-factor seed memory provisioned in hardware (Fig. 3a)."""

# ---------------------------------------------------------------------------
# Datapath widths (Section III)
# ---------------------------------------------------------------------------

COEFF_BITS = 44
"""Integer datapath width: "44-bit modular operation for I/NTT"."""

FP_BITS = 55
"""Floating-point datapath width: "custom 55-bit floating-point (FP55)"."""

FP_MANTISSA_BITS = 43
"""FP55 mantissa: "maintaining at least 43 mantissa bits"."""

BOOT_PRECISION_THRESHOLD = 19.29
"""Minimum bootstrapping precision preserving AI accuracy [19]."""

BOOT_PRECISION_AT_FP55 = 23.39
"""Paper's measured boot precision at 43 mantissa bits (Fig. 3c)."""

# ---------------------------------------------------------------------------
# Modular-multiplier area (Table I, 28 nm @ 600 MHz)
# ---------------------------------------------------------------------------
# Model: area = ALPHA * bw^2 * (multiplier equivalents + OVERHEAD_EQUIV).
# Fitting the three Table I rows gives multiplier-equivalents of 4 / 2 / 1
# (Barrett's two quotient multipliers work on widened operands, ~1.5 each;
# Montgomery's two QInv-side products are half-array; the NTT-friendly
# variant keeps only the operand product) plus a shared fixed overhead.
# Residual error of the fit is < 0.2 % on every row.

MODMUL_ALPHA_UM2_PER_BIT2 = 6.116
"""Partial-product array area per bit^2 (fit to Table I)."""

MODMUL_OVERHEAD_EQUIV = 0.429
"""Fixed overhead (control, correction adders, shift-add network) as a
fraction of one bw^2 multiplier array (fit to Table I)."""

# The per-algorithm accounting lives in repro.nums.kernels.REDUCER_SPECS,
# one ReducerSpec per Table I row beside the software reducer, so the rows
# are stated once — changing an algorithm's hardware assumptions changes
# every view of it.

MODMUL_EQUIV = {name: spec.multiplier_equivalents for name, spec in REDUCER_SPECS.items()}
"""Full-multiplier equivalents per reduction algorithm (fit to Table I)."""

MODMUL_PIPELINE_STAGES = {name: spec.pipeline_stages for name, spec in REDUCER_SPECS.items()}
"""Pipeline depths reported in Table I."""

TABLE1_AREAS_UM2 = {name: spec.paper_area_um2 for name, spec in REDUCER_SPECS.items()}
"""Ground-truth Table I areas for regression checks."""

# ---------------------------------------------------------------------------
# Component area/power (Table II, 28 nm)
# ---------------------------------------------------------------------------

TABLE2_AREA_MM2 = {
    "4x PNL": 10.717,
    "Unified OTF TF Gen": 0.697,
    "Twiddle Factor Seed Memory": 0.046,
    "MSE": 0.787,
    "PRNG": 0.069,
    "Local Scratchpad": 0.658,
    "RSC": 12.973,
    "2x RSC": 25.946,
    "Global Scratchpad": 2.632,
    "Top CTRL, DMA, Etc.": 0.060,
    "Total": 28.638,
}
"""Ground-truth Table II area rows (mm^2)."""

TABLE2_POWER_W = {
    "4x PNL": 1.397,
    "Unified OTF TF Gen": 0.089,
    "Twiddle Factor Seed Memory": 0.022,
    "MSE": 0.298,
    "PRNG": 0.028,
    "Local Scratchpad": 0.323,
    "RSC": 2.156,
    "2x RSC": 4.313,
    "Global Scratchpad": 1.290,
    "Top CTRL, DMA, Etc.": 0.051,
    "Total": 5.654,
}
"""Ground-truth Table II power rows (W)."""

SRAM_MM2_PER_KB = 0.658 / 440
"""Single-port SRAM density fit from the local scratchpad row (mm^2/KB)."""

SRAM_DOUBLE_BUFFERED_MM2_PER_KB = 2.632 / 880
"""Double-buffered (global scratchpad) SRAM density (mm^2/KB)."""

LOGIC_POWER_W_PER_MM2 = 1.397 / 10.717
"""Active logic power density fit from the PNL row (W/mm^2)."""

SRAM_POWER_W_PER_MM2 = 0.323 / 0.658
"""Single-port SRAM power density fit from the local scratchpad row."""

SRAM_DB_POWER_W_PER_MM2 = 1.290 / 2.632
"""Double-buffered SRAM power density fit from the global scratchpad row."""

# Butterfly-unit composition: a reconfigurable butterfly carries one
# NTT-friendly modular multiplier plus the FP55 add/shift datapath and the
# modular adder/subtractor pair.  Fit so that 4 PNLs (4 lanes x P=8 MDC,
# 16 stages) land on Table II's 10.717 mm^2 after FIFO SRAM is added.
BUTTERFLY_DATAPATH_FACTOR = 1.75
"""Butterfly area as a multiple of its bare modular multiplier (adders,
FP55 reconfiguration muxes, shuffling taps)."""

# ---------------------------------------------------------------------------
# Technology scaling (Section V-A, via DeepScaleTool [31])
# ---------------------------------------------------------------------------

SCALE_28_TO_7_AREA = 28.638 / 0.9
"""Area shrink 28 nm -> 7 nm implied by the paper (~31.8x)."""

SCALE_28_TO_7_POWER = 5.654 / 2.1
"""Power reduction 28 nm -> 7 nm implied by the paper (~2.7x)."""

# ---------------------------------------------------------------------------
# Baseline platforms (Section V-C / Fig. 5a)
# ---------------------------------------------------------------------------

CPU_EFFECTIVE_OPS_PER_SEC = 2.175e8
"""Single-core Intel i7-12700 running Lattigo, expressed as effective
client-side ops/s.  Calibrated jointly with CPU_FIXED_OVERHEAD_S so the
Fig. 2 op counts land at the CPU latencies implied by the paper's 1112x /
963x speed-ups over our simulated ABC-FHE latencies."""

CPU_FIXED_OVERHEAD_S = 0.0239
"""Per-task CPU overhead (allocation, big-int CRT setup, FFT planning) —
the reason small decode+decrypt jobs run at worse effective op rates than
large encode+encrypt jobs on a single core."""

SOTA_CLIENT_ENC_SLOWDOWN = 214.0
"""Fig. 5a: ABC-FHE is 214x faster than the best prior client accelerator
([34], frequency-normalized and op-scaled) on encode+encrypt."""

SOTA_CLIENT_DEC_SLOWDOWN = 82.0
"""Fig. 5a: 82x on decode+decrypt vs the same baseline."""

ALOHA_HE_ENC_SLOWDOWN = 550.0
"""[22] ALOHA-HE (DATE'24), op-scaled + normalized to 600 MHz: the paper's
Fig. 5a shows it roughly 2-3x slower than [34] on encode+encrypt."""

ALOHA_HE_DEC_SLOWDOWN = 210.0
"""[22] on decode+decrypt under the same scaling."""

CPU_SPEEDUP_ENC = 1112.0
"""Headline speed-up, encoding+encryption vs CPU (abstract / Fig. 5a)."""

CPU_SPEEDUP_DEC = 963.0
"""Headline speed-up, decoding+decryption vs CPU (abstract / Fig. 5a)."""

# ---------------------------------------------------------------------------
# Fig. 1 end-to-end breakdown (ResNet20 over FHE)
# ---------------------------------------------------------------------------

SERVER_ASIC_EVAL_SECONDS = 0.01404
"""[9] Trinity-class server ASIC latency for ResNet20 homomorphic
evaluation (single image).  Chosen so that with [34] as the client
accelerator the client share is 69.4 % (the paper's Fig. 1 reading:
client 69.4 % vs server 30.6 %); the resulting ~14 ms is in line with
modern FHE ASIC ResNet20 latencies."""

SERVER_CPU_EVAL_SECONDS = 2500.0
"""Dual Xeon 8280 (112 cores) ResNet20-FHE evaluation — the Fig. 1 server
CPU bar ("99.9%" of time when everything runs on CPUs)."""

RESNET20_INPUT_CIPHERTEXTS = 1
"""Fresh encryptions per ResNet20-FHE inference (one packed input image)."""

RESNET20_OUTPUT_CIPHERTEXTS = 1
"""Decryptions per inference (one packed logit vector)."""
