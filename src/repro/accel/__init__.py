"""The ABC-FHE accelerator model: cycle-level simulator, memory system,
area/power model, and baseline platforms.

* :mod:`repro.accel.calibration` — every constant, with paper citations;
* :mod:`repro.accel.config` — design points (full / TF-Gen-only / base);
* :mod:`repro.accel.workload` — client op-count analysis (Fig. 2);
* :mod:`repro.accel.memory` — footprints and DRAM traffic (Section IV-B);
* :mod:`repro.accel.engines` / :mod:`repro.accel.simulator` — the
  streaming cycle model behind Figs. 5 and 6(b);
* :mod:`repro.accel.area` — Tables I/II and Fig. 6(a);
* :mod:`repro.accel.scaling` — 28 nm -> 7 nm projection;
* :mod:`repro.accel.baselines` — CPU and prior-accelerator models.
"""

from repro.accel.area import (
    AreaBreakdown,
    chip_area_breakdown,
    modmul_area_um2,
    rfe_area_progression,
    sram_area_mm2,
)
from repro.accel.baselines import CpuModel, ScaledAcceleratorModel, baseline_suite
from repro.accel.config import AcceleratorConfig, abc_fhe, abc_fhe_base, abc_fhe_tf_gen
from repro.accel.engines import GeneratorModel, MseModel, PnlModel
from repro.accel.memory import (
    MemoryFootprint,
    TrafficBreakdown,
    TrafficModel,
    client_memory_footprint,
)
from repro.accel.scaling import SCALING_NODES, TechnologyScaler
from repro.accel.scheduler import RequestQueue, RscScheduler, ScheduleResult
from repro.accel.simulator import (
    ClientSimulator,
    SimulationResult,
    sweep_degree,
    sweep_lanes,
)
from repro.accel.workload import ClientWorkload, OpCounts, resnet20_client_ops

__all__ = [
    "AcceleratorConfig",
    "AreaBreakdown",
    "ClientSimulator",
    "ClientWorkload",
    "CpuModel",
    "GeneratorModel",
    "MemoryFootprint",
    "MseModel",
    "OpCounts",
    "PnlModel",
    "SCALING_NODES",
    "RequestQueue",
    "RscScheduler",
    "ScaledAcceleratorModel",
    "ScheduleResult",
    "SimulationResult",
    "TechnologyScaler",
    "TrafficBreakdown",
    "TrafficModel",
    "abc_fhe",
    "abc_fhe_base",
    "abc_fhe_tf_gen",
    "baseline_suite",
    "chip_area_breakdown",
    "client_memory_footprint",
    "modmul_area_um2",
    "resnet20_client_ops",
    "rfe_area_progression",
    "sram_area_mm2",
    "sweep_degree",
    "sweep_lanes",
]
