"""repro: a Python reproduction of EagleTree (Dayan et al., VLDB 2013).

EagleTree is a simulation framework for SSD-based algorithms covering
the complete IO stack -- application threads, operating system, SSD
controller and flash array -- running entirely in virtual time.  This
package reimplements it with the same four-layer architecture:

* :mod:`repro.hardware`   -- channels, LUNs, blocks, pages, timings.
* :mod:`repro.controller` -- FTLs, GC, wear leveling, SSD scheduling.
* :mod:`repro.host`       -- the OS layer and the open OS<->SSD interface.
* :mod:`repro.workloads`  -- the thread framework and canned workloads.
* :mod:`repro.core`       -- event engine, configuration, statistics,
  tracing, and the experiment-template suite.
* :mod:`repro.analysis`   -- metrics and terminal reporting.
* :mod:`repro.service`    -- the experiment service: content-addressed
  result cache, async job runner, live dashboard.

Quickstart::

    from repro import Simulation, small_config
    from repro.workloads import RandomWriterThread

    sim = Simulation(small_config())
    sim.add_thread(RandomWriterThread("writer", count=2000))
    result = sim.run()
    print(result.report())
"""

from repro.core.config import (
    AllocationPolicy,
    ChipTimings,
    ControllerConfig,
    CrashConfig,
    FtlKind,
    GcVictimPolicy,
    HostConfig,
    OsSchedulerPolicy,
    OverloadConfig,
    RecoveryStrategy,
    ReliabilityConfig,
    SimulationConfig,
    SsdGeometry,
    SsdSchedulerPolicy,
    TemperatureDetector,
    demo_config,
    small_config,
)
from repro.core.events import IoRequest, IoStatus, IoType
from repro.core.power import (
    CrashStats,
    MountReport,
    PowerLossEvent,
    PowerRestoreEvent,
)
from repro.core.experiments import (
    GridExperiment,
    GridResult,
    Parameter,
)
from repro.core.parallel import (
    RunSpec,
    SweepExecutor,
    SweepRunError,
    WorkerStalledError,
)
from repro.core.sanitize import SanitizerError
from repro.core.simulation import Simulation, SimulationResult
from repro.reliability import FaultPlan
from repro.service import (
    CachedResult,
    ExperimentService,
    JobState,
    JobStatus,
    ResultCache,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationPolicy",
    "CachedResult",
    "ChipTimings",
    "ControllerConfig",
    "CrashConfig",
    "CrashStats",
    "ExperimentService",
    "GridExperiment",
    "GridResult",
    "FaultPlan",
    "FtlKind",
    "GcVictimPolicy",
    "HostConfig",
    "IoRequest",
    "IoStatus",
    "IoType",
    "JobState",
    "JobStatus",
    "MountReport",
    "OsSchedulerPolicy",
    "OverloadConfig",
    "Parameter",
    "PowerLossEvent",
    "PowerRestoreEvent",
    "RecoveryStrategy",
    "ReliabilityConfig",
    "ResultCache",
    "RunSpec",
    "SanitizerError",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SsdGeometry",
    "SsdSchedulerPolicy",
    "SweepExecutor",
    "SweepRunError",
    "TemperatureDetector",
    "WorkerStalledError",
    "demo_config",
    "small_config",
]
