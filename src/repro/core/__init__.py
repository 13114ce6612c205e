"""Core simulation infrastructure shared by every EagleTree layer.

The :mod:`repro.core` package contains the pieces that the paper describes
as "an entire system operating in virtual time" (Section 2.1):

* :mod:`repro.core.engine` -- the discrete-event simulator.
* :mod:`repro.core.units` -- time and size unit helpers.
* :mod:`repro.core.rng` -- deterministic, per-component random streams.
* :mod:`repro.core.events` -- logical IO request objects exchanged between
  the application, OS and SSD layers.
* :mod:`repro.core.config` -- the full configuration surface of the
  simulator, with predefined chip and SSD presets.
* :mod:`repro.core.statistics` -- statistics gathering objects that can be
  attached globally or to an individual thread (Section 2.3).
* :mod:`repro.core.tracing` -- the "massive visual traces" of Section 2.3,
  as structured trace records.
* :mod:`repro.core.simulation` -- the facade that wires all four layers
  together and runs a workload to completion.
* :mod:`repro.core.experiments` -- the experimental-suite API: grids that
  vary one parameter or policy (a template) or several, with metric series.
"""

from repro.core.config import (
    ControllerConfig,
    HostConfig,
    SimulationConfig,
    SsdGeometry,
    ChipTimings,
)
from repro.core.engine import Simulator
from repro.core.events import IoRequest, IoType
from repro.core.experiments import (
    GridExperiment,
    GridResult,
    Parameter,
)
from repro.core.parallel import RunSpec, SweepExecutor, SweepRunError
from repro.core.sanitize import SanitizerError
from repro.core.simulation import Simulation, SimulationResult
from repro.core.statistics import StatisticsGatherer

__all__ = [
    "ChipTimings",
    "SanitizerError",
    "ControllerConfig",
    "GridExperiment",
    "GridResult",
    "HostConfig",
    "IoRequest",
    "IoType",
    "Parameter",
    "RunSpec",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SsdGeometry",
    "StatisticsGatherer",
    "SweepExecutor",
    "SweepRunError",
]
