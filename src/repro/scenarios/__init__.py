"""The scenario subsystem: a named registry of workload families.

The paper's evaluation is one supercell at two core counts; this package
makes workloads first-class instead.  A *scenario* is a named, tagged,
parameterised workload family — storm structure, grid shape, rank count,
block decomposition — registered in a global registry
(:func:`register_scenario`, mirroring the step-backend registry of
:mod:`repro.core.backends`) and resolvable by every consumer:

* ``repro.experiments.common`` builds :class:`ExperimentScenario` objects
  from registered names (the classic ``blue_waters_64`` / ``tiny``
  constructors now resolve through the registry);
* ``python -m repro list`` / ``python -m repro run <scenario>`` expose the
  catalogue on the command line;
* ``tests/test_scenarios.py`` parameterises its serial/vectorized/process
  parity sweep over :func:`scenario_names`, so every newly registered
  workload is parity-tested for free;
* :func:`scaling_variants` derives weak/strong-scaling rank sweeps from any
  registered entry, and :func:`model_scaling_sweep` prices those sweeps
  through the cost models alone — which is how rank counts like the
  registered ``blue_waters_weak_10k`` (10,000 virtual ranks) stay tractable.

Importing this package registers the built-in catalogue
(:mod:`repro.scenarios.catalog`): the paper's two Blue Waters scales, the
test-sized ``tiny``, the benchmark-scale ``blue_waters_64_fine``, and four
storm families the paper never ran (``squall_line``, ``multicell_cluster``,
``turbulence_field``, ``decaying_storm``).
"""

from repro.scenarios.registry import (
    create_scenario_config,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_specs,
)
from repro.scenarios.scaling import scaling_variants
from repro.scenarios.spec import ScenarioConfig, ScenarioFactory, ScenarioSpec
from repro.scenarios.sweep import model_scaling_point, model_scaling_sweep

# Importing the catalogue registers the built-in workloads.
import repro.scenarios.catalog  # noqa: E402,F401  (registration side effect)

__all__ = [
    "ScenarioConfig",
    "ScenarioFactory",
    "ScenarioSpec",
    "create_scenario_config",
    "get_scenario",
    "model_scaling_point",
    "model_scaling_sweep",
    "register_scenario",
    "scaling_variants",
    "scenario_names",
    "scenario_specs",
]
