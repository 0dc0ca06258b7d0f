"""The mapping flows: basic (Das et al. TCAD'18) and context-memory aware.

Module map (mirrors Fig 4 of the paper):

- :mod:`repro.mapping.traversal` — forward vs weighted CDFG traversal;
- :mod:`repro.mapping.scheduler` — backward list scheduling order
  (mobility, then fan-out);
- :mod:`repro.mapping.state` — partial mappings (placements, routed
  values, per-tile context usage);
- :mod:`repro.mapping.routing` — exact MOV-chain search on the TEDG;
- :mod:`repro.mapping.binder` — exact incremental binding with
  location constraints and constraint-aware binding (CAB);
- :mod:`repro.mapping.transforms` — re-compute / schedule-stretch
  graph transformations;
- :mod:`repro.mapping.pruning` — ACMAP, ECMAP and stochastic pruning;
- :mod:`repro.mapping.flow` — the orchestrating mapping flow;
- :mod:`repro.mapping.result` — mapping results and statistics.
"""

from repro.mapping.flow import FlowOptions, map_kernel
from repro.mapping.result import BlockMapping, MappingResult

__all__ = ["FlowOptions", "map_kernel", "BlockMapping", "MappingResult"]
