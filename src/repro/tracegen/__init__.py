"""Synthetic recovery-trace generation.

The paper trains on a proprietary half-year recovery log from a production
cluster.  This package substitutes a calibrated synthetic equivalent: a
ground-truth fault catalog whose marginal statistics match the paper's
data description (97 error types, Zipf-like frequencies with the top 40
covering ~98.7% of processes, mutually dependent symptom sets, ~3.3%
noisy multi-error cases), driven through the cluster simulator under the
same user-defined cheapest-first policy the production system ran.
"""

from repro.tracegen.calibration import CalibrationReport, calibrate
from repro.tracegen.catalog_gen import (
    CatalogSpec,
    FaultProfile,
    generate_fault_catalog,
)
from repro.tracegen.generator import GeneratedTrace, generate_trace
from repro.tracegen.workload import TraceConfig, default_config, paper_scale_config

__all__ = [
    "CatalogSpec",
    "FaultProfile",
    "generate_fault_catalog",
    "TraceConfig",
    "default_config",
    "paper_scale_config",
    "GeneratedTrace",
    "generate_trace",
    "CalibrationReport",
    "calibrate",
]
