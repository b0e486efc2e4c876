"""Workload generation: unique values, random programs, paper scenarios."""

from repro.workloads.apps import log_appender, log_reader, ping_pong, pipeline_stage
from repro.workloads.generator import WorkloadSpec, populate_system, random_program
from repro.workloads.scenarios import (
    ScenarioResult,
    build_interconnected,
    lemma1_scenario,
    poll_until,
    run_until_quiescent,
    section3_counterexample,
)
from repro.workloads.values import ValueFactory

__all__ = [
    "ValueFactory",
    "WorkloadSpec",
    "random_program",
    "populate_system",
    "ScenarioResult",
    "build_interconnected",
    "run_until_quiescent",
    "poll_until",
    "section3_counterexample",
    "lemma1_scenario",
    "ping_pong",
    "log_appender",
    "log_reader",
    "pipeline_stage",
]
