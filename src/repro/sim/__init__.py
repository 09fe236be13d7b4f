"""World assembly and synchronized campaign execution."""

from repro.sim.world import World, WorldDefaults, Observation
from repro.sim.plan import ASGrouping, ObservationPlan, ObserveProfile
from repro.sim.campaign import Campaign, build_trial_batches, run_campaign
from repro.sim.executor import (
    BACKENDS,
    ExecutionReport,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialBatchJob,
    make_executor,
)
from repro.sim.scenario import (
    paper_scenario,
    followup_scenario,
    small_scenario,
)

__all__ = [
    "World",
    "WorldDefaults",
    "Observation",
    "ObservationPlan",
    "ObserveProfile",
    "ASGrouping",
    "Campaign",
    "run_campaign",
    "build_trial_batches",
    "BACKENDS",
    "Executor",
    "ExecutionReport",
    "TrialBatchJob",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "paper_scenario",
    "followup_scenario",
    "small_scenario",
]
