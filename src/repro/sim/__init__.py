"""Trace-replay processor timing model, memory model, and run entry point."""

from repro.sim.stats import Counter, Histogram, UtilizationMeter
from repro.sim.memory import MainMemory
from repro.sim.processor import ProcessorConfig, Processor, ExecutionResult
from repro.sim.system import System, SystemResult, run_system

__all__ = [
    "Counter",
    "Histogram",
    "UtilizationMeter",
    "MainMemory",
    "ProcessorConfig",
    "Processor",
    "ExecutionResult",
    "System",
    "SystemResult",
    "run_system",
]
