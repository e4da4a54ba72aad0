"""Instrumentation: counters, the structured event bus, behaviour
analysis, aggregate telemetry, Perfetto export, run reports and
plain-text reporting."""

from repro.metrics.counters import Counters
from repro.metrics.events import EventBus, TraceEvent, TraceRecorder
from repro.metrics.perfetto import PerfettoExporter
from repro.metrics.profiler import CycleProfiler
from repro.metrics.report import (
    SCHEMA_VERSION as RUN_REPORT_VERSION,
    build_run_report,
)
from repro.metrics.telemetry import (
    SNAPSHOT_VERSION as METRICS_SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunTelemetry,
    to_prometheus,
    validate_snapshot,
)

__all__ = [
    "Counters",
    "EventBus",
    "TraceEvent",
    "TraceRecorder",
    "PerfettoExporter",
    "CycleProfiler",
    "RUN_REPORT_VERSION",
    "build_run_report",
    "METRICS_SNAPSHOT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunTelemetry",
    "to_prometheus",
    "validate_snapshot",
]
