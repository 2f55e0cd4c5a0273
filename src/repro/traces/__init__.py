"""Synthetic file-system traces and the TIF scale-up procedure.

The paper's evaluation replays three real-world traces — HP (a research
file-server workload), MSN (a production Windows-server storage workload)
and EECS (an NFS e-mail/research workload) — none of which is publicly
redistributable today.  This subpackage generates *synthetic* traces whose
summary statistics match the original columns of Tables 1-3 (request
counts, file counts, read/write volumes, user counts, durations) and whose
attribute distributions carry the properties the evaluation relies on:
Zipf-skewed file popularity, log-normal file sizes, temporally clustered
creation/modification times and strong multi-dimensional correlation within
"project" clusters of files.

The Trace Intensifying Factor (TIF) scale-up of §5.1 is implemented in
:mod:`repro.traces.scaleup`: the trace is replicated into TIF sub-traces,
every file of each sub-trace receives a unique sub-trace ID (growing the
working set), all sub-trace start times are set to zero so they replay
concurrently, and the chronological order within each sub-trace is
preserved.
"""

from repro.traces.base import TraceRecord, Trace, TraceSummary, build_file_metadata
from repro.traces.distributions import (
    zipf_popularity,
    sample_zipf_indices,
    lognormal_sizes,
    clustered_timestamps,
)
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.traces.hp import hp_config, hp_trace, HP_ORIGINAL_SUMMARY
from repro.traces.msn import msn_config, msn_trace, MSN_ORIGINAL_SUMMARY
from repro.traces.eecs import eecs_config, eecs_trace, EECS_ORIGINAL_SUMMARY
from repro.traces.scaleup import scale_up, scaled_summary

TRACE_PROFILES = ("hp", "msn", "eecs", "generic")


def make_trace(profile: str, scale: float, seed: int, tif: int = 1) -> Trace:
    """One of the synthetic trace profiles, optionally TIF-intensified."""
    if profile == "hp":
        trace = hp_trace(scale=scale, seed=seed)
    elif profile == "msn":
        trace = msn_trace(scale=scale, seed=seed)
    elif profile == "eecs":
        trace = eecs_trace(scale=scale, seed=seed)
    else:
        config = SyntheticTraceConfig(
            name="generic",
            n_files=max(int(2000 * scale), 50),
            n_requests=max(int(10000 * scale), 100),
            n_projects=max(int(20 * scale), 5),
            seed=seed,
        )
        trace = generate_trace(config)
    if tif > 1:
        trace = scale_up(trace, tif)
    return trace


__all__ = [
    "TRACE_PROFILES",
    "make_trace",
    "TraceRecord",
    "Trace",
    "TraceSummary",
    "build_file_metadata",
    "zipf_popularity",
    "sample_zipf_indices",
    "lognormal_sizes",
    "clustered_timestamps",
    "SyntheticTraceConfig",
    "generate_trace",
    "hp_config",
    "hp_trace",
    "HP_ORIGINAL_SUMMARY",
    "msn_config",
    "msn_trace",
    "MSN_ORIGINAL_SUMMARY",
    "eecs_config",
    "eecs_trace",
    "EECS_ORIGINAL_SUMMARY",
    "scale_up",
    "scaled_summary",
]
