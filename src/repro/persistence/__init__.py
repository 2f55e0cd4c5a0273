"""Persistence: file populations, traces and schemas as JSON-Lines.

A trace generated once should be replayable bit-for-bit, so populations
and traces are written as plain JSON-Lines that stay readable without
this package.  :mod:`repro.persistence.jsonl` is also the record codec
the write-ahead log, the segment files and the wire protocol share.  A
deployment's on-disk checkpoint is the segment snapshot of
:mod:`repro.storage`.

``repro.persistence.jsonl``
    File populations and traces as JSON-Lines (one record per line, with a
    single header line identifying the payload type).
"""

from repro.persistence.jsonl import (
    load_files,
    load_trace,
    save_files,
    save_trace,
    schema_from_dict,
    schema_to_dict,
)

__all__ = [
    "save_files",
    "load_files",
    "save_trace",
    "load_trace",
    "schema_to_dict",
    "schema_from_dict",
]
