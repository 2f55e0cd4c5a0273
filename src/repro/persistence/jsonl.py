"""JSON-Lines serialisation of file populations, traces and schemas.

Format
------
Every file starts with a single header object identifying what follows::

    {"format": "repro.files", "version": 1, "count": 1250}
    {"path": "/msn/proj000/...", "file_id": 123, "attributes": {...}, "extra": {...}}
    ...

    {"format": "repro.trace", "version": 1, "name": "msn", "user_accounts": 32, ...}
    {"kind": "file", ...}          # the explicit file population, if any
    {"kind": "record", ...}        # the I/O records, in timestamp order

The header makes the files self-describing and lets the loaders fail fast on
the wrong artefact instead of mis-parsing it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Union

from repro.metadata.attributes import AttributeSchema, AttributeSpec
from repro.metadata.file_metadata import FileMetadata
from repro.traces.base import Trace, TraceRecord

__all__ = [
    "save_files",
    "load_files",
    "save_trace",
    "load_trace",
    "schema_to_dict",
    "schema_from_dict",
    "file_to_dict",
    "file_from_dict",
]

PathLike = Union[str, Path]

FILES_FORMAT = "repro.files"
TRACE_FORMAT = "repro.trace"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------- schema
def schema_to_dict(schema: AttributeSchema) -> Dict[str, object]:
    """Serialise an attribute schema to a plain dictionary."""
    return {
        "attributes": [
            {"name": s.name, "kind": s.kind, "log_scale": s.log_scale, "unit": s.unit}
            for s in schema
        ]
    }


def schema_from_dict(payload: Dict[str, object]) -> AttributeSchema:
    """Rebuild an attribute schema from :func:`schema_to_dict` output."""
    specs = [
        AttributeSpec(
            name=str(item["name"]),
            kind=str(item.get("kind", "physical")),
            log_scale=bool(item.get("log_scale", False)),
            unit=str(item.get("unit", "")),
        )
        for item in payload["attributes"]  # type: ignore[index]
    ]
    return AttributeSchema(tuple(specs))


# ---------------------------------------------------------------------------- file metadata
def file_to_dict(file: FileMetadata) -> Dict[str, object]:
    """Serialise one metadata record."""
    return {
        "path": file.path,
        "file_id": file.file_id,
        "attributes": dict(file.attributes),
        "extra": dict(file.extra),
    }


def file_from_dict(payload: Dict[str, object]) -> FileMetadata:
    """Rebuild one metadata record (``FileMetadata`` copies the attributes
    into a dict of floats, in their order)."""
    return FileMetadata(
        path=str(payload["path"]),
        attributes=payload["attributes"],  # type: ignore[arg-type]
        file_id=int(payload["file_id"]) if payload.get("file_id") is not None else None,
        extra=dict(payload.get("extra", {})),  # type: ignore[arg-type]
    )


def save_files(files: Sequence[FileMetadata], path: PathLike) -> int:
    """Write a file population as JSON-Lines; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        header = {"format": FILES_FORMAT, "version": FORMAT_VERSION, "count": len(files)}
        fh.write(json.dumps(header) + "\n")
        for f in files:
            fh.write(json.dumps(file_to_dict(f)) + "\n")
    return len(files)


def load_files(path: PathLike) -> List[FileMetadata]:
    """Load a file population written by :func:`save_files`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        header = json.loads(header_line)
        if header.get("format") != FILES_FORMAT:
            raise ValueError(
                f"{path} is not a file-population artefact (format={header.get('format')!r})"
            )
        files = [file_from_dict(json.loads(line)) for line in fh if line.strip()]
    expected = header.get("count")
    if expected is not None and expected != len(files):
        raise ValueError(f"{path} declares {expected} records but contains {len(files)}")
    return files


# ---------------------------------------------------------------------------- traces
def _record_to_dict(record: TraceRecord) -> Dict[str, object]:
    return {
        "kind": "record",
        "timestamp": record.timestamp,
        "op": record.op,
        "path": record.path,
        "bytes": record.bytes,
        "user_id": record.user_id,
        "process_id": record.process_id,
    }


def _record_from_dict(payload: Dict[str, object]) -> TraceRecord:
    return TraceRecord(
        timestamp=float(payload["timestamp"]),
        op=str(payload["op"]),
        path=str(payload["path"]),
        bytes=float(payload.get("bytes", 0.0)),
        user_id=int(payload.get("user_id", 0)),
        process_id=int(payload.get("process_id", 0)),
    )


def save_trace(trace: Trace, path: PathLike) -> int:
    """Write a trace (file population + record stream); returns #lines written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = 0
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "format": TRACE_FORMAT,
            "version": FORMAT_VERSION,
            "name": trace.name,
            "user_accounts": trace.user_accounts,
            "num_files": len(trace.files),
            "num_records": len(trace.records),
        }
        fh.write(json.dumps(header) + "\n")
        for f in trace.files:
            payload = file_to_dict(f)
            payload["kind"] = "file"
            fh.write(json.dumps(payload) + "\n")
            lines += 1
        for r in trace.records:
            fh.write(json.dumps(_record_to_dict(r)) + "\n")
            lines += 1
    return lines


def load_trace(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        header = json.loads(header_line)
        if header.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"{path} is not a trace artefact (format={header.get('format')!r})"
            )
        files: List[FileMetadata] = []
        records: List[TraceRecord] = []
        for line in fh:
            if not line.strip():
                continue
            payload = json.loads(line)
            if payload.get("kind") == "file":
                files.append(file_from_dict(payload))
            else:
                records.append(_record_from_dict(payload))
    return Trace(
        name=str(header.get("name", path.stem)),
        records=records,
        files=files,
        user_accounts=int(header.get("user_accounts", 0)),
    )
