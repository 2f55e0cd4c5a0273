"""The per-file metadata record used throughout the reproduction.

A :class:`FileMetadata` is deliberately lightweight: a file identifier, a
path/filename (used only by the filename point query path, which routes over
Bloom filters) and a dictionary of numeric attribute values keyed by the
names of an :class:`~repro.metadata.attributes.AttributeSchema`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.metadata.attributes import AttributeSchema, DEFAULT_SCHEMA

__all__ = ["FileMetadata", "make_file_id"]


def make_file_id(path: str) -> int:
    """Derive a stable 63-bit integer file identifier from a path.

    The prototype described in the paper uses MD5 both for Bloom-filter
    hashing and to derive stable identifiers; we reuse the same primitive so
    identifiers are reproducible across runs and processes (Python's builtin
    ``hash`` is salted per process).
    """
    digest = hashlib.md5(path.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


@dataclass
class FileMetadata:
    """Metadata of one file.

    Parameters
    ----------
    path:
        Full pathname.  The trailing component is exposed as
        :attr:`filename` and indexed by the Bloom filters for point query.
    attributes:
        Mapping from attribute name to numeric value.  Every attribute of
        the schema in use must be present when the record is vectorised.
    file_id:
        Stable integer identifier; derived from the path if not given.
    extra:
        Free-form annotations (e.g. the sub-trace ID added by TIF scale-up,
        or a content fingerprint used by the de-duplication application).
        Never interpreted by the core system.
    """

    path: str
    attributes: Dict[str, float]
    file_id: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("path must be a non-empty string")
        if self.file_id is None:
            self.file_id = make_file_id(self.path)
        # Normalise attribute values to plain floats once, so that numpy
        # vectorisation downstream never needs to coerce object arrays.
        self.attributes = {k: float(v) for k, v in self.attributes.items()}

    @classmethod
    def from_fields(
        cls,
        path: str,
        attributes: Dict[str, float],
        file_id: int,
        extra: Dict[str, object],
    ) -> "FileMetadata":
        """A record from fields already in the form ``__post_init__`` leaves
        them in (a non-empty path, an int id, float attribute values),
        without checking them again: a stored row rebuilt in bulk."""
        record = cls.__new__(cls)
        record.path = path
        record.attributes = attributes
        record.file_id = file_id
        record.extra = extra
        return record

    # -- accessors ---------------------------------------------------------------
    @property
    def filename(self) -> str:
        """The final path component (what filename point queries look up)."""
        return self.path.rsplit("/", 1)[-1]

    @property
    def directory(self) -> str:
        """The directory part of the path (empty for top-level files)."""
        if "/" not in self.path:
            return ""
        return self.path.rsplit("/", 1)[0]

    def get(self, name: str, default: float = 0.0) -> float:
        """Value of attribute ``name`` or ``default`` when absent."""
        return self.attributes.get(name, default)

    def vector(self, schema: AttributeSchema = DEFAULT_SCHEMA) -> np.ndarray:
        """Attribute vector of this file in schema order (raw, un-normalised).

        Raises ``KeyError`` if an attribute required by the schema is
        missing from this record.
        """
        try:
            return np.array([self.attributes[n] for n in schema.names], dtype=np.float64)
        except KeyError as exc:  # re-raise with a more useful message
            raise KeyError(
                f"file {self.path!r} is missing attribute {exc.args[0]!r} "
                f"required by the schema"
            ) from None

    # -- mutation helpers ----------------------------------------------------------
    def with_updates(self, **attribute_updates: float) -> "FileMetadata":
        """Return a copy with some attribute values replaced.

        Behavioural attributes change over the lifetime of a file (read
        volume grows, access count increments); the versioning machinery
        records such updates as immutable deltas, hence the copy-on-write
        style here.
        """
        new_attrs = dict(self.attributes)
        for key, value in attribute_updates.items():
            new_attrs[key] = float(value)
        return replace(self, attributes=new_attrs, extra=dict(self.extra))

    def matches_ranges(
        self,
        names: Sequence[str],
        lower: Sequence[float],
        upper: Sequence[float],
    ) -> bool:
        """True when every named attribute lies within ``[lower, upper]``
        (a NaN value lies within none)."""
        for name, lo, hi in zip(names, lower, upper):
            value = self.attributes.get(name)
            if value is None or not lo <= value <= hi:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.file_id)


def files_by_id(files: Iterable[FileMetadata]) -> Dict[int, FileMetadata]:
    """Index a collection of metadata records by file id."""
    return {f.file_id: f for f in files}
