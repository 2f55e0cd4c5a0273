"""Attribute schema for file metadata.

The paper exploits *multi-dimensional* metadata attributes, both physical
(file size, creation time, last modification time, ...) and behavioural
(amount of read/write traffic, access frequency, owning process).  A
:class:`AttributeSchema` fixes the ordered list of numeric attributes a
SmartStore deployment indexes; every attribute vector, MBR and LSI matrix in
this repository is expressed in the order the schema defines.

Schemas are deliberately small, immutable value objects so that they can be
shared freely between the core system, the baselines and the trace
generators without defensive copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

__all__ = ["AttributeSpec", "AttributeSchema", "DEFAULT_SCHEMA"]


@dataclass(frozen=True)
class AttributeSpec:
    """Description of a single numeric metadata attribute.

    Parameters
    ----------
    name:
        Attribute identifier, e.g. ``"size"`` or ``"mtime"``.
    kind:
        ``"physical"`` for attributes that rarely change once the file is
        created (size, creation time) or ``"behavioural"`` for attributes
        driven by the access history (read volume, access count).  The
        distinction mirrors §2.3 of the paper and is used by the automatic
        configuration component when enumerating attribute subsets.
    log_scale:
        If true the attribute spans several orders of magnitude (file
        sizes, I/O volumes) and is log-transformed before normalisation so
        that the Euclidean geometry used by the grouping step is not
        dominated by a handful of huge files.
    unit:
        Human-readable unit, for reporting only.
    """

    name: str
    kind: str = "physical"
    log_scale: bool = False
    unit: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("physical", "behavioural"):
            raise ValueError(
                f"attribute kind must be 'physical' or 'behavioural', got {self.kind!r}"
            )


@dataclass(frozen=True)
class AttributeSchema:
    """An ordered, immutable collection of :class:`AttributeSpec`.

    The schema defines dimension ``D`` of the attribute space.  Queries may
    address any subset ``d <= D`` of these attributes (see the automatic
    configuration machinery in :mod:`repro.core.autoconfig`).
    """

    specs: Tuple[AttributeSpec, ...]
    _index: Dict[str, int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        names = [s.name for s in self.specs]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        if not names:
            raise ValueError("schema must contain at least one attribute")
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self.specs)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    # -- accessors ----------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(s.name for s in self.specs)

    @property
    def dimension(self) -> int:
        """The number of attributes ``D``."""
        return len(self.specs)

    def index(self, name: str) -> int:
        """Return the position of ``name`` in the schema.

        Raises ``KeyError`` if the attribute is unknown.
        """
        return self._index[name]

    def spec(self, name: str) -> AttributeSpec:
        """Return the :class:`AttributeSpec` for ``name``."""
        return self.specs[self._index[name]]

    def indices(self, names: Iterable[str]) -> Tuple[int, ...]:
        """Positions of several attributes, preserving the given order."""
        return tuple(self._index[n] for n in names)

    def require(self, path: str, attributes: Mapping[str, float]) -> None:
        """Raise ``ValueError`` naming every schema attribute the record
        at ``path`` lacks, or else every one whose value is NaN; extra
        attributes are allowed (and not checked).

        The write path checks an insert or a modify with this before it
        logs or routes it: a record the schema cannot index is refused,
        not acknowledged and then failing every later drain.  A NaN value
        would poison every MBR and shard summary it is folded into, which
        then misses every window and hides the record's neighbours.
        """
        if attributes.keys() >= self._index.keys():
            nan = [n for n in self._index if attributes[n] != attributes[n]]
            if not nan:
                return
            raise ValueError(
                f"file {path!r} has NaN attribute(s) "
                f"{', '.join(map(repr, nan))}, which the schema cannot index"
            )
        missing = ", ".join(repr(n) for n in self._index if n not in attributes)
        raise ValueError(
            f"file {path!r} is missing attribute(s) {missing} required by the schema"
        )

    def physical_names(self) -> Tuple[str, ...]:
        """Names of the physical (slowly changing) attributes."""
        return tuple(s.name for s in self.specs if s.kind == "physical")

    def behavioural_names(self) -> Tuple[str, ...]:
        """Names of the behavioural (access-driven) attributes."""
        return tuple(s.name for s in self.specs if s.kind == "behavioural")

    def log_scale_mask(self) -> Tuple[bool, ...]:
        """Per-attribute flag telling whether log transformation applies."""
        return tuple(s.log_scale for s in self.specs)

    def subset(self, names: Sequence[str]) -> "AttributeSchema":
        """Return a new schema restricted to ``names`` (in the given order).

        Used by the automatic configuration component, which builds one
        semantic R-tree per "interesting" attribute subset (§2.4).
        """
        missing = [n for n in names if n not in self._index]
        if missing:
            raise KeyError(f"unknown attributes {missing}; schema has {list(self.names)}")
        return AttributeSchema(tuple(self.spec(n) for n in names))


#: The attribute schema used throughout the evaluation.  It mirrors the
#: attributes named in the paper: physical attributes (file size, creation
#: time, last modification time, last access time, owner) plus behavioural
#: attributes (cumulative read and write volume and access count).
DEFAULT_SCHEMA = AttributeSchema(
    (
        AttributeSpec("size", kind="physical", log_scale=True, unit="bytes"),
        AttributeSpec("ctime", kind="physical", unit="s"),
        AttributeSpec("mtime", kind="physical", unit="s"),
        AttributeSpec("atime", kind="behavioural", unit="s"),
        AttributeSpec("read_bytes", kind="behavioural", log_scale=True, unit="bytes"),
        AttributeSpec("write_bytes", kind="behavioural", log_scale=True, unit="bytes"),
        AttributeSpec("access_count", kind="behavioural", log_scale=True, unit="ops"),
        AttributeSpec("owner", kind="physical", unit="uid"),
    )
)
