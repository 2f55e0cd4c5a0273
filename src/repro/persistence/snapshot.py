"""Deployment snapshots: the physical layout of a built SmartStore.

A snapshot records *where everything ended up* after a build — which files
each storage unit holds, the shape of the semantic R-tree, which servers
host which index units, and the configuration that produced it.  It exists
for inspection, debugging and regression comparison (two builds from the
same inputs should produce the same layout), not as a replacement for
rebuilding: the in-memory structures (LSI model, Bloom filters) are cheap to
reconstruct from the file population with :meth:`SmartStore.build`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.smartstore import SmartStore, config_from_dict, config_to_dict
from repro.persistence.jsonl import schema_from_dict, schema_to_dict

__all__ = [
    "DeploymentSnapshot",
    "snapshot_deployment",
    "save_snapshot",
    "load_snapshot",
    "config_to_dict",
    "config_from_dict",
]

PathLike = Union[str, Path]

SNAPSHOT_FORMAT = "repro.snapshot"
SNAPSHOT_VERSION = 1


@dataclass
class DeploymentSnapshot:
    """A serialisable description of a built deployment.

    Attributes
    ----------
    config:
        The :class:`~repro.core.smartstore.SmartStoreConfig` fields that
        shaped the build (cost-model constants are flattened in).
    schema:
        The attribute schema, as produced by
        :func:`~repro.persistence.jsonl.schema_to_dict`.
    placement:
        ``unit_id -> sorted list of file ids`` stored on that unit.
    tree_nodes:
        One entry per semantic R-tree node: id, level, parent, children,
        hosting server, replica hosts, file count and MBR bounds.
    stats:
        The deployment's :meth:`SmartStore.stats` output at snapshot time.
    """

    config: Dict[str, object]
    schema: Dict[str, object]
    placement: Dict[int, List[int]]
    tree_nodes: List[Dict[str, object]]
    stats: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ derived views
    @property
    def num_units(self) -> int:
        return len(self.placement)

    @property
    def num_files(self) -> int:
        return sum(len(v) for v in self.placement.values())

    def unit_of_file(self, file_id: int) -> Optional[int]:
        """The storage unit holding ``file_id`` (linear scan; for tests/tools)."""
        for unit_id, ids in self.placement.items():
            if file_id in ids:
                return unit_id
        return None

    def node_by_id(self, node_id: int) -> Optional[Dict[str, object]]:
        for node in self.tree_nodes:
            if node["node_id"] == node_id:
                return node
        return None

    def same_layout_as(self, other: "DeploymentSnapshot") -> bool:
        """True when both snapshots place every file on the same unit and
        build an identical tree topology (ignoring runtime stats)."""
        if self.placement != other.placement:
            return False
        def topo(nodes: Sequence[Dict[str, object]]):
            return sorted(
                (n["node_id"], n["level"], n["parent"], tuple(sorted(n["children"])))
                for n in nodes
            )
        return topo(self.tree_nodes) == topo(other.tree_nodes)

    # ------------------------------------------------------------------ (de)serialisation
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": self.config,
            "schema": self.schema,
            "placement": {str(k): v for k, v in self.placement.items()},
            "tree_nodes": self.tree_nodes,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "DeploymentSnapshot":
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a deployment snapshot (format={payload.get('format')!r})"
            )
        return cls(
            config=dict(payload["config"]),  # type: ignore[arg-type]
            schema=dict(payload["schema"]),  # type: ignore[arg-type]
            placement={int(k): list(v) for k, v in dict(payload["placement"]).items()},  # type: ignore[arg-type]
            tree_nodes=list(payload["tree_nodes"]),  # type: ignore[arg-type]
            stats=dict(payload.get("stats", {})),  # type: ignore[arg-type]
        )

    def restore_schema(self):
        """Rebuild the :class:`~repro.metadata.attributes.AttributeSchema`."""
        return schema_from_dict(self.schema)


def snapshot_deployment(store: SmartStore) -> DeploymentSnapshot:
    """Capture the layout of a built deployment."""
    config = config_to_dict(store.config)
    placement = {
        unit_id: sorted(store.cluster.server(unit_id).file_ids().tolist())
        for unit_id in store.cluster.unit_ids()
    }
    tree_nodes: List[Dict[str, object]] = []
    for node in store.tree.nodes:
        tree_nodes.append(
            {
                "node_id": node.node_id,
                "level": node.level,
                "unit_id": node.unit_id,
                "parent": node.parent.node_id if node.parent is not None else None,
                "children": [c.node_id for c in node.children],
                "hosted_on": node.hosted_on,
                "replica_hosts": list(node.replica_hosts),
                "file_count": node.file_count,
                "mbr_lower": list(map(float, node.mbr.lower)) if node.mbr is not None else None,
                "mbr_upper": list(map(float, node.mbr.upper)) if node.mbr is not None else None,
            }
        )
    return DeploymentSnapshot(
        config=config,
        schema=schema_to_dict(store.schema),
        placement=placement,
        tree_nodes=tree_nodes,
        stats={k: v for k, v in store.stats().items()},
    )


def save_snapshot(snapshot: DeploymentSnapshot, path: PathLike) -> None:
    """Write a snapshot as (pretty-printed) JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(snapshot.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: PathLike) -> DeploymentSnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        return DeploymentSnapshot.from_dict(json.load(fh))
