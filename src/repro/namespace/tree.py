"""The directory tree: the conventional metadata organisation.

A :class:`DirectoryTree` stores :class:`~repro.metadata.file_metadata.FileMetadata`
records under their path, exactly like the directory-tree based metadata
management the paper's introduction describes.  It supports the operations a
conventional metadata service needs — create/lookup/remove by path, listing a
directory, walking a subtree — and exposes the structural statistics
(directory count, depth distribution, files per directory) the namespace
analyses in :mod:`repro.namespace.locality` are built on.

The tree is deliberately *not* semantic: files land wherever their path says,
and any query that cannot be answered from a path prefix must visit every
directory (that is the brute-force behaviour
:class:`~repro.namespace.baseline.DirectoryTreeBaseline` charges for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.metadata.file_metadata import FileMetadata

__all__ = ["DirectoryNode", "DirectoryTree", "split_path", "parent_directories"]


def split_path(path: str) -> List[str]:
    """Split an absolute or relative path into its non-empty components.

    ``"/a/b/c.txt"`` and ``"a/b/c.txt"`` both yield ``["a", "b", "c.txt"]``.
    Consecutive separators are collapsed, which mirrors how POSIX path
    resolution treats them.
    """
    return [part for part in path.split("/") if part]


def parent_directories(path: str) -> List[str]:
    """Every ancestor directory path of ``path``, from the root downwards.

    >>> parent_directories("/a/b/c.txt")
    ['/', '/a', '/a/b']
    """
    parts = split_path(path)
    ancestors = ["/"]
    for i in range(1, len(parts)):
        ancestors.append("/" + "/".join(parts[:i]))
    return ancestors


@dataclass
class DirectoryNode:
    """One directory in the tree.

    Attributes
    ----------
    name:
        The final path component ("" for the root).
    path:
        Full normalised directory path ("/" for the root).
    subdirs:
        Child directories keyed by name.
    files:
        File metadata records stored directly in this directory, keyed by
        filename.
    """

    name: str
    path: str
    subdirs: Dict[str, "DirectoryNode"] = field(default_factory=dict)
    files: Dict[str, FileMetadata] = field(default_factory=dict)

    # ------------------------------------------------------------------ content
    @property
    def is_root(self) -> bool:
        return self.path == "/"

    def file_count(self) -> int:
        """Number of files stored directly in this directory."""
        return len(self.files)

    def subtree_file_count(self) -> int:
        """Number of files stored in this directory and every descendant."""
        total = len(self.files)
        for child in self.subdirs.values():
            total += child.subtree_file_count()
        return total

    def iter_subtree(self) -> Iterator["DirectoryNode"]:
        """Pre-order traversal of this directory and every descendant."""
        yield self
        for child in self.subdirs.values():
            yield from child.iter_subtree()

    def iter_files(self) -> Iterator[FileMetadata]:
        """Every file in this directory and every descendant."""
        for node in self.iter_subtree():
            yield from node.files.values()

    def __repr__(self) -> str:
        return (
            f"DirectoryNode(path={self.path!r}, subdirs={len(self.subdirs)}, "
            f"files={len(self.files)})"
        )


class DirectoryTree:
    """A mutable hierarchical namespace over file metadata.

    The tree auto-creates intermediate directories on insertion (``mkdir -p``
    semantics), which is how the namespace of a trace is reconstructed from
    its file paths.
    """

    def __init__(self) -> None:
        self.root = DirectoryNode(name="", path="/")
        self._num_files = 0
        self._num_dirs = 1  # the root

    # ------------------------------------------------------------------ mutation
    def add_file(self, file: FileMetadata) -> DirectoryNode:
        """Insert ``file`` under its path, creating directories as needed.

        Returns the directory node the file was placed in.  Inserting a
        second file with the same full path replaces the previous record
        (same semantics as re-creating a file).
        """
        parts = split_path(file.path)
        if not parts:
            raise ValueError(f"cannot insert a file with an empty path: {file.path!r}")
        directory = self._ensure_directory(parts[:-1])
        filename = parts[-1]
        if filename not in directory.files:
            self._num_files += 1
        directory.files[filename] = file
        return directory

    def add_files(self, files: Iterable[FileMetadata]) -> None:
        """Insert many files."""
        for f in files:
            self.add_file(f)

    def remove_file(self, path: str) -> Optional[FileMetadata]:
        """Remove the file at ``path``; returns it, or ``None`` if absent.

        Empty directories left behind are *not* pruned — conventional file
        systems keep them until an explicit ``rmdir``.
        """
        parts = split_path(path)
        if not parts:
            return None
        directory = self.find_directory("/" + "/".join(parts[:-1]) if len(parts) > 1 else "/")
        if directory is None:
            return None
        removed = directory.files.pop(parts[-1], None)
        if removed is not None:
            self._num_files -= 1
        return removed

    def _ensure_directory(self, parts: Sequence[str]) -> DirectoryNode:
        node = self.root
        for part in parts:
            child = node.subdirs.get(part)
            if child is None:
                child_path = (node.path.rstrip("/") + "/" + part) or "/"
                child = DirectoryNode(name=part, path=child_path)
                node.subdirs[part] = child
                self._num_dirs += 1
            node = child
        return node

    def ensure_directory(self, path: str) -> DirectoryNode:
        """Create (if needed) and return the directory at ``path``."""
        return self._ensure_directory(split_path(path))

    # ------------------------------------------------------------------ lookup
    def find_directory(self, path: str) -> Optional[DirectoryNode]:
        """Return the directory node at ``path`` or ``None``."""
        node = self.root
        for part in split_path(path):
            node = node.subdirs.get(part)
            if node is None:
                return None
        return node

    def lookup(self, path: str) -> Optional[FileMetadata]:
        """Return the file at the full path ``path`` or ``None``.

        This is what a conventional point lookup does: resolve every path
        component in turn, then the final filename.
        """
        parts = split_path(path)
        if not parts:
            return None
        directory = self.root
        for part in parts[:-1]:
            directory = directory.subdirs.get(part)
            if directory is None:
                return None
        return directory.files.get(parts[-1])

    def lookup_with_depth(self, path: str) -> Tuple[Optional[FileMetadata], int]:
        """Like :meth:`lookup` but also reports how many directories were probed.

        The count includes the root and every directory resolved along the
        path (the last one also answers the filename probe) — the
        directory-I/O cost a conventional metadata server pays per path
        resolution.
        """
        parts = split_path(path)
        if not parts:
            return None, 1
        touched = 1  # the root
        directory = self.root
        for part in parts[:-1]:
            directory = directory.subdirs.get(part)
            touched += 1
            if directory is None:
                return None, touched
        return directory.files.get(parts[-1]), touched

    def subtree_files(self, path: str) -> List[FileMetadata]:
        """Every file stored under ``path`` (recursively)."""
        node = self.find_directory(path)
        if node is None:
            return []
        return list(node.iter_files())

    # ------------------------------------------------------------------ traversal & stats
    def __len__(self) -> int:
        return self._num_files

    @property
    def num_directories(self) -> int:
        return self._num_dirs

    def iter_directories(self) -> Iterator[DirectoryNode]:
        """Pre-order traversal of every directory."""
        return self.root.iter_subtree()

    def iter_files(self) -> Iterator[FileMetadata]:
        """Every file in the namespace."""
        return self.root.iter_files()

    def directory_paths(self) -> List[str]:
        """Paths of every directory, in pre-order."""
        return [node.path for node in self.iter_directories()]

    def depth(self) -> int:
        """Maximum directory depth (the root has depth 0)."""
        best = 0
        stack: List[Tuple[DirectoryNode, int]] = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((child, d + 1) for child in node.subdirs.values())
        return best

    def files_per_directory(self) -> List[int]:
        """Per-directory direct file counts, in pre-order."""
        return [node.file_count() for node in self.iter_directories()]

    def __repr__(self) -> str:
        return f"DirectoryTree(files={self._num_files}, directories={self._num_dirs})"
