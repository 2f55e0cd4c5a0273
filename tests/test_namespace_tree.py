"""Tests for the directory-tree namespace substrate."""

import pytest

from repro.metadata.file_metadata import FileMetadata
from repro.namespace.builder import build_namespace, namespace_statistics
from repro.namespace.tree import DirectoryTree, parent_directories, split_path

from helpers import make_files


def _file(path, **attrs):
    defaults = {
        "size": 100.0, "ctime": 1.0, "mtime": 2.0, "atime": 3.0,
        "read_bytes": 10.0, "write_bytes": 5.0, "access_count": 1.0, "owner": 0.0,
    }
    defaults.update(attrs)
    return FileMetadata(path=path, attributes=defaults)


class TestPathHelpers:
    def test_split_path_absolute(self):
        assert split_path("/a/b/c.txt") == ["a", "b", "c.txt"]

    def test_split_path_relative_and_duplicate_separators(self):
        assert split_path("a//b///c.txt") == ["a", "b", "c.txt"]

    def test_split_path_root(self):
        assert split_path("/") == []

    def test_parent_directories(self):
        assert parent_directories("/a/b/c.txt") == ["/", "/a", "/a/b"]

    def test_parent_directories_top_level_file(self):
        assert parent_directories("/readme.txt") == ["/"]


class TestInsertionAndLookup:
    def test_add_creates_intermediate_directories(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/b/c/data.bin"))
        assert tree.find_directory("/a") is not None
        assert tree.find_directory("/a/b") is not None
        assert tree.find_directory("/a/b/c") is not None
        assert len(tree) == 1
        assert tree.num_directories == 4  # root + a + b + c

    def test_lookup_existing(self):
        tree = DirectoryTree()
        f = _file("/x/y/file.dat")
        tree.add_file(f)
        assert tree.lookup("/x/y/file.dat") is f

    def test_lookup_missing_file(self):
        tree = DirectoryTree()
        tree.add_file(_file("/x/y/file.dat"))
        assert tree.lookup("/x/y/other.dat") is None

    def test_lookup_missing_directory(self):
        tree = DirectoryTree()
        tree.add_file(_file("/x/y/file.dat"))
        assert tree.lookup("/x/z/file.dat") is None

    def test_lookup_empty_path(self):
        assert DirectoryTree().lookup("/") is None

    def test_reinsert_same_path_replaces(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/f.dat", size=1.0))
        tree.add_file(_file("/a/f.dat", size=2.0))
        assert len(tree) == 1
        assert tree.lookup("/a/f.dat").attributes["size"] == 2.0

    def test_empty_path_rejected_by_metadata_model(self):
        with pytest.raises(ValueError):
            FileMetadata(path="", attributes={})

    def test_top_level_file(self):
        tree = DirectoryTree()
        tree.add_file(_file("readme.txt"))
        assert tree.lookup("readme.txt") is not None
        assert tree.lookup("/readme.txt") is not None  # leading slash is equivalent

    def test_lookup_with_depth_counts_components(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/b/c/file.dat"))
        found, touched = tree.lookup_with_depth("/a/b/c/file.dat")
        assert found is not None
        # root + a + b + c (final directory probe)
        assert touched == 4

    def test_lookup_with_depth_missing_stops_early(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/b/c/file.dat"))
        found, touched = tree.lookup_with_depth("/a/zzz/c/file.dat")
        assert found is None
        assert touched == 3  # root, a, failed probe for zzz


class TestRemoval:
    def test_remove_existing(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/f.dat"))
        removed = tree.remove_file("/a/f.dat")
        assert removed is not None
        assert len(tree) == 0
        assert tree.lookup("/a/f.dat") is None

    def test_remove_missing_returns_none(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/f.dat"))
        assert tree.remove_file("/a/missing.dat") is None
        assert tree.remove_file("/b/f.dat") is None
        assert len(tree) == 1

    def test_directories_not_pruned(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/b/f.dat"))
        tree.remove_file("/a/b/f.dat")
        assert tree.find_directory("/a/b") is not None


class TestTraversal:
    def test_subtree_files(self):
        tree = DirectoryTree()
        tree.add_file(_file("/p/a.dat"))
        tree.add_file(_file("/p/s/b.dat"))
        tree.add_file(_file("/q/c.dat"))
        assert {f.filename for f in tree.subtree_files("/p")} == {"a.dat", "b.dat"}
        assert tree.subtree_files("/missing") == []

    def test_iter_files_covers_everything(self):
        files = make_files(40)
        tree = DirectoryTree()
        tree.add_files(files)
        assert {f.file_id for f in tree.iter_files()} == {f.file_id for f in files}

    def test_depth_and_fanout(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/b/c/d/e.dat"))
        assert tree.depth() == 4
        assert DirectoryTree().depth() == 0

    def test_subtree_file_count(self):
        tree = DirectoryTree()
        tree.add_file(_file("/p/a.dat"))
        tree.add_file(_file("/p/s/b.dat"))
        assert tree.find_directory("/p").subtree_file_count() == 2
        assert tree.find_directory("/p").file_count() == 1

    def test_directory_paths_preorder_starts_at_root(self):
        tree = DirectoryTree()
        tree.add_file(_file("/a/f.dat"))
        paths = tree.directory_paths()
        assert paths[0] == "/"
        assert "/a" in paths


class TestBuilderAndStatistics:
    def test_build_namespace_from_files(self):
        files = make_files(60, clusters=4)
        tree = build_namespace(files)
        assert len(tree) == 60
        # make_files puts each cluster under /data/projN
        assert tree.find_directory("/data/proj0") is not None

    def test_build_namespace_from_trace(self):
        from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

        trace = generate_trace(SyntheticTraceConfig(n_files=50, n_requests=100, seed=1))
        tree = build_namespace(trace)
        assert len(tree) == 50

    def test_statistics(self):
        files = make_files(80, clusters=4)
        tree = build_namespace(files)
        stats = namespace_statistics(tree)
        assert stats.num_files == 80
        assert stats.num_directories == tree.num_directories
        assert stats.max_depth >= 2
        assert stats.max_files_per_directory >= stats.mean_files_per_directory
        assert stats.top_level_directories == ("data",)
        d = stats.as_dict()
        assert d["num_files"] == 80

    def test_statistics_empty_tree(self):
        stats = namespace_statistics(DirectoryTree())
        assert stats.num_files == 0
        assert stats.mean_files_per_directory == 0.0
        assert stats.mean_fanout == 0.0
