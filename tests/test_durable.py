"""The shared crash model, proven once against every durable store.

Each case drives one store through its owner's public API: the
service result cache, the study shard store, surrogate artifacts and
campaign checkpoints.  The reference entry of every case is a file
written by the store code that preceded :mod:`repro.durable`
(``tests/data/durable/``), so the same family also proves the on-disk
formats did not change.  The cache entry's version has since gone to
3 (deterministic answers moved in their last bits at version 2, and
Monte Carlo answers lost their ``degraded_shards`` field at version
3), so its file differs from the one that code wrote in
``schema_version`` and ``checksum`` only.

Checkpoints changed format on purpose when they became a serde-tagged
``checkpoint`` record checked by :func:`repro.durable.record_defect`,
so their reference file was written by that code.  The file the older
code wrote (format v3) is kept beside it, and
:func:`test_checkpoint_reference_holds_the_v3_run` shows the two hold
the same run: the same exposures, events, spawn position, strikes
used and cursor.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import warnings
from pathlib import Path

import pytest

from repro import durable
from repro.runtime.checkpoint import Checkpoint, cleanup_stale_tmp
from repro.runtime.errors import CheckpointError
from repro.service.cache import ResultCache
from repro.service.protocol import Query
from repro.studies.store import ShardResultStore
from repro.transport.surrogate import SurrogateStore

DATA = Path(__file__).parent / "data" / "durable"

#: Fields a "corrupt but valid JSON" edit must leave alone: changing
#: them is a version error, not silent corruption.
_VERSION_FIELDS = ("schema_version",)


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper for tests (never waits)."""


def _parent_record(name: str) -> dict:
    return json.loads((DATA / name).read_text(encoding="utf-8"))


class CacheCase:
    """The FIT service result cache (recovery: the startup sweep)."""

    parent_file = "service-cache-entry.json"
    quarantines = True

    def __init__(self, root: Path) -> None:
        self.root = root / "cache"
        self.cache = ResultCache(self.root, sleep=_no_sleep)
        self.record = _parent_record(self.parent_file)
        self.key = self.record["key"]
        self.expected = self.record["result"]

    def path(self, key: str) -> Path:
        return self.cache.entry_path(key)

    def publish(self) -> Path:
        query = Query.from_params("flux", {"site": "nyc"})
        assert query.cache_key() == self.key
        assert self.cache.put(self.key, query, self.expected)
        return self.path(self.key)

    def read(self, key: str):
        return self.cache.get(key)

    def recover(self) -> None:
        ResultCache(self.root, sleep=_no_sleep)

    def misfile(self) -> str:
        other = "0" * 64
        self.path(other).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(self.path(self.key), self.path(other))
        return other


class ShardCase(CacheCase):
    """The study shard result store (recovery: the next write)."""

    parent_file = "study-shard-result.json"

    def __init__(self, root: Path) -> None:
        self.root = root / "store"
        self.store = ShardResultStore(self.root, sleep=_no_sleep)
        self.record = _parent_record(self.parent_file)
        self.key = self.record["key"]
        self.expected = self.record["payload"]

    def path(self, key: str) -> Path:
        return self.store.entry_path(key)

    def publish(self) -> Path:
        self.store.put(self.key, self.expected)
        return self.path(self.key)

    def read(self, key: str):
        return self.store.get(key)

    def recover(self) -> None:
        self.publish()


class SurrogateCase(CacheCase):
    """Surrogate artifacts, addressed by digest (recovery: next save)."""

    parent_file = "surrogate-artifact.json"

    def __init__(self, root: Path) -> None:
        self.root = root / "surrogates"
        self.record = _parent_record(self.parent_file)
        self.key = self.record["checksum"]
        self.expected = self.key

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def publish(self) -> Path:
        return SurrogateStore(self.root).save(self.record)

    def read(self, key: str):
        return key if key in SurrogateStore(self.root).digests() else None

    def recover(self) -> None:
        self.publish()


class CheckpointCase:
    """Campaign checkpoints: the run's authority, so a bad one raises
    instead of being quarantined (recovery: the runner-start sweep)."""

    parent_file = "campaign-checkpoint.json"
    quarantines = False

    def __init__(self, root: Path) -> None:
        self.root = root
        self.record = _parent_record(self.parent_file)
        self.key = "ck.json"
        self.expected = _checkpoint(self.record)

    def path(self, key: str) -> Path:
        return self.root / key

    def publish(self) -> Path:
        self.expected.save(self.path(self.key))
        return self.path(self.key)

    def read(self, key: str):
        return Checkpoint.load(self.path(key), self.record["digest"])

    def recover(self) -> None:
        cleanup_stale_tmp(self.path(self.key))

    def misfile(self) -> str:
        # A checkpoint's address is its run's digest: another run's
        # valid checkpoint at this path must not resume this run.
        other = _checkpoint(self.record)
        other.digest = "0" * 64
        other.save(self.path(self.key))
        return self.key


def _checkpoint(record: dict) -> Checkpoint:
    return Checkpoint(
        digest=record["digest"],
        cursor=record["cursor"],
        state=record["state"],
        done=record["done"],
        events=record["events"],
    )


CASES = {
    "cache": CacheCase,
    "shard": ShardCase,
    "surrogate": SurrogateCase,
    "checkpoint": CheckpointCase,
}


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path):
    return CASES[request.param](tmp_path)


def _quarantined(root: Path) -> list:
    return sorted(root.rglob("*" + durable.QUARANTINE_SUFFIX))


def _assert_rejected(case, key: str) -> None:
    """A bad entry reads as a miss and is quarantined, except that a
    checkpoint raises and stays where it is."""
    path = case.path(key)
    if not case.quarantines:
        with pytest.raises(CheckpointError):
            case.read(key)
        assert path.exists()
        return
    assert case.read(key) is None
    assert not path.exists()
    assert _quarantined(case.root) == [
        path.with_name(path.name + durable.QUARANTINE_SUFFIX)
    ]


def _bump_first_number(node) -> bool:
    """Change the first numeric value (sorted-key order) in place."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return False
    for field, value in items:
        if field in _VERSION_FIELDS or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            node[field] = value + 1
            return True
        if _bump_first_number(value):
            return True
    return False


def test_published_entry_reads_back_in_the_parent_format(case):
    path = case.publish()
    assert case.read(case.key) == case.expected
    # Only whitespace may differ from the file the older code wrote.
    assert json.loads(path.read_text(encoding="utf-8")) == case.record
    assert not durable.tmp_path(path).exists()


def test_kill_before_publish_leaves_a_tmp_nobody_reads(case):
    path = case.publish()
    text = path.read_text(encoding="utf-8")
    tmp = durable.tmp_path(path)
    tmp.write_text(text[: len(text) // 2], encoding="utf-8")
    assert case.read(case.key) == case.expected
    assert _quarantined(case.root) == []
    case.recover()
    assert not tmp.exists()
    assert case.read(case.key) == case.expected


def test_truncated_entry_is_rejected(case):
    path = case.publish()
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    _assert_rejected(case, case.key)


def test_valid_json_that_is_not_an_object_is_rejected(case):
    path = case.publish()
    path.write_text("[]", encoding="utf-8")
    _assert_rejected(case, case.key)


def test_corrupt_entry_with_valid_json_is_rejected(case):
    path = case.publish()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert _bump_first_number(record)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    _assert_rejected(case, case.key)


def test_entry_filed_under_another_address_is_rejected(case):
    case.publish()
    _assert_rejected(case, case.misfile())


def test_parent_commit_file_loads_without_warning(case):
    path = case.path(case.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(DATA / case.parent_file, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert case.read(case.key) == case.expected
    assert _quarantined(case.root) == []


def test_checkpoint_reference_holds_the_v3_run():
    record = _parent_record(CheckpointCase.parent_file)
    v3 = _parent_record("campaign-checkpoint-v3.json")
    assert record["done"] == v3["exposures"]
    assert record["events"] == v3["events"]
    assert record["state"] == {
        "spawn_position": v3["spawn_position"],
        "events_used": v3["events_used"],
    }
    assert record["cursor"] == v3["next_step"]


def test_surrogate_save_fsyncs_the_artifact_and_its_directory(
    tmp_path, monkeypatch
):
    synced = []
    real_fsync = os.fsync

    def spy(fd: int) -> None:
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append("directory" if is_dir else "file")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    SurrogateStore(tmp_path).save(_parent_record(SurrogateCase.parent_file))
    assert synced == ["file", "directory"]
