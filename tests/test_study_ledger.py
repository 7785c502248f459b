"""Ledger corruption taxonomy: what replay tolerates vs refuses.

The contract under test (see repro/studies/ledger.py): a torn tail —
the residue of a crash mid-append — is tolerated and healed; every
form of actual corruption (bit-flips, schema damage, reordering,
double-commits) is a hard :class:`LedgerError`, because resuming from
untrustworthy state silently double-counts or drops shards.
"""

import json

import pytest

from repro.durable import payload_checksum
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.studies.ledger import (
    LEDGER_RECORD_TYPES,
    LedgerError,
    StudyLedger,
)


def _no_sleep(_delay_s):
    pass


def _ledger(tmp_path, name="study.ledger"):
    return StudyLedger(
        tmp_path / name, retry=RetryPolicy(), sleep=_no_sleep
    )


def _populate(ledger, n_commits=3):
    ledger.append(
        "study-started",
        {"digest": "d" * 64, "name": "t", "n_shards": n_commits},
    )
    for shard in range(n_commits):
        ledger.append(
            "shard-committed",
            {
                "shard": shard,
                "key": "k" * 64,
                "engine": "batch",
                "degraded": False,
                "reason": "",
            },
        )
    ledger.append("study-finished", {"status": "complete"})


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        ledger = _ledger(tmp_path)
        _populate(ledger)
        state = _ledger(tmp_path).replay()
        assert len(state.records) == 5
        assert state.started["n_shards"] == 3
        assert sorted(state.committed) == [0, 1, 2]
        assert state.finished == {"status": "complete"}
        assert not state.torn_tail

    def test_empty_file_is_a_fresh_study(self, tmp_path):
        path = tmp_path / "empty.ledger"
        path.write_text("")
        state = StudyLedger(path).replay()
        assert state.records == []
        assert state.started is None
        assert state.valid_end == 0

    def test_missing_file_is_a_fresh_study(self, tmp_path):
        state = _ledger(tmp_path, "never-written").replay()
        assert state.records == []

    def test_unknown_record_type_rejected_on_append(self, tmp_path):
        with pytest.raises(LedgerError):
            _ledger(tmp_path).append("shard-teleported", {})
        assert "shard-teleported" not in LEDGER_RECORD_TYPES

    def test_sequence_numbers_are_contiguous(self, tmp_path):
        ledger = _ledger(tmp_path)
        _populate(ledger)
        seqs = [
            json.loads(line)["seq"]
            for line in ledger.path.read_text().splitlines()
        ]
        assert seqs == [0, 1, 2, 3, 4]


class TestTornTail:
    def test_truncated_tail_is_tolerated(self, tmp_path):
        ledger = _ledger(tmp_path)
        _populate(ledger)
        raw = ledger.path.read_bytes()
        lines = raw.splitlines(keepends=True)
        # Cut the last record mid-way: the torn residue of a crash.
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        ledger.path.write_bytes(torn)
        state = _ledger(tmp_path).replay()
        assert state.torn_tail
        assert len(state.records) == 4
        assert state.finished is None  # the torn record was the tail

    def test_next_append_heals_the_tail(self, tmp_path):
        ledger = _ledger(tmp_path)
        _populate(ledger)
        raw = ledger.path.read_bytes()
        ledger.path.write_bytes(raw[: len(raw) - 20])
        healed = _ledger(tmp_path)
        healed.replay()
        healed.append("study-finished", {"status": "complete"})
        state = _ledger(tmp_path).replay()
        assert not state.torn_tail
        assert state.finished == {"status": "complete"}
        assert len(state.records) == 5

    def test_mid_stream_garbage_is_fatal(self, tmp_path):
        """Unparseable bytes with records after them are corruption,
        not a crash artefact — crashes only tear the tail."""
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError):
            _ledger(tmp_path).replay()


class TestCorruption:
    def test_bit_flipped_record_is_fatal(self, tmp_path):
        """A changed payload under an unchanged checksum must never
        replay — this is the case only the checksum can catch."""
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        record = json.loads(lines[1])
        record["body"]["shard"] = 17  # checksum left stale
        lines[1] = json.dumps(record, sort_keys=True)
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="checksum"):
            _ledger(tmp_path).replay()

    def test_rewritten_checksum_still_fails_schema_or_order(
        self, tmp_path
    ):
        """Re-checksummed tampering changes the bytes, so the seq
        chain (byte-equality for duplicates) breaks instead."""
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        record = json.loads(lines[1])
        record["seq"] = 3  # now out of order
        del record["checksum"]
        record["checksum"] = payload_checksum(record)
        lines[1] = json.dumps(record, sort_keys=True)
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="sequence"):
            _ledger(tmp_path).replay()

    def test_duplicate_record_is_skipped(self, tmp_path):
        """At-least-once residue: byte-equal redelivery is benign."""
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        lines.insert(2, lines[1])
        ledger.path.write_text("\n".join(lines) + "\n")
        state = _ledger(tmp_path).replay()
        assert len(state.records) == 5
        assert sorted(state.committed) == [0, 1, 2]

    def test_conflicting_duplicate_seq_is_fatal(self, tmp_path):
        """Same seq, different bytes: that is a fork, not a retry."""
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        record = json.loads(lines[1])
        record["body"]["shard"] = 9
        record["checksum"] = ""
        del record["checksum"]
        record["checksum"] = payload_checksum(record)
        lines.insert(2, json.dumps(record, sort_keys=True))
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError):
            _ledger(tmp_path).replay()

    def test_double_commit_of_a_shard_is_fatal(self, tmp_path):
        """Two commit records for one shard would double-count its
        tallies; replay must refuse."""
        ledger = _ledger(tmp_path)
        body = {
            "shard": 0,
            "key": "k" * 64,
            "engine": "batch",
            "degraded": False,
            "reason": "",
        }
        ledger.append("shard-committed", body)
        ledger.append("shard-committed", body)
        with pytest.raises(LedgerError, match="double-counted"):
            _ledger(tmp_path).replay()

    def test_non_object_line_is_fatal_mid_stream(self, tmp_path):
        ledger = _ledger(tmp_path)
        _populate(ledger)
        lines = ledger.path.read_text().splitlines()
        lines.insert(1, json.dumps(["not", "a", "record"]))
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError):
            _ledger(tmp_path).replay()


class TestAppendRobustness:
    def test_transient_faults_are_retried(self, tmp_path):
        calls = []

        class FlakyLedger(StudyLedger):
            def _append_line(self, line):
                calls.append(1)
                if len(calls) < 3:
                    raise TransientHarnessError("disk hiccup")
                super()._append_line(line)

        ledger = FlakyLedger(
            tmp_path / "flaky.ledger",
            retry=RetryPolicy(),
            sleep=_no_sleep,
        )
        ledger.append(
            "study-started",
            {"digest": "d" * 64, "name": "t", "n_shards": 1},
        )
        assert len(calls) == 3
        state = StudyLedger(ledger.path).replay()
        assert state.started is not None

    def test_exhausted_retries_raise_ledger_error(self, tmp_path):
        class DeadLedger(StudyLedger):
            def _append_line(self, line):
                raise OSError("disk gone")

        ledger = DeadLedger(
            tmp_path / "dead.ledger",
            retry=RetryPolicy(),
            sleep=_no_sleep,
        )
        with pytest.raises(LedgerError, match="attempts"):
            ledger.append(
                "study-started",
                {"digest": "d" * 64, "name": "t", "n_shards": 1},
            )

    def test_spec_digest_guard(self, tmp_path):
        ledger = _ledger(tmp_path)
        ledger.append(
            "study-started",
            {"digest": "a" * 64, "name": "t", "n_shards": 1},
        )
        fresh = _ledger(tmp_path)
        assert fresh.require_spec_digest("a" * 64).started is not None
        with pytest.raises(LedgerError, match="refusing to resume"):
            fresh.require_spec_digest("b" * 64)
