"""The content-hashed journal: durability and torn writes."""

import json

import pytest

from repro.errors import JournalError
from repro.runtime.checkpoint import JobJournal


@pytest.fixture()
def journal(tmp_path):
    j = JobJournal(tmp_path / "job")
    j.create({"k": 9})
    return j


class TestLifecycle:
    def test_create_then_load_config(self, journal):
        config = journal.load_config()
        assert config["k"] == 9
        assert config["journal_version"] == 3

    def test_create_refuses_existing(self, journal):
        with pytest.raises(JournalError, match="already exists"):
            journal.create({"k": 11})

    def test_load_config_missing(self, tmp_path):
        with pytest.raises(JournalError, match="no job journal"):
            JobJournal(tmp_path / "nope").load_config()

    def test_load_config_rejects_foreign_version(self, journal):
        config = json.loads(journal.config_path.read_text())
        config["journal_version"] = 999
        journal.config_path.write_text(json.dumps(config))
        with pytest.raises(JournalError, match="not supported"):
            journal.load_config()

    def test_rejects_whitespace_stage_names(self, journal):
        with pytest.raises(ValueError):
            journal.append("two words", {})


class TestAppendAndRecords:
    def test_round_trip(self, journal):
        ref = journal.append("hashmap", {"x": 1})
        assert journal.records() == [ref]
        assert journal.load(ref) == {"x": 1}
        latest = journal.latest()
        assert latest[0] == ref and latest[1] == {"x": 1}

    def test_sequence_numbers_monotonic(self, journal):
        refs = [journal.append(f"s{i}", {"i": i}) for i in range(4)]
        assert [r.seq for r in refs] == [0, 1, 2, 3]
        assert journal.records() == refs

    def test_filename_embeds_digest_prefix(self, journal):
        ref = journal.append("hashmap", {"x": 1})
        assert ref.sha256[:12] in ref.filename

    def test_empty_journal_has_no_latest(self, journal):
        assert journal.latest() is None
        assert journal.records() == []


class TestTornWrites:
    """kill -9 can truncate any file; the valid prefix must survive."""

    def test_torn_manifest_line_ends_prefix(self, journal):
        good = journal.append("hashmap", {"x": 1})
        journal.append("debruijn", {"x": 2})
        text = journal.manifest_path.read_text()
        lines = text.splitlines(keepends=True)
        journal.manifest_path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        assert journal.records() == [good]
        assert journal.latest()[1] == {"x": 1}

    def test_corrupted_record_bytes_end_prefix(self, journal):
        good = journal.append("hashmap", {"x": 1})
        bad = journal.append("debruijn", {"x": 2})
        path = journal.records_dir / bad.filename
        path.write_bytes(path.read_bytes()[:-2] + b"!!")
        assert journal.records() == [good]

    def test_missing_record_file_ends_prefix(self, journal):
        good = journal.append("hashmap", {"x": 1})
        bad = journal.append("debruijn", {"x": 2})
        (journal.records_dir / bad.filename).unlink()
        assert journal.records() == [good]

    def test_load_revalidates_hash(self, journal):
        ref = journal.append("hashmap", {"x": 1})
        path = journal.records_dir / ref.filename
        path.write_bytes(b'{"x": 99}')
        with pytest.raises(JournalError, match="hash check"):
            journal.load(ref)

    def test_no_temp_files_left_behind(self, journal):
        journal.append("hashmap", {"x": 1})
        leftovers = list(journal.root.rglob("*.tmp"))
        assert leftovers == []

    def test_torn_decision_line_is_skipped(self, journal):
        journal.log_decision({"action": "retry"})
        with open(journal.decisions_path, "a") as handle:
            handle.write('{"action": "degr')  # torn mid-write
        assert journal.decisions() == [{"action": "retry"}]

