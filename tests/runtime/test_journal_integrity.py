"""Snapshot-at-rest integrity: the embedded per-sub-array digest.

The journal manifest hash proves a *record file* arrived intact; the
``sha256`` embedded in each format-2 sub-array entry proves the stored
rows *inside* it did not rot or get tampered with between write and
resume.  A byte-flipped snapshot must fail restore with a typed
:class:`~repro.errors.JournalError`, never resume into a wrong table.
"""

import base64
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.platform import PimAssembler
from repro.errors import JournalError
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import kmer_partition_array
from repro.runtime.checkpoint import JobJournal
from repro.runtime.jobs import JobConfig, JobRunner


def _snapshot() -> dict:
    """A format-2 snapshot with one populated sub-array."""
    pim = PimAssembler.small(subarrays=2, rows=16, cols=32)
    addr = pim.allocate_row((0, 0, 0))
    bits = np.zeros(32, dtype=np.uint8)
    bits[::3] = 1
    pim.controller.write_row(addr, bits)
    return pim.state_dict()


def _flip_one_stored_bit(state: dict) -> dict:
    """Corrupt one bit of one sub-array's packed words in place."""
    entry = next(e for e in state["subarrays"] if "words" in e)
    raw = bytearray(base64.b64decode(entry["words"].encode("ascii")))
    raw[0] ^= 0x04
    entry["words"] = base64.b64encode(bytes(raw)).decode("ascii")
    return state


class TestSnapshotDigest:
    def test_clean_snapshot_restores(self):
        state = _snapshot()
        restored = PimAssembler.from_state(state)
        assert restored.state_dict() == state

    def test_flipped_bit_raises_journal_error(self):
        state = _flip_one_stored_bit(_snapshot())
        with pytest.raises(JournalError, match="integrity digest"):
            PimAssembler.from_state(state)

    def test_digest_free_entry_is_refused(self):
        state = _snapshot()
        for entry in state["subarrays"]:
            entry.pop("sha256", None)
        with pytest.raises(JournalError, match="no sha256"):
            PimAssembler.from_state(state)


class TestThroughTheJournal:
    def test_tampered_record_with_valid_manifest_still_trips(self, tmp_path):
        """An attacker (or rot) that keeps the manifest consistent is
        caught one layer down by the embedded digest."""
        journal = JobJournal(tmp_path / "job")
        journal.create({"k": 9})
        tampered = _flip_one_stored_bit(_snapshot())
        # appended as a fresh record, so the manifest hash is *valid*
        ref = journal.append("hashmap", {"platform": tampered})
        payload = journal.load(ref)  # manifest layer passes
        with pytest.raises(JournalError, match="integrity digest"):
            PimAssembler.from_state(payload["platform"])


K = 9
READS = [
    DnaSequence(text)
    for text in (
        "ACGTTGCAAGGCTTACCGATGCATGCAAGTCCGATAGCTAGGCTAACGTA",
        "GGCTTACCGATGCATGCAAGTCCGATAGCTAGGCTAACGTATTGCACCGT",
        "TTACGGATCCGATGCAAGTCAGGCTAACGTATTGCACCGTAGCATCGGAA",
    )
]


@pytest.fixture(scope="module")
def hashmap_journal(tmp_path_factory) -> Path:
    """A real job journal cut back to its hashmap record."""
    job_dir = tmp_path_factory.mktemp("journal") / "job"
    JobRunner(job_dir, JobConfig(k=K)).run(READS)
    manifest = job_dir / "MANIFEST"
    manifest.write_text(manifest.read_text().splitlines(keepends=True)[0])
    return job_dir


@pytest.fixture(scope="module")
def cli_hashmap_journal(tmp_path_factory) -> "tuple[Path, list[str]]":
    """A CLI job journal cut back to its hashmap record, and the
    ``assemble`` arguments (without ``--job-dir``) that made it."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("cli-journal")
    reads = root / "reads.fa"
    reads.write_text(
        "".join(f">r{i}\n{read}\n" for i, read in enumerate(READS))
    )
    argv = ["assemble", str(reads), "-o", str(root / "o.fa"), "-k", str(K)]
    job_dir = root / "job"
    assert main(argv + ["--job-dir", str(job_dir)]) == 0
    manifest = job_dir / "MANIFEST"
    manifest.write_text(manifest.read_text().splitlines(keepends=True)[0])
    return job_dir, argv


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _words(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype=dtype)


#: what the loader says about each kind of malformed field
MESSAGES = {
    "not-base64": "not valid base64",
    "ragged": "not a whole number of words",
    "partition-order": "not in partition order",
    "counts-length": "counts for",
    "no-sha": "no sha256",
    "words-length": "words, not",
}


def _rewrite_record(job_dir: Path, mutate) -> None:
    """Apply ``mutate`` to the journal's first record and re-hash it into
    the manifest, so the manifest check passes and restore is what must
    catch the damage."""
    journal = JobJournal(job_dir)
    ref = journal.records()[0]
    record = journal.load(ref)
    mutate(record)
    data = json.dumps(record, sort_keys=True).encode("ascii")
    (journal.records_dir / ref.filename).write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    journal.manifest_path.write_text(f"0 {ref.stage} {ref.filename} {digest}\n")
    assert journal.records()[0].sha256 == digest


@st.composite
def record_mutations(draw):
    """A function that breaks one field of a v3 hashmap record."""
    kind = draw(st.sampled_from(sorted(MESSAGES)))
    entry = draw(st.integers(min_value=0))
    if kind in ("not-base64", "ragged"):
        field = draw(st.sampled_from(("kmers", "counts", "words")))
        if kind == "not-base64":
            good = draw(st.text("ABCDabcd0123+/", min_size=0, max_size=16))
            at = draw(st.integers(0, len(good)))
            value = good[:at] + draw(st.sampled_from("!*-_.~ ")) + good[at:]
        else:
            value = _b64(
                draw(st.binary(max_size=40).filter(lambda raw: len(raw) % 8))
            )

        def mutate(record):
            if field == "kmers":
                record["counter"]["kmers"] = value
            elif field == "counts":
                record["counts"] = value
            else:
                subarrays = record["platform"]["subarrays"]
                subarrays[entry % len(subarrays)]["words"] = value

    elif kind == "partition-order":
        picks = draw(st.tuples(st.integers(0), st.integers(0)))

        def mutate(record):
            counter = record["counter"]
            kmers = _words(counter["kmers"], "<u8").copy()
            parts = kmer_partition_array(kmers, len(counter["keys"]))
            i = picks[0] % kmers.size
            others = np.flatnonzero(parts != parts[i])
            j = others[picks[1] % others.size]
            kmers[[i, j]] = kmers[[j, i]]
            counter["kmers"] = _b64(kmers.tobytes())

    elif kind == "counts-length":
        change = draw(st.integers(-4, 4).filter(bool))

        def mutate(record):
            counts = _words(record["counts"], "<i8")
            if change < 0:
                counts = counts[:change]
            else:
                counts = np.concatenate((counts, np.ones(change, "<i8")))
            record["counts"] = _b64(counts.tobytes())

    elif kind == "words-length":
        change = draw(st.integers(-4, 4).filter(bool))

        def mutate(record):
            subarrays = record["platform"]["subarrays"]
            target = subarrays[entry % len(subarrays)]
            words = _words(target["words"], "<u8")
            if change < 0:
                words = words[:change]
            else:
                words = np.concatenate((words, np.zeros(change, "<u8")))
            target["words"] = _b64(words.tobytes())
            target["sha256"] = hashlib.sha256(words.tobytes()).hexdigest()

    else:

        def mutate(record):
            subarrays = record["platform"]["subarrays"]
            del subarrays[entry % len(subarrays)]["sha256"]

    return kind, mutate


class TestMalformedRecords:
    @given(record_mutations())
    @settings(max_examples=40, deadline=None)
    def test_resume_raises_journal_error(self, hashmap_journal, case):
        """Each malformed v3 field is refused by the record loader: the
        mutated record is re-hashed into the manifest, so the manifest
        check passes and restore is what must raise."""
        kind, mutate = case
        with tempfile.TemporaryDirectory() as tmp:
            job_dir = Path(tmp) / "job"
            shutil.copytree(hashmap_journal, job_dir)
            _rewrite_record(job_dir, mutate)
            with pytest.raises(JournalError, match=MESSAGES[kind]):
                JobRunner(job_dir, JobConfig(k=K)).resume(READS)

    @pytest.mark.parametrize(
        "path",
        [
            ("platform",),
            ("counter",),
            ("counts",),
            ("counter", "k"),
            ("counter", "keys"),
            ("counter", "kmers"),
        ]
        + [
            ("platform", key)
            for key in (
                "geometry", "timing", "energy", "subarrays", "next_row",
                "stats", "faults", "resilience",
            )
        ],
        ids="/".join,
    )
    def test_record_missing_a_key_raises_journal_error(
        self, hashmap_journal, cli_hashmap_journal, tmp_path, capsys, path
    ):
        from repro.cli import main

        def mutate(record):
            node = record
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]

        job_dir = tmp_path / "job"
        shutil.copytree(hashmap_journal, job_dir)
        _rewrite_record(job_dir, mutate)
        with pytest.raises(JournalError, match=f"lacks {path[-1]!r}"):
            JobRunner(job_dir, JobConfig(k=K)).resume(READS)
        # the CLI maps the same damage to its journal exit status
        cli_job, argv = cli_hashmap_journal
        job_dir = tmp_path / "cli-job"
        shutil.copytree(cli_job, job_dir)
        _rewrite_record(job_dir, mutate)
        capsys.readouterr()
        assert main(argv + ["--job-dir", str(job_dir), "--resume"]) == 3
        assert f"lacks {path[-1]!r}" in capsys.readouterr().err

    def test_record_with_counts_but_no_counter_raises_journal_error(
        self, hashmap_journal, tmp_path
    ):
        job_dir = tmp_path / "job"
        shutil.copytree(hashmap_journal, job_dir)
        _rewrite_record(job_dir, lambda record: record.update(counter=None))
        with pytest.raises(JournalError, match="no counter"):
            JobRunner(job_dir, JobConfig(k=K)).resume(READS)

    def test_cli_refuses_a_v2_journal_in_one_line(
        self, hashmap_journal, tmp_path, capsys
    ):
        from repro.cli import main

        reads = tmp_path / "reads.fa"
        reads.write_text(
            "".join(f">r{i}\n{read}\n" for i, read in enumerate(READS))
        )
        job_dir = tmp_path / "job"
        shutil.copytree(hashmap_journal, job_dir)
        config = json.loads((job_dir / "job.json").read_text())
        config["journal_version"] = 2
        (job_dir / "job.json").write_text(json.dumps(config))
        argv = ["assemble", str(reads), "-o", str(tmp_path / "o.fa")]
        argv += ["-k", str(K), "--job-dir", str(job_dir), "--resume"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not supported" in err
