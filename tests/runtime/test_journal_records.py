"""What a job record holds, and what a restore rebuilds from it.

A stage record journals only what nothing else can derive: the
platform snapshot, the counter's host shadow and the table readback.
The graph and contigs are rebuilt from the readback on restore, the
result record reuses the traverse payload, and the last record is the
next stage's rollback point.
"""

import copy

import pytest

from repro.core.platform import PimAssembler
from repro.errors import UncorrectableFaultError
from repro.assembly.pipeline import PimPipeline
from repro.runtime.jobs import JobConfig, JobRunner

from .test_jobs import K, make_reads, run_fingerprint

RECORD_KEYS = {"stage", "platform", "counter", "counts"}


@pytest.fixture(scope="module")
def reads():
    return make_reads()


def graph_edges(graph) -> list:
    """``(source key, target key, k-mer, count)`` in edge-id order."""
    keys = graph.node_keys
    return list(
        zip(
            keys[graph.sources].tolist(),
            keys[graph.targets].tolist(),
            graph.kmers.tolist(),
            graph.counts.tolist(),
        )
    )


def graph_orders(graph) -> tuple:
    """Node order and per-source edge order (both feed contig naming)."""
    return graph.node_keys.tolist(), graph_edges(graph)


def cut_journal(runner: JobRunner, keep: int) -> None:
    """Keep only the first ``keep`` manifest entries of a journal."""
    manifest = runner.journal.manifest_path
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:keep]))


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_every_record_holds_exactly_the_underived_state(
    reads, tmp_path, engine
):
    runner = JobRunner(
        tmp_path / "job", JobConfig(k=K, engine=engine, ecc="secded")
    )
    runner.run(reads)
    refs = runner.journal.records()
    assert [ref.stage for ref in refs] == [
        "hashmap",
        "debruijn",
        "traverse",
        "result",
    ]
    for ref in refs:
        payload = runner.journal.load(ref)
        assert set(payload) == RECORD_KEYS, ref.stage
        assert payload["stage"] == ref.stage
    traverse, result = (runner.journal.load(ref) for ref in refs[2:])
    assert dict(traverse, stage="result") == result


def test_fresh_job_snapshots_the_platform_four_times(
    reads, tmp_path, monkeypatch
):
    """One fresh-start snapshot plus one per stage record; the result
    record and the rollback points reuse them."""
    calls = []
    original = PimAssembler.state_dict

    def counted(pim):
        calls.append(1)
        return original(pim)

    monkeypatch.setattr(PimAssembler, "state_dict", counted)
    JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)
    assert len(calls) == 4


def test_parent_format_records_resume_identically(
    reads, tmp_path, monkeypatch
):
    """Records that also carry the graph, degrees, contigs and table
    size (the format older versions wrote) resume from every cut to
    the uninterrupted run's output, table size and graph order."""
    config = JobConfig(k=K, engine="bulk")
    golden = JobRunner(tmp_path / "golden", config).run(reads).result
    payload = JobRunner._payload

    def parent_format(runner, stage):
        record = payload(runner, stage)
        state = runner._state
        graph = state.graph
        record["graph"] = None if graph is None else {
            "k": graph.k,
            "nodes": graph.node_keys.tolist(),
            "edges": [list(edge) for edge in graph_edges(graph)],
        }
        record["degrees"] = None if state.degrees is None else [
            [[k, v] for k, v in zip(graph.node_keys.tolist(), degree.tolist())]
            for degree in state.degrees
        ]
        record["contigs"] = None if state.contigs is None else [
            [c.name, str(c.sequence), c.edge_count] for c in state.contigs
        ]
        if state.counter is not None:
            record["kmer_table_size"] = len(state.counter)
        return record

    stages = ("hashmap", "debruijn", "traverse", "result")
    for keep, stage in enumerate(stages, start=1):
        job_dir = tmp_path / f"cut{keep}"
        with monkeypatch.context() as patch:
            patch.setattr(JobRunner, "_payload", parent_format)
            source = JobRunner(job_dir, config)
            source.run(reads)
        cut_journal(source, keep)

        revived = JobRunner(job_dir, config)
        legacy = revived.journal.latest()[1]
        if stage != "hashmap":
            assert legacy["graph"] is not None
        out = revived.resume(reads)
        assert out.report.resumed_from == stage
        assert run_fingerprint(out.result) == run_fingerprint(golden)
        assert out.result.kmer_table_size == golden.kmer_table_size
        assert graph_orders(out.result.graph) == graph_orders(golden.graph)


def test_repeated_rollbacks_reuse_one_record_unchanged(
    reads, tmp_path, monkeypatch
):
    """Traverse fails three times, each naming a fresh sub-array: all
    three rollbacks restore the journaled debruijn record, which no
    attempt may alter."""
    golden = JobRunner(tmp_path / "golden", JobConfig(k=K)).run(reads).result
    original = PimPipeline.run_traverse
    pending = [(0, 0, 0), (0, 0, 1), (0, 0, 2)]

    def fail_after_work(pipeline, state):
        out = original(pipeline, state)
        if pending:
            raise UncorrectableFaultError(pending.pop(0), "compute2", 1)
        return out

    seen = []
    rollback = JobRunner._rollback

    def spy(runner, entry):
        seen.append((entry, copy.deepcopy(entry)))
        rollback(runner, entry)

    monkeypatch.setattr(PimPipeline, "run_traverse", fail_after_work)
    monkeypatch.setattr(JobRunner, "_rollback", spy)
    runner = JobRunner(tmp_path / "job", JobConfig(k=K, resilience="detect"))
    out = runner.run(reads)

    assert len(seen) == 3
    assert all(entry is seen[0][0] for entry, _ in seen)
    assert seen[0][0]["stage"] == "debruijn"
    first = seen[0][1]
    assert all(snapshot == first for _, snapshot in seen)
    assert seen[0][0] == first
    assert first == runner.journal.load(runner.journal.records()[1])
    assert [(c.name, str(c.sequence)) for c in out.result.contigs] == [
        (c.name, str(c.sequence)) for c in golden.contigs
    ]
