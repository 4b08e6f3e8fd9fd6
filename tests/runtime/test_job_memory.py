"""A finished protected job frees its platform and session by refcount.

Objects caught in reference cycles wait for the cycle collector, so a
loop of jobs grows its peak memory with the number of jobs it runs.
"""

import gc
import random
import weakref

from repro.assembly.pipeline import _sized_device
from repro.genome.sequence import DnaSequence
from repro.observability.session import ObservabilitySession
from repro.runtime.jobs import JobConfig, JobRunner

K = 15


def test_protected_job_frees_itself_without_the_cycle_collector(tmp_path):
    rng = random.Random(11)
    genome = "".join(rng.choice("ACGT") for _ in range(300))
    reads = [DnaSequence(genome[i : i + 50]) for i in range(0, 250, 7)]
    made = []

    def factory(job_reads):
        made.append(_sized_device(job_reads, K))
        return made[-1]

    config = JobConfig(
        k=K,
        engine="bulk",
        ecc="secded",
        retention_interval_s=2e-5,
        resilience="detect-retry-remap",
    )
    gc.collect()
    gc.disable()
    try:
        session = ObservabilitySession()
        with session.activate():
            outcome = JobRunner(
                tmp_path / "journal", config, pim_factory=factory
            ).run(reads)
        assert outcome.result.integrity.windows > 10
        platform, observed = weakref.ref(made[-1]), weakref.ref(session)
        del outcome, made, session
        assert platform() is None
        assert observed() is None
    finally:
        gc.enable()
