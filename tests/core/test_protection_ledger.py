"""The stats ledger is the one tally of the cost of protection.

Every parity check is recorded as ``VRF_AAP``/``VRF_DPU`` cells and
every ECC re-encode / scrubbed row as an ``ECC_ENC``/``ECC_CHK`` cell;
the resilience and integrity reports read those counts back.  On
protected jobs of both engines — live compute faults, retention rot
under SECDED, detect-retry-remap — each stage's report must agree with
the ledger cell for cell.
"""

import pytest

from repro.assembly.pipeline import PimPipeline, PipelineState
from repro.core.resilience import VERIFY_AAP_CYCLES

from tests.runtime.test_jobs import K, ROT, faulty_pim_factory, make_reads

POLICY = "detect-retry-remap"


@pytest.fixture(scope="module")
def reads():
    return make_reads()


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_reports_are_read_off_the_ledger(reads, engine):
    pim = faulty_pim_factory(POLICY, ROT)(reads)
    pipeline = PimPipeline(pim, k=K, engine=engine)
    (_, _, t_aap, e_aap), (_, _, t_dpu, e_dpu) = pim.controller.scheduler.verify
    stats, resilience, integrity = pim.stats, pim.resilience, pim.integrity
    state = PipelineState()
    stages = (
        ("hashmap", lambda: pipeline.run_hashmap(reads, state)),
        ("debruijn", lambda: pipeline.run_debruijn(state)),
        ("traverse", lambda: pipeline.run_traverse(state)),
    )
    for stage, run in stages:
        run()
        for phase in (stage, None):
            counts = resilience.counts(phase)
            checks = counts.verified_ops
            assert checks * VERIFY_AAP_CYCLES == stats.command_count(
                "VRF_AAP", phase
            ), (stage, phase)
            assert counts.verify_time_ns == checks * (t_aap + t_dpu)
            assert counts.verify_energy_nj == pytest.approx(
                checks * (e_aap + e_dpu), rel=1e-12, abs=0.0
            )
        # integrity counts cover the engine's lifetime: the whole ledger
        tallies = integrity.counts()
        assert tallies.rows_encoded == stats.command_count("ECC_ENC"), stage
        assert tallies.rows_scrubbed == stats.command_count("ECC_CHK"), stage
    result = pipeline.result(state)
    # the job really exercised every tally it checks
    assert result.resilience.stages["hashmap"].verified_ops > 0
    assert result.resilience.stages["traverse"].verified_ops > 0
    assert result.resilience.totals.retries > 0
    assert result.integrity.rows_encoded > 0
    assert result.integrity.rows_scrubbed > 0
    assert result.integrity.words_corrected > 0
