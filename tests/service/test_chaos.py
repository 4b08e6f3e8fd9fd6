"""The chaos harness: disturbed runs keep every service promise."""

import pytest

from repro.service.chaos import (
    INJECTIONS,
    ChaosConfig,
    build_workload,
    run_chaos,
)


@pytest.fixture(scope="module")
def chaos_report(tmp_path_factory):
    """One full chaos run shared by the audit assertions below."""
    root = tmp_path_factory.mktemp("chaos")
    return run_chaos(root, ChaosConfig(seed=2020))


class TestWorkload:
    def test_plan_is_seed_deterministic(self):
        a = build_workload(ChaosConfig(seed=1))
        b = build_workload(ChaosConfig(seed=1))
        assert [(j.key, j.injection, j.kill_tick) for j in a] == [
            (j.key, j.injection, j.kill_tick) for j in b
        ]
        c = build_workload(ChaosConfig(seed=2))
        assert [(j.key, j.injection) for j in a] != [
            (j.key, j.injection) for j in c
        ]

    def test_plan_shape(self):
        config = ChaosConfig(tenants=2, jobs_per_tenant=3)
        plan = build_workload(config)
        assert len(plan) == 6
        assert {j.tenant for j in plan} == set(config.tenant_names())
        assert all(j.injection in INJECTIONS for j in plan)


class TestAudit:
    def test_no_violations(self, chaos_report):
        assert chaos_report.violations() == []

    def test_mixture_actually_disturbed_the_run(self, chaos_report):
        mix = chaos_report.summary()["injections"]
        disturbed = sum(v for k, v in mix.items() if k != "none")
        assert disturbed >= 3, f"tame scenario: {mix}"

    def test_exact_accounting(self, chaos_report):
        report = chaos_report.service_report
        total = (
            len(report.tickets)
            + len(report.shed)
            + len(chaos_report.submit_errors)
        )
        assert total == len(chaos_report.planned)

    def test_survivors_resumed_after_kills(self, chaos_report):
        by_key = {j.key: j for j in chaos_report.planned}
        killed_completions = [
            t
            for t in chaos_report.service_report.completed
            if by_key[f"{t.tenant}/{t.name}"].injection == "kill"
        ]
        assert all(t.resumed for t in killed_completions)

    def test_corrupt_inputs_are_typed_submit_errors(self, chaos_report):
        for key, type_name, message in chaos_report.submit_errors:
            assert type_name == "InputError"
            assert "corrupt" in message

    def test_fairness_bound_held(self, chaos_report):
        assert chaos_report.service_report.fairness_violations() == []

    def test_report_renders(self, chaos_report):
        assert "PASS" in str(chaos_report)


class TestOverload:
    def test_floods_end_in_typed_sheds_and_degraded_completions(
        self, tmp_path
    ):
        """Pure overload (no faults): more submissions than capacity must
        end as typed sheds plus completed (possibly degraded) jobs."""
        config = ChaosConfig(
            seed=7,
            tenants=2,
            jobs_per_tenant=5,
            max_queued=2,
            degrade_engine_depth=2,
            weights={"none": 1},
        )
        report = run_chaos(tmp_path, config)
        assert report.violations() == []
        service_report = report.service_report
        assert service_report.shed, "overload scenario shed nothing"
        assert all(
            s.reason == "tenant-queue-full" for s in service_report.shed
        )
        assert len(service_report.completed) == len(service_report.tickets)
        assert any(t.degraded for t in service_report.tickets), (
            "deep backlog never triggered degradation"
        )

    def test_rerun_is_deterministic(self, tmp_path):
        config = ChaosConfig(seed=99, tenants=2, jobs_per_tenant=2)
        first = run_chaos(tmp_path / "one", config)
        second = run_chaos(tmp_path / "two", config)
        assert first.violations() == [] and second.violations() == []

        def fates(report):
            return sorted(
                (t.tenant, t.name, t.state, t.failure_kind)
                for t in report.service_report.tickets
            )

        assert fates(first) == fates(second)
        contigs = lambda r: {  # noqa: E731 - tiny local projection
            f"{t.tenant}/{t.name}": [
                (c.name, str(c.sequence)) for c in t.outcome.result.contigs
            ]
            for t in r.service_report.completed
        }
        assert contigs(first) == contigs(second)


class TestBitrotInjection:
    """Retention rot as a chaos kind: SECDED must carry jobs through."""

    def test_bitrot_jobs_complete_with_the_model_engaged(self, tmp_path):
        config = ChaosConfig(
            seed=7,
            tenants=2,
            jobs_per_tenant=2,
            max_queued=4,
            weights={"none": 1, "bitrot": 3},
        )
        report = run_chaos(tmp_path / "bitrot", config)
        assert report.violations() == []
        assert report.summary()["injections"]["bitrot"] >= 1

        by_key = {j.key: j for j in report.planned}
        survived = [
            t
            for t in report.service_report.completed
            if by_key[f"{t.tenant}/{t.name}"].injection == "bitrot"
        ]
        assert survived, "no bitrot job completed"
        for ticket in survived:
            integrity = ticket.outcome.result.integrity
            assert integrity is not None
            assert integrity.windows > 0
            assert integrity.words_uncorrectable == 0

    def test_default_mixture_leaves_bitrot_out(self):
        # weight 0 by default keeps every pre-existing seeded scenario
        # replaying byte-identically
        plan = build_workload(ChaosConfig(seed=1))
        assert all(j.injection != "bitrot" for j in plan)
