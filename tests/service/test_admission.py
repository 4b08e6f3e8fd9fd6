"""Admission control: every shed is typed, every reason is stable."""

import pytest

from repro.errors import AdmissionError, ReproError
from repro.service.admission import AdmissionController, TenantQuota


class TestTenantQuota:
    def test_defaults(self):
        quota = TenantQuota()
        assert quota.max_queued == 8
        assert quota.max_input_bytes is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queued": 0},
            {"max_input_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


class TestAdmissionController:
    def check(self, controller, tenant="acme", **overrides):
        kwargs = {
            "input_bytes": 10,
            "tenant_queued": 0,
            "total_queued": 0,
        }
        kwargs.update(overrides)
        return controller.check(tenant, **kwargs)

    def test_admits_within_quota(self):
        controller = AdmissionController()
        quota = self.check(controller)
        assert quota == TenantQuota()

    def test_explicit_quota_wins_over_default(self):
        controller = AdmissionController(
            quotas={"big": TenantQuota(max_queued=100)}
        )
        assert controller.quota_for("big").max_queued == 100
        assert controller.quota_for("small").max_queued == 8

    @pytest.mark.parametrize(
        "overrides,reason",
        [
            ({"tenant": ""}, "tenant-unknown"),
            ({"tenant": "a b"}, "tenant-unknown"),
            ({"tenant_queued": 8}, "tenant-queue-full"),
            ({"total_queued": 64}, "service-queue-full"),
            (
                {"known_names": {"dup"}, "name": "dup"},
                "duplicate-job",
            ),
        ],
    )
    def test_shed_reasons(self, overrides, reason):
        controller = AdmissionController()
        with pytest.raises(AdmissionError) as info:
            self.check(controller, **overrides)
        assert info.value.reason == reason
        assert isinstance(info.value, ReproError)

    def test_input_size_cap(self):
        controller = AdmissionController(
            default_quota=TenantQuota(max_input_bytes=100)
        )
        self.check(controller, input_bytes=100)
        with pytest.raises(AdmissionError) as info:
            self.check(controller, input_bytes=101)
        assert info.value.reason == "input-too-large"
        assert info.value.tenant == "acme"

    def test_size_unlimited_by_default(self):
        controller = AdmissionController()
        self.check(controller, input_bytes=10**12)

    def test_global_cap_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_total_queued=0)
