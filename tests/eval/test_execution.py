"""The Fig. 9 execution model: times, stages, power, trends."""

import pytest

from repro.eval.execution import (
    ExecutionModel,
    MappingConfig,
    StageResult,
    run_all,
)
from repro.eval.workloads import chr14_workload
from repro.platforms import assembly_platforms, make_platform


@pytest.fixture(scope="module")
def results16():
    model = ExecutionModel(chr14_workload(16))
    return {p.name: model.run(p) for p in assembly_platforms()}


@pytest.fixture(scope="module")
def results32():
    model = ExecutionModel(chr14_workload(32))
    return {p.name: model.run(p) for p in assembly_platforms()}


class TestShapes:
    def test_pa_is_fastest(self, results16):
        pa = results16["P-A"].total_time_s
        assert all(
            r.total_time_s >= pa for r in results16.values()
        )

    def test_gpu_speedup_about_5x_at_k16(self, results16):
        ratio = results16["GPU"].total_time_s / results16["P-A"].total_time_s
        assert 4.0 < ratio < 6.5

    def test_hashmap_speedup_52x_at_k16(self, results16):
        """Paper: '~5.2x compared with GPU platform when k=16'."""
        ratio = (
            results16["GPU"].stage("hashmap").time_s
            / results16["P-A"].stage("hashmap").time_s
        )
        assert ratio == pytest.approx(5.2, rel=0.1)

    def test_hashmap_speedup_98x_at_k32(self, results32):
        """Paper: '~9.8x' at k=32."""
        ratio = (
            results32["GPU"].stage("hashmap").time_s
            / results32["P-A"].stage("hashmap").time_s
        )
        assert ratio == pytest.approx(9.8, rel=0.1)

    def test_pim_baseline_slowdowns(self, results16, results32):
        """Paper averages: Ambit 2.9x, D3 2.5x, D1 2.8x slower."""
        for name, target in (("Ambit", 2.9), ("D3", 2.5), ("D1", 2.8)):
            ratios = []
            for res in (results16, results32):
                ratios.append(res[name].total_time_s / res["P-A"].total_time_s)
            avg = sum(ratios) / len(ratios)
            assert avg == pytest.approx(target, rel=0.25), name

    def test_gpu_hashmap_dominates(self, results16):
        """Paper: hashmap >60% of GPU time."""
        gpu = results16["GPU"]
        assert gpu.stage("hashmap").time_s / gpu.total_time_s > 0.6

    def test_gpu_time_grows_with_k(self, results16, results32):
        assert results32["GPU"].total_time_s > results16["GPU"].total_time_s

    def test_time_axis_scale(self, results32):
        """Fig. 9a's axis tops out around 200 s."""
        assert 100 < results32["GPU"].total_time_s < 260


class TestPower:
    def test_pa_power_about_38w(self, results16):
        """Paper: 'on average 38.4W'."""
        assert results16["P-A"].average_power_w == pytest.approx(38.4, rel=0.05)

    def test_gpu_power_ratio_75x(self, results16):
        """Paper: '~7.5x compared with the GPU platform'."""
        ratio = (
            results16["GPU"].average_power_w / results16["P-A"].average_power_w
        )
        assert ratio == pytest.approx(7.5, rel=0.1)

    def test_best_pim_power_ratio_28x(self, results16):
        """Paper: '~2.8x lower power vs. the best PIM platform'."""
        best = min(
            results16[n].average_power_w for n in ("Ambit", "D1", "D3")
        )
        ratio = best / results16["P-A"].average_power_w
        assert ratio == pytest.approx(2.8, rel=0.1)

    def test_pa_lowest_power(self, results16):
        pa = results16["P-A"].average_power_w
        assert all(r.average_power_w >= pa for r in results16.values())


class TestMemoryWallInputs:
    def test_pa_mbr_under_16_percent(self, results16, results32):
        assert results16["P-A"].memory_bottleneck_ratio < 0.16
        assert results32["P-A"].memory_bottleneck_ratio <= 0.17

    def test_gpu_mbr_rises_to_70_percent(self, results32):
        assert results32["GPU"].memory_bottleneck_ratio == pytest.approx(
            0.70, abs=0.05
        )

    def test_pa_has_lowest_mbr(self, results16):
        pa = results16["P-A"].memory_bottleneck_ratio
        assert all(
            r.memory_bottleneck_ratio >= pa for r in results16.values()
        )

    def test_pa_rur_about_65_percent(self, results16):
        assert results16["P-A"].resource_utilisation_ratio == pytest.approx(
            0.65, abs=0.04
        )

    def test_pim_rur_above_45_percent(self, results16):
        for name in ("Ambit", "D1", "D3"):
            assert results16[name].resource_utilisation_ratio > 0.45

    def test_gpu_rur_lowest(self, results16):
        gpu = results16["GPU"].resource_utilisation_ratio
        assert all(
            r.resource_utilisation_ratio >= gpu for r in results16.values()
        )


class TestMechanics:
    def test_stage_lookup(self, results16):
        r = results16["P-A"]
        assert r.stage("hashmap").name == "hashmap"
        with pytest.raises(KeyError):
            r.stage("scaffold")

    def test_run_all_order(self):
        platforms = assembly_platforms()
        results = run_all(platforms, chr14_workload(16))
        assert [r.platform for r in results] == [p.name for p in platforms]

    def test_stage_result_validation(self):
        with pytest.raises(ValueError):
            StageResult(name="x", time_s=-1.0, transfer_s=0.0, power_w=1.0)

    def test_mapping_config_validation(self):
        with pytest.raises(ValueError):
            MappingConfig(chips=0)
        with pytest.raises(ValueError):
            MappingConfig(scan_overhead=0.0)

    def test_pd_speeds_up_pa(self):
        w = chr14_workload(16)
        pd1 = ExecutionModel(w, MappingConfig(parallelism_degree=1))
        pd4 = ExecutionModel(w, MappingConfig(parallelism_degree=4))
        pa = make_platform("P-A")
        assert pd4.run(pa).total_time_s < pd1.run(pa).total_time_s

    def test_more_chips_speed_up(self):
        w = chr14_workload(16)
        few = ExecutionModel(w, MappingConfig(chips=5))
        many = ExecutionModel(w, MappingConfig(chips=20))
        pa = make_platform("P-A")
        assert many.run(pa).total_time_s < few.run(pa).total_time_s

    def test_unsupported_platform_type(self):
        class Fake:
            pass

        with pytest.raises(TypeError):
            ExecutionModel(chr14_workload(16)).run(Fake())

    def test_energy_consistency(self, results16):
        r = results16["P-A"]
        assert r.total_energy_j == pytest.approx(
            sum(s.power_w * s.time_s for s in r.stages)
        )
