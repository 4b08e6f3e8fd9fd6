"""Ablation A3 — reliability, end to end (Table I -> application).

Derives per-bit fault rates from the Table I Monte-Carlo model and
injects them into the *functional* simulator's k-mer counting: at
+/-10% process variation the two-row mechanism's error rate leaves the
hash table bit-exact, while an equally-stressed TRA-based comparison
mechanism corrupts it — the application-level payoff of the paper's
two-row activation.
"""

from conftest import emit

from repro.assembly import PimKmerCounter, SoftwareKmerCounter
from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.genome import synthetic_chromosome


def run_study(variation_percent: float = 10.0):
    reference = synthetic_chromosome(400, seed=700)
    derived = FaultModel.from_variation(variation_percent, seed=701)
    golden = SoftwareKmerCounter(6)
    golden.add_sequence(reference)

    outcomes = {}
    for label, rate in (
        ("two-row", derived.compute2_rate),
        ("tra-based", derived.tra_rate),
    ):
        pim = PimAssembler.small(subarrays=4, rows=512, cols=64)
        pim.controller.faults = FaultModel(compute2_rate=rate, seed=702)
        counter = PimKmerCounter(pim, 6)
        counter.add_sequence(reference)
        kmers, counts = counter.counts()
        table = dict(zip(kmers.tolist(), counts.tolist()))
        mismatched = sum(
            1
            for key in set(golden.counts()) | set(table)
            if golden.counts().get(key) != table.get(key)
        )
        outcomes[label] = (rate, mismatched)
    return outcomes


def test_ablation_reliability_bridge(benchmark):
    outcomes = benchmark.pedantic(run_study, rounds=1, iterations=1)

    emit(
        "Ablation — Table I rates injected into the functional hashmap "
        "(+/-10% variation)",
        "\n".join(
            f"  {label:>10}: per-bit rate {rate:8.5f} -> "
            f"{mismatched} corrupted table entries"
            for label, (rate, mismatched) in outcomes.items()
        ),
    )

    two_row_rate, two_row_bad = outcomes["two-row"]
    tra_rate, tra_bad = outcomes["tra-based"]
    assert tra_rate > two_row_rate
    assert two_row_bad == 0, "two-row rate must keep the table bit-exact"
    assert tra_bad > 0, "TRA-class rate must corrupt the table"
