"""Experiment E10 — the two-trees property in sparse random graphs (Lemma 24 / Theorem 25).

Lemma 24: for ``G(n, p)`` with ``p <= c n^eps / n`` and ``eps < 1/4``, a fixed
pair of vertices fails to witness the two-trees property with probability
``O(n^-delta)``.  Theorem 25: consequently almost every such graph admits the
bipolar routings.

The bench sweeps ``n`` in the sparse regime, reporting

* the fraction of samples in which the fixed pair ``(0, 1)`` is good,
* the fraction in which *some* pair witnesses the property (Theorem 25's
  event), and
* Lemma 24's analytic upper bound on the bad-pair probability,

and asserts (a) the measured fixed-pair failure rate does not exceed the
analytic bound by more than sampling noise allows, and (b) the some-pair
success rate is high in the regime, matching the "almost everywhere" claim.

At ``eps=0.2`` the bound clamps to 1 for every ``n`` swept, so check (a)
cannot fail there; the ``eps=0.1`` cells (bounds 0.331 at n=120 and 0.212
at n=240) give it thresholds below 1.
"""

import pytest

from repro.analysis import format_table, sweep_two_trees


@pytest.mark.benchmark(group="random-graphs")
def test_lemma24_theorem25_two_trees_probability(benchmark, experiment_log):
    """E10: empirical two-trees probabilities versus Lemma 24's bound."""

    def run():
        # (eps, sizes) per sweep, all inside Lemma 24's regime eps < 1/4.
        return {
            eps: sweep_two_trees(
                sizes=sizes,
                c=1.0,
                eps=eps,
                samples=12,
                seed=0,
                search_all_pairs=True,
            )
            for eps, sizes in ((0.2, [40, 60, 80, 120]), (0.1, [120, 240]))
        }

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"eps": eps, **sample.as_row()}
        for eps, samples in sweeps.items()
        for sample in samples
    ]
    print()
    print(format_table(rows, caption="E10 / Lemma 24 + Theorem 25: two-trees property in G(n, p)"))
    thresholds = []
    for eps, samples in sweeps.items():
        for sample in samples:
            experiment_log(
                "E10/Theorem25",
                f"P(bad pair) <= {sample.bad_event_bound:.2f}",
                f"some-pair good: {sample.some_pair_good:.2f}",
                f"gnp-{sample.n}-eps{eps}",
            )
            # (a) the fixed-pair failure rate is consistent with the analytic
            # bound (allowing generous sampling slack for 12 samples).
            measured_bad = 1.0 - sample.fixed_pair_good
            threshold = min(1.0, sample.bad_event_bound + 0.35)
            thresholds.append(threshold)
            assert measured_bad <= threshold
            # (b) Theorem 25's event ("some pair is good") holds for the large
            # majority of sampled sparse graphs.
            assert sample.some_pair_good >= 0.5
        # The trend Theorem 25 predicts: the some-pair probability does not
        # degrade as n grows within the regime.
        assert samples[-1].some_pair_good >= samples[0].some_pair_good - 0.3
    # Check (a) can fail on at least one cell.
    assert min(thresholds) < 1.0


@pytest.mark.benchmark(group="random-graphs")
def test_dense_regime_contrast(benchmark, experiment_log):
    """E10b: outside the sparse regime the property disappears (contrast case)."""
    from repro.analysis import sample_two_trees_probability

    def run():
        return sample_two_trees_probability(40, 0.25, samples=8, seed=3)

    sample = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [sample.as_row()],
            caption="E10b: dense contrast (p far above the Lemma 24 regime)",
        )
    )
    experiment_log(
        "E10b/contrast",
        "property should vanish",
        f"some-pair good: {sample.some_pair_good:.2f}",
        "gnp-40-dense",
    )
    assert sample.some_pair_good <= 0.25
