"""Workloads and metric names of the lidkit benchmark.

A workload is one recipe run through ``lidkit.harness.recipes.run_recipe`` on
a fresh ``ExperimentConfig(seed=<seed>, **overrides)``.  The metric lists
here must match ``BENCHMARK.json``; ``run.py`` checks that they do.
"""

from __future__ import annotations

# At the stock net_lr of 0.3 about 2% of seeds train a network with dead
# ReLU regions.  An input there has a zero gradient, so fgm returns it
# unchanged, and train-mode LID then meets a zero distance and raises
# DegenerateProfileError: the known defect that failed attacks crash LID
# extraction, which seed 4 shows.  At 0.1 no such network appeared in 600
# seeds, so every workload trains with it.
STEADY_NET = {"net_lr": 0.1}

# name -> (recipe, ExperimentConfig overrides, why)
WORKLOADS = {
    "table1_default": (
        "table1", {**STEADY_NET},
        "headline recipe at the stock sizes; attack-bound, so attack "
        "batching and microgradnet changes show here"),
    # fig4 sizes n_test itself for a classifier accuracy of 0.9 and raises
    # ValueError below about 0.87; 3000 holds down to an accuracy of 0.46,
    # below that of a constant guess.  At net_lr 0.1 about 2% of seeds train
    # to an accuracy under 0.75 (0.5 at worst in 400 seeds).
    "lid_k_sweep": (
        "fig4", {**STEADY_NET, "attacks": ("fgm",), "n_test": 3000},
        "held-out LID against 1000-row references with k up to 900; "
        "neighbourhood kernel at a large working set, attacks bypassed"),
    "tuning_cv": (
        "fig3", {**STEADY_NET, "attacks": ("fgm", "bim_a")},
        "114 detector fits plus train-mode LID/KD with small self-excluding "
        "references and KD class masks; detector fitting shows here"),
    "adaptive_attack": (
        "table4", {**STEADY_NET, "table4_inputs": 40},
        "detector-aware attack: per-row opt with a single-query LID at every "
        "step, the only batch-of-one use of attacks and neighbourhood"),
}

# name -> (unit, better); measured with tracing off.  error_ratio, the
# seventh end-to-end figure, is the result's failed/attempted pair.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "auc_mean": ("1", "higher"),
    "adv_success_ratio": ("1", "higher"),
}

# every attack kind a workload runs
ATTACK_KINDS = ("fgm", "bim_a", "bim_b", "jsma", "opt", "adaptive_opt")

LAYERS = ("data", "microgradnet", "attacks", "neighborhood", "characteristics",
          "detector", "recipes", "report")


def _per_layer() -> dict:
    """name -> unit of every metric the traced run reports."""
    m = {}
    for kind in ATTACK_KINDS:
        m[f"attacks.run_attack.s.{kind}"] = "s"
        m[f"attacks.run_attack.calls.{kind}"] = "count"
        m[f"attacks.iterations.{kind}"] = "count"
        m[f"attacks.success_ratio.{kind}"] = "1"
        m[f"attacks.failed.{kind}"] = "count"
    m.update({
        "microgradnet.activations_batch.calls": "count",
        "microgradnet.activations_batch.rows": "count",
        "microgradnet.activations_batch.s": "s",
        "microgradnet.backprop_to_input.calls": "count",
        "microgradnet.backprop_to_input.s": "s",
        "microgradnet.input_gradient.calls": "count",
        "microgradnet.input_gradient.s": "s",
        "microgradnet.forward_capture.calls": "count",
        "microgradnet.forward_capture.s": "s",
        "microgradnet.predict.calls": "count",
        "microgradnet.train_sgd.s": "s",
        "data.gen_synthetic.s": "s",
        "recipes.build_pipeline.s": "s",
        "recipes.resamples": "count",
    })
    for kind in ATTACK_KINDS[:-1]:  # adaptive_opt bypasses prepare_batch
        m[f"detector.prepare_batch.s.{kind}"] = "s"
    m.update({
        "detector.features_from.s.train": "s",
        "detector.features_from.s.heldout": "s",
        "neighborhood.knn_profile.calls": "count",
        "neighborhood.knn_profile.s": "s",
        "characteristics.mle_lid.calls": "count",
        "characteristics.mle_lid.s": "s",
        "characteristics.kernel_density.calls": "count",
        "characteristics.kernel_density.s": "s",
        "characteristics.bayes_uncertainty_batch.s": "s",
        "detector.train_detector.calls": "count",
        "detector.train_detector.s": "s",
        "detector.score.s": "s",
        "detector.adaptive_failure_rate.s": "s",
        "detector.lid_feature_row.calls": "count",
        "detector.lid_feature_row.s": "s",
        "report.save_report.s": "s",
        "report.bytes": "B",
    })
    for layer in LAYERS:
        m[f"self_s.{layer}"] = "s"
    m.update({
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.uncovered_s": "s",
        "trace.spans": "count",
    })
    return m


PER_LAYER = _per_layer()
