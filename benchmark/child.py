"""One measured lidkit process; ``run.py`` starts a fresh one for every sample.

    python benchmark/child.py run   WORKLOAD SEED OUT_DIR
    python benchmark/child.py trace WORKLOAD SEED OUT_DIR SPANS_NPZ
    python benchmark/child.py setup CONFIG_JSON

``run`` times one ``run_recipe(..., write=True)`` call with tracing off;
``trace`` runs the same call with every layer wrapped in spans and writes the
spans to ``SPANS_NPZ``; ``setup`` times ``import lidkit`` plus
``recipes.build_pipeline`` on the effective config a ``run`` recorded
(``report.config``).  Each prints one JSON object as its last line of
output.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _config(cfg_dict: dict):
    from lidkit.harness.config import ExperimentConfig

    return ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in cfg_dict.items()})


def _auc_mean(report) -> float:
    """Mean of every detector AUC the recipe writes.

    table4 writes no AUC, so there the mean is reported as 1 (not
    applicable); its detection rates swing between 0 and 1 from seed to seed,
    too widely to stand in.  The report digest check still guards its output.
    """
    t = report.tables
    if report.recipe == "table4":
        return 1.0
    if report.recipe == "table1":
        values = [r["auc"] for r in t["auc_by_attack_and_feature"]]
    elif report.recipe == "fig4":
        values = [r["auc"] for r in t["auc_vs_k_by_batch_size"]]
    elif report.recipe == "fig3":
        values = [r["best_mean_auc"] for r in t["tuning_selected"]]
    else:
        raise ValueError(f"no AUC defined for recipe {report.recipe}")
    return sum(values) / len(values)


def _outputs(out_dir: str) -> dict:
    """Validate the written report and summarize what the run produced."""
    from lidkit.harness.report import load_report

    report = load_report(out_dir)
    report.validate()
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    written = sum(os.path.getsize(os.path.join(root, f))
                  for root, _, files in os.walk(out_dir) for f in files)
    return {"report_sha256": digest, "report_bytes": written,
            "auc_mean": _auc_mean(report),
            "resamples": sum("resampled once" in n for n in report.notes),
            "config": report.config}


def _recipe_call(workload: str, seed: int, out_dir: str):
    """The untimed preparation of one run: a fresh config for this run only."""
    from lidkit.harness.config import ExperimentConfig
    from workloads import WORKLOADS

    recipe, overrides, _ = WORKLOADS[workload]
    cfg = ExperimentConfig(seed=seed, out_dir=out_dir, **overrides)
    return recipe, cfg


def run(workload: str, seed: int, out_dir: str) -> dict:
    t0 = time.perf_counter()
    import lidkit  # noqa: F401  (import time is reported)
    from lidkit.harness import recipes
    from tracer import AttackTally

    import_s = time.perf_counter() - t0
    recipe, cfg = _recipe_call(workload, seed, out_dir)
    tally = AttackTally()
    tally.install()
    error = None
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        try:
            recipes.run_recipe(recipe, cfg, write=True)
        except Exception as err:  # the run is reported as failed, not retried
            traceback.print_exc()
            error = f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        tally.restore()
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    result = {"wall_s": wall, "cpu_s": cpu, "import_s": import_s,
              "peak_rss_mb": ru1.ru_maxrss / 1024.0,
              "adv_success_ratio": tally.success_ratio()}
    if error is not None:  # no report; run_recipe has updated cfg in place
        return {**result, "error": error, "config": cfg.to_dict()}
    return {**result, **_outputs(out_dir)}


def setup(config_path: str) -> dict:
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg_dict = json.load(fh)
    t0 = time.perf_counter()
    import lidkit  # noqa: F401
    from lidkit.harness import recipes

    recipes.build_pipeline(_config(cfg_dict))
    return {"setup_s": time.perf_counter() - t0}


def _install(tracer) -> None:
    """Wrap every traced lidkit function at all of its binding sites."""
    from lidkit import (attacks, characteristics, detector, microgradnet,
                        neighborhood)
    from lidkit.harness import data, recipes, report

    for name in ("activations_batch", "backprop_to_input", "input_gradient",
                 "forward_capture", "predict", "train_sgd"):
        tracer.trace(getattr(microgradnet, name), f"microgradnet.{name}",
                     count=(lambda net, xs, *a, **k: len(xs))
                     if name == "activations_batch" else None)
    tracer.trace(attacks.run_attack, "attacks.run_attack",
                 tag=lambda net, x, label, cfg, *a, **k: cfg.kind)
    tracer.trace(neighborhood.knn_profile, "neighborhood.knn_profile")
    for name in ("mle_lid", "kernel_density", "bayes_uncertainty_batch"):
        tracer.trace(getattr(characteristics, name), f"characteristics.{name}")
    tracer.trace(detector.prepare_batch, "detector.prepare_batch",
                 tag=lambda net, batch, cfg, *a, **k: cfg.kind)
    tracer.trace(detector.features_from, "detector.features_from",
                 tag=lambda *a, reference=None, **k:
                 "train" if reference is None else "heldout")
    for name in ("train_detector", "score", "adaptive_failure_rate",
                 "lid_feature_row"):
        tracer.trace(getattr(detector, name), f"detector.{name}")
    tracer.trace(data.gen_synthetic, "data.gen_synthetic")
    tracer.trace(recipes.build_pipeline, "recipes.build_pipeline")
    tracer.trace(recipes.run_recipe, "recipes.run_recipe")
    tracer.trace(report.save_report, "report.save_report")
    # the by-name imports that a home-module patch alone would miss
    for mod, attr in ((attacks, "input_gradient"), (attacks, "forward_capture"),
                      (detector, "run_attack"), (detector, "knn_profile"),
                      (detector, "mle_lid"), (detector, "kernel_density"),
                      (recipes, "gen_synthetic"), (recipes, "save_report")):
        if not hasattr(getattr(mod, attr), "__wrapped__"):
            raise RuntimeError(f"{mod.__name__}.{attr} is not traced")


def _layer_metrics(spans: dict, tally, counters: dict, outputs: dict) -> dict:
    """Every per-layer metric, 0 where the workload never calls the layer.

    ``<span>.s`` and ``<span>.calls`` come from the span named ``<span>``;
    ``<span>.s.<tag>`` and ``<span>.calls.<tag>`` from ``<span>.<tag>``.
    """
    from workloads import ATTACK_KINDS, LAYERS, PER_LAYER

    m = dict.fromkeys(PER_LAYER, 0)
    for metric in PER_LAYER:
        head, _, last = metric.rpartition(".")
        if last in ("calls", "s"):
            span, field = head, last
        else:
            base, _, field = head.rpartition(".")
            span = f"{base}.{last}"
        if field in ("calls", "s") and span in spans:
            m[metric] = spans[span][field]
    for kind in ATTACK_KINDS:
        calls = tally.calls[kind]
        if calls:
            m[f"attacks.iterations.{kind}"] = tally.iterations[kind] / calls
            m[f"attacks.success_ratio.{kind}"] = tally.successes[kind] / calls
        m[f"attacks.failed.{kind}"] = tally.failed[kind]
    m.update(counters)
    m["recipes.resamples"] = outputs["resamples"]
    m["report.bytes"] = outputs["report_bytes"]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = sum(v["self_s"] for k, v in spans.items()
                                   if k.split(".", 1)[0] == layer)
    root = spans["recipes.run_recipe"]
    m["trace.wall_s"] = root["s"]
    m["trace.uncovered_s"] = root["self_s"]
    m["trace.spans"] = sum(v["calls"] for v in spans.values())
    return m


def trace(workload: str, seed: int, out_dir: str, spans_path: str) -> dict:
    import lidkit  # noqa: F401
    from lidkit.harness import recipes
    from tracer import AttackTally, Tracer

    recipe, cfg = _recipe_call(workload, seed, out_dir)
    if cfg.workers != 1:
        raise ValueError("spans assume one thread; run with workers=1")
    tally, tracer = AttackTally(), Tracer()
    tally.install()
    try:
        _install(tracer)
        try:
            recipes.run_recipe(recipe, cfg, write=True)
        finally:
            tracer.restore()
    finally:
        tally.restore()
    outputs = _outputs(out_dir)
    tracer.save(spans_path, run_id=f"{workload}/seed{seed}/pid{os.getpid()}")
    spans = tracer.summary()
    return {"metrics": _layer_metrics(spans, tally, tracer.counters, outputs),
            **outputs}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1])
    elif mode == "run":
        result = run(argv[1], int(argv[2]), argv[3])
    elif mode == "trace":
        result = trace(argv[1], int(argv[2]), argv[3], argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
