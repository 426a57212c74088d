"""Config parsing, synthetic data, reports, and the experiment pipeline."""

import numpy as np
import pytest

from lidkit import attacks, detector
from lidkit.errors import NoDirectionError, ParseError, ShapeError
from lidkit.harness.config import (ExperimentConfig, default_layers,
                                   load_config, parse_config_text,
                                   parse_layers)
from lidkit.harness.data import (GENERATOR_NAMES, Dataset, gen_synthetic,
                                 load_csv, save_csv)
from lidkit.harness.recipes import (RECIPE_NAMES, build_pipeline,
                                    check_split_hygiene, run_recipe)
from lidkit.harness.report import ExperimentReport, load_report, save_report


# --------------------------------------------------------------------------
# configuration


def test_default_config_validates():
    ExperimentConfig().validate()


def test_scalar_keys_override_defaults():
    cfg = parse_config_text("feature.k = 35\nseed=9\n\n# comment\n")
    assert cfg.k == 35
    assert cfg.seed == 9
    assert cfg.sigma == ExperimentConfig().sigma


def test_list_and_range_syntax():
    cfg = parse_config_text(
        "attack.list = fgm, opt\n"
        "tune.grid.k = 10,20\n"
        "tune.grid.sigma = 0.1:0.5:0.1\n"
        "recipe.fig4.sizes = 50,100\n")
    assert cfg.attacks == ("fgm", "opt")
    assert cfg.tune_grid_k == (10, 20)
    assert len(cfg.tune_grid_sigma) == 4
    assert cfg.tune_grid_sigma[0] == 0.1
    assert cfg.fig4_sizes == (50, 100)


def test_dataset_params_keep_integer_shapes():
    cfg = parse_config_text("dataset.param.ambient_dim = 16\n"
                            "dataset.param.noise = 0.2\n")
    assert cfg.dataset_params["ambient_dim"] == 16
    assert isinstance(cfg.dataset_params["ambient_dim"], int)
    assert isinstance(cfg.dataset_params["noise"], float)


def test_attack_overrides_merge_star_then_kind():
    cfg = parse_config_text("attack.*.max_iters = 30\n"
                            "attack.opt.max_iters = 60\n"
                            "attack.opt.opt_c_min = 0.5\n")
    assert cfg.attack_config("opt").max_iters == 60
    assert cfg.attack_config("fgm").max_iters == 30
    assert cfg.attack_config("opt").opt_c_range[0] == 0.5


def test_attack_config_seed_and_k_defaults():
    cfg = ExperimentConfig(seed=3, k=25)
    ac = cfg.attack_config("adaptive_opt")
    assert ac.seed == 3017
    assert ac.adaptive_k == 25
    # seeds are derived from the experiment seed, never set per attack
    with pytest.raises(ParseError, match="unknown attack field"):
        parse_config_text("attack.fgm.seed = 5\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_config_text("seed = 1\nfeature.k = abc\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_config_text("just some words\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config_text("detector.momentum = 0.9\n")
    with pytest.raises(ParseError, match="unknown attack kind"):
        parse_config_text("attack.gan.epsilon = 1\n")
    with pytest.raises(ParseError, match="unknown attack field"):
        parse_config_text("attack.fgm.strength = 1\n")


def test_load_config_reads_files_and_layers_on_base(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("feature.k = 18\n")
    base = parse_config_text("seed = 4\n")
    cfg = load_config(path, base=base)
    assert (cfg.k, cfg.seed) == (18, 4)


@pytest.mark.parametrize("text,match", [
    ("dataset.name = imagenet\n", "unknown dataset"),
    ("batch.size = 15\nfeature.k = 20\n", "k\\+1"),
    ("dataset.n_train = 5\n", "at least 10"),
    ("tune.folds = 1\n", "folds"),
    ("feature.sigma = 0\n", "sigma"),
    ("feature.bu_runs = 1\n", "bu_runs"),
    ("tune.target = bu\n", "lid or kd"),
    ("recipe.table4.inputs = 1\n", "table4_inputs"),
    ("recipe.fig4.sizes = 14, 100\n", "at least 15"),
    ("attack.list = fgm, pgd\n", "unknown attack"),
    ("feature.kinds = lid, entropy\n", "feature kind"),
    ("detector.epochs = 0\n", "detector_epochs must be at least 1"),
    ("detector.lr = 0\n", "detector_lr must lie in"),
    ("detector.lr = 1.5\n", "detector_lr must lie in"),
])
def test_validate_rejects_bad_settings(text, match):
    cfg = parse_config_text(text)
    with pytest.raises(ValueError, match=match):
        cfg.validate()


def test_validate_checks_referenced_paths_exist(tmp_path):
    cfg = ExperimentConfig(net_path=str(tmp_path / "missing.json"))
    with pytest.raises(ValueError, match="net_path"):
        cfg.validate()


def test_layer_grammar_chains_widths():
    specs = parse_layers(default_layers(3), 16)
    widths = [s.out_dim for s in specs]
    assert widths == [64, 64, 64, 64, 64, 64, 32, 32, 3, 3]
    assert specs[0].in_dim == 16
    assert specs[2].kind == "dropout" and specs[2].dropout_rate == 0.2
    assert specs[-1].kind == "softmax"
    with pytest.raises(ValueError, match="unknown layer token"):
        parse_layers("dense:4,sigmoid", 2)
    with pytest.raises(ValueError, match="empty"):
        parse_layers("dense:4,,softmax", 2)


# --------------------------------------------------------------------------
# synthetic data


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_generators_are_deterministic_and_boxed(name):
    a = gen_synthetic(name, 50, seed=11)
    b = gen_synthetic(name, 50, seed=11)
    c = gen_synthetic(name, 50, seed=12)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0
    assert set(np.unique(a.labels)) == {0, 1}


def test_two_moons_embeds_into_higher_dimensions():
    data = gen_synthetic("two_moons", 40, seed=0, ambient_dim=7)
    assert data.features.shape == (40, 7)
    with pytest.raises(ValueError, match="ambient_dim"):
        gen_synthetic("two_moons", 40, seed=0, ambient_dim=1)


def test_blob_classes_and_manifold_dimension_params():
    blobs = gen_synthetic("gaussian_blobs", 30, seed=2, classes=3, dim=4)
    assert blobs.n_classes == 3
    assert blobs.features.shape == (30, 4)
    manifold = gen_synthetic("uniform_manifold", 30, seed=2, m=3, ambient_d=8)
    assert manifold.features.shape == (30, 8)
    with pytest.raises(ValueError, match="m <= ambient_d"):
        gen_synthetic("uniform_manifold", 30, seed=2, m=9, ambient_d=8)


def test_generator_argument_validation():
    with pytest.raises(ValueError, match="at least 10"):
        gen_synthetic("two_moons", 5, seed=0)
    with pytest.raises(ValueError, match="unknown generator"):
        gen_synthetic("swiss_roll", 50, seed=0)
    with pytest.raises(ValueError, match="bad parameters for two_moons"):
        gen_synthetic("two_moons", 50, seed=0, wobble=3)


def test_dataset_container_validation():
    with pytest.raises(ShapeError):
        Dataset(features=np.ones((3, 2)), labels=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.zeros(1))
    with pytest.raises(ValueError, match="non-negative"):
        Dataset(features=np.ones((1, 2)), labels=np.array([-1]))
    data = Dataset(features=np.ones((2, 2)), labels=np.array([0, 4]))
    assert data.n_classes == 5
    with pytest.raises(ValueError):
        data.features[0, 0] = 3.0


def test_dataset_round_trips_through_csv(tmp_path):
    data = gen_synthetic("gaussian_blobs", 25, seed=7, dim=3)
    path = tmp_path / "blobs.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.labels, data.labels)


def test_csv_loader_accepts_headerless_files(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0.25,0.5,1\n0.75,0.5,0\n")
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.features,
                                  [[0.25, 0.5], [0.75, 0.5]])
    np.testing.assert_array_equal(loaded.labels, [1, 0])


@pytest.mark.parametrize("body,match", [
    ("0.1,0.2,1\n0.3,0\n", "line 2"),
    ("0.1,zebra,1\n", "line 1"),
    ("0.1,inf,1\n", "finite"),
    ("0.1,0.2,-1\n", "label"),
    ("0.1,0.2,maybe\n", "label"),
    ("f_0,f_1,label\n", "no data rows"),
])
def test_csv_loader_rejects_malformed_files(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ParseError, match=match):
        load_csv(path)


# --------------------------------------------------------------------------
# reports


def _report():
    return ExperimentReport(
        recipe="table5", config={"seed": 1}, seeds={"master": 1},
        environment={"numpy": np.__version__},
        tables={"summary": [{"attack": "fgm", "rate": 0.5}]},
        series={"curve": [{"series": "fgm", "x": 1.0, "y": 0.25}]},
        notes=["one note"],
        split={"train_ids": [1, 2], "test_ids": [3], "disjoint": True})


def test_report_round_trips_and_writes_csv_views(tmp_path):
    out = tmp_path / "run"
    save_report(_report(), out)
    assert (out / "tables" / "summary.csv").read_text().startswith("attack,rate")
    assert (out / "series" / "curve.csv").read_text().splitlines()[0] == "series,x,y"
    loaded = load_report(out)
    assert loaded == _report()


def test_report_saves_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    save_report(_report(), a)
    save_report(_report(), b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_report_rejects_nonfinite_and_leaky_splits(tmp_path):
    bad = _report()
    bad.tables["summary"][0]["rate"] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        save_report(bad, tmp_path / "x")
    leaky = _report()
    leaky.split = {"train_ids": [1, 2], "test_ids": [2], "disjoint": False}
    with pytest.raises(ValueError, match="overlap"):
        leaky.validate()


def test_split_hygiene_guard():
    check_split_hygiene([1, 2, 3], [4, 5])
    with pytest.raises(RuntimeError, match="contamination"):
        check_split_hygiene([1, 2, 3], [3, 9])


# --------------------------------------------------------------------------
# pipeline assembly


def _tiny_cfg(**kw):
    base = dict(n_train=120, n_test=80, minibatch_size=25, k=8,
                layers="dense:8,relu,dense:2,softmax", net_epochs=8,
                attacks=("fgm",), bu_runs=4, detector_epochs=500,
                tune_grid_k=(5, 8), tune_grid_sigma=(0.1, 1.0),
                table4_inputs=2, fig4_sizes=(20,), fig4_queries=5, seed=2)
    base.update(kw)
    return ExperimentConfig(**base)


def test_pipeline_splits_filters_and_batches(tmp_path):
    pl = build_pipeline(_tiny_cfg())
    assert pl.net.input_dim == pl.dataset.features.shape[1]
    # the attackable pool is the correctly-classified slice after n_train
    assert set(pl.train_ids).isdisjoint(pl.test_ids)
    assert np.all(pl.train_ids >= 120) and np.all(pl.test_ids >= 120)
    assert all(len(b) == 25 for b in pl.train_batches)
    assert pl.reference is pl.train_batches[0]
    accuracy_note = next(n for n in pl.notes if "accuracy" in n)
    kept = int(accuracy_note.split("(")[1].split("/")[0])
    assert len(pl.train_batches) == (int(0.8 * kept)) // 25
    for b in pl.train_batches:
        ids = np.asarray(b.member_ids)
        np.testing.assert_array_equal(b.vectors, pl.dataset.features[ids])


def test_pipeline_rejects_undersized_datasets(tmp_path):
    csv_path = tmp_path / "tiny.csv"
    save_csv(gen_synthetic("two_moons", 30, seed=0), csv_path)
    cfg = _tiny_cfg(dataset_csv=str(csv_path))
    with pytest.raises(ValueError, match="need n_train\\+n_test"):
        build_pipeline(cfg)


def test_pipeline_rejects_mismatched_loaded_network(tmp_path, moons_net):
    from lidkit.microgradnet import save_network
    net_path = tmp_path / "net.json"
    save_network(moons_net, net_path)  # expects 6 input features
    cfg = _tiny_cfg(dataset_name="gaussian_blobs", net_path=str(net_path))
    with pytest.raises(ValueError, match="match the dataset"):
        build_pipeline(cfg)


def test_recipe_name_registry():
    assert RECIPE_NAMES == ("table1", "table2", "table4", "table5",
                            "fig2", "fig3", "fig4")
    with pytest.raises(ValueError, match="unknown recipe"):
        run_recipe("table9", _tiny_cfg())


def test_recipe_wraps_stage_failures():
    # an fgm step this small moves inputs without flipping any prediction,
    # so feature extraction has no positive class and the stage fails
    cfg = _tiny_cfg(attack_overrides={"fgm": {"epsilon": 1e-12}})
    with pytest.raises(RuntimeError, match="failed during fig2"):
        run_recipe("fig2", cfg, write=False)


@pytest.mark.parametrize("recipe", ["table1", "table2"])
@pytest.mark.parametrize("layers", ["dense:8,relu,dense:2,softmax",
                                    "dense:8,relu,dropout:0,dense:2,softmax"])
def test_bu_without_dropout_fails_before_any_attack(monkeypatch, recipe,
                                                    layers):
    # without a dropout rate every stochastic pass agrees, so BU is 0 up to
    # rounding
    prepared = []
    monkeypatch.setattr(detector, "prepare_batch",
                        lambda *args, **kwargs: prepared.append(args))
    cfg = _tiny_cfg(layers=layers, feature_kinds=("lid", "bu"))
    with pytest.raises(ValueError, match="'bu' needs a dropout layer"):
        run_recipe(recipe, cfg, write=False)
    assert not prepared


@pytest.mark.parametrize("kind", ["kd_bu", "combined"])
def test_every_kind_that_reads_bu_needs_dropout(monkeypatch, kind):
    # kd_bu and combined read the BU column too; on a network without
    # dropout it is rounding noise that a detector would fit
    prepared = []
    monkeypatch.setattr(detector, "prepare_batch",
                        lambda *args, **kwargs: prepared.append(args))
    cfg = parse_config_text(f"feature.kinds = {kind}\n", base=_tiny_cfg())
    with pytest.raises(ValueError, match=f"'{kind}' needs a dropout layer"):
        run_recipe("table1", cfg, write=False)
    assert not prepared


def test_fits_stopped_at_the_cap_become_report_notes():
    capped = run_recipe("table1", _tiny_cfg(feature_kinds=("lid", "kd"),
                                            detector_epochs=1), write=False)
    assert [n for n in capped.notes if "cap" in n] == [
        f"fgm/{kind}: detector fit stopped at the cap of 1 Newton "
        f"iterations before converging" for kind in ("lid", "kd")]
    stock = run_recipe("table1", _tiny_cfg(feature_kinds=("lid", "kd")),
                       write=False)
    assert not [n for n in stock.notes if "cap" in n]


def test_table5_reports_attack_statistics(tmp_path):
    cfg = _tiny_cfg(out_dir=str(tmp_path / "t5"))
    report = run_recipe("table5", cfg)
    assert report.recipe == "table5"
    rows = report.tables["perturbation_and_accuracy"]
    assert [r["attack"] for r in rows] == ["fgm"]
    for r in rows:
        assert 0.0 <= r["success_rate"] <= 1.0
        assert r["success_rate"] + r["post_attack_accuracy"] == \
            pytest.approx(1.0, abs=1e-12)
        assert r["mean_l2_perturbation"] >= 0.0
        assert r["mean_iterations"] >= 1.0
    loaded = load_report(cfg.out_dir)
    assert loaded.tables == report.tables
    assert loaded.split["train_ids"] == report.split["train_ids"]


def test_fig4_attacks_only_its_queries_and_the_test_batch(monkeypatch):
    # n_test large enough that fig4 keeps the config's pool size
    pl = build_pipeline(_tiny_cfg(n_test=150))
    assert len(pl.train_batches) >= 2
    # one row of the last train batch, which holds none of fig4's queries
    doomed = pl.train_batches[-1].vectors[0]
    real = attacks.run_attack
    attacked = []

    def run_attack(net, x, label, cfg, refs=None):
        attacked.append(x)
        if np.array_equal(x, doomed):
            raise NoDirectionError("forced")
        return real(net, x, label, cfg, refs=refs)

    monkeypatch.setattr(attacks, "run_attack", run_attack)
    table5 = run_recipe("table5", _tiny_cfg(n_test=150), write=False)
    assert any("zero input gradient" in n for n in table5.notes)
    attacked.clear()
    fig4 = run_recipe("fig4", _tiny_cfg(n_test=150), write=False)
    assert not any("zero input gradient" in n for n in fig4.notes)
    assert len(attacked) == pl.cfg.fig4_queries + len(pl.test_batch)


def test_fig4_sizes_its_pool_on_a_copy_of_the_config():
    cfg = _tiny_cfg(fig4_sizes=(30,), fig4_queries=10)
    report = run_recipe("fig4", cfg, write=False)
    assert cfg.n_test == 80  # the caller's config is left as it was
    assert report.config["n_test"] == 105
    assert any("raised from 80 to 105" in n for n in report.notes)


def test_fig3_prepares_each_batch_once_for_both_parameters(monkeypatch):
    cfg = _tiny_cfg(attacks=("fgm", "bim_a"))
    pl = build_pipeline(cfg)
    real = detector.prepare_batch
    prepared = []

    def prepare_batch(net, batch, acfg, seed, **kwargs):
        prepared.append((acfg.kind, batch.vectors.tobytes(), seed))
        return real(net, batch, acfg, seed, **kwargs)

    monkeypatch.setattr(detector, "prepare_batch", prepare_batch)
    report = run_recipe("fig3", cfg, write=False)
    assert set(report.series) == {"tuning_lid_k", "tuning_kd_sigma"}
    # k and sigma are tuned from one preparation per (attack, batch)
    assert len(prepared) == len(cfg.attacks) * len(pl.train_batches)
    assert len(set(prepared)) == len(prepared)


def test_table4_and_table5_attack_only_the_rows_they_read(monkeypatch):
    cfg = dict(attacks=("fgm",), table4_inputs=3,
               attack_overrides={"*": {"max_iters": 20,
                                       "opt_binary_search_steps": 3,
                                       "opt_c_min": 10.0}})
    pl = build_pipeline(_tiny_cfg(**cfg))
    train_rows = sorted(x.tobytes() for b in pl.train_batches
                        for x in b.vectors)
    attacked = []

    def tally(real):
        def run_attack(net, x, label, acfg, refs=None):
            attacked.append((acfg.kind, x.tobytes()))
            return real(net, x, label, acfg, refs=refs)
        return run_attack

    monkeypatch.setattr(attacks, "run_attack", tally(attacks.run_attack))
    run_recipe("table5", _tiny_cfg(**cfg), write=False)
    assert sorted(x for _, x in attacked) == train_rows
    attacked.clear()
    run_recipe("table4", _tiny_cfg(**cfg), write=False)
    opt_rows = [x for kind, x in attacked if kind == "opt"]
    assert len(opt_rows) == len(train_rows) + 3
    assert opt_rows[-3:] == [x.tobytes() for x in pl.test_batch.vectors[:3]]


def test_sweeps_compute_one_distance_matrix_per_source_and_level(monkeypatch):
    calls = []
    real = detector.squared_distances

    def squared_distances(queries, refs):
        calls.append(len(queries))
        return real(queries, refs)

    monkeypatch.setattr(detector, "squared_distances", squared_distances)
    cfg = _tiny_cfg(n_test=150, fig4_sizes=(20, 30))
    report = run_recipe("fig4", cfg, write=False)
    assert len(report.series["auc_vs_k_by_batch_size"]) == 2 * 9
    depth = len(cfg.layers.split(",")) + 1  # every layer plus the input
    # per (artifact: queries and test batch, reference size, source, level)
    assert len(calls) == 2 * 2 * 3 * depth
    pl = build_pipeline(_tiny_cfg())
    attack_cfgs = [pl.cfg.attack_config("fgm")]
    batches = pl.train_batches[:2]
    calls.clear()
    detector.tune_parameter(pl.net, batches,
                            {"lid": (5, 8, 3), "kd": (0.1, 1.0, 0.3)},
                            attack_cfgs, folds=2)
    # per (kind, attack, batch, source, level), whatever the grids' lengths
    assert len(calls) == 2 * len(batches) * 3 * depth
