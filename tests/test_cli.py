import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import yaml

from cemix import numerics
from cemix.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_STAGNANT, load_config, main
from cemix.errors import ConfigError
from cemix.experiments import (
    ASIAN,
    CEV,
    CSV_HEADER,
    PYRAMID_2,
    RAINBOW_2,
    MODEL_REGISTRY,
    ExperimentConfig,
    build_model,
    coerce,
    list_models,
    run_experiment,
    table_configs,
)
from cemix.numerics import normal_cdf
from cemix.rng import RngStream


def write_config(path, **overrides):
    raw = {
        "model": {"name": "two_sided_tail", "a": 1.0, "b": -1.5},
        "init": {"method": "perturbation", "means": [[0.0], [-0.1]]},
        "ce": {"pilot_size": 5000, "iterations": 3},
        "sampling": {"n": 20000, "seed": 7},
    }
    raw.update(overrides)
    path.write_text(yaml.safe_dump(raw))
    return path


# model sections with two assets, from the benchmark tables
RAINBOW_YAML = {"name": "rainbow", **RAINBOW_2, "strike": 60.0}
PYRAMID_YAML = {"name": "pyramid", **PYRAMID_2, "strike": 20.0}
ASIAN_YAML = {"name": "asian_call", **ASIAN, "strike": 60.0}
CEV_YAML = {"name": "cev_digital", **CEV, "strike": 60.0}


class TestExperiments:
    def test_table_configs_shapes(self):
        assert len(table_configs(1)) == 6
        assert len(table_configs(4)) == 5
        assert len(table_configs(5)) == 6
        with pytest.raises(ConfigError):
            table_configs(10)

    def test_row_seeds_distinct(self):
        seeds = [cfg.seed for cfg in table_configs(4, seed=3)]
        assert len(set(seeds)) == len(seeds)

    def test_ini_ce_row_stream_keys_distinct(self, monkeypatch):
        # the perturbation draw and every rarity stage pilot need their own
        # stream; so does every later pilot and chunk of the row.  Batches
        # are drawn in word blocks, so a stream's words must not overlap
        draws = []  # (phase, key, start, size)
        streams = set()
        fill = RngStream._fill

        def spy_fill(stream, out, start):
            streams.add(stream)
            draws.append((stream.phase, stream._key(), start, out.size))
            return fill(stream, out, start)

        monkeypatch.setattr(RngStream, "_fill", spy_fill)
        cfg = table_configs(5, seed=1)[0]
        assert cfg.init["method"] == "rarity_ce"
        row = run_experiment(cfg)
        init_keys = {k for phase, k, _, _ in draws if phase == "init"}
        assert len(init_keys) == 1 + row.init_stages
        assert len({s._key() for s in streams}) == len(streams)
        by_key = {}
        for _, key, start, size in draws:
            assert 0 <= start and 0 < size < math.inf
            by_key.setdefault(key, []).append((start, start + size))
        for spans in by_key.values():
            spans.sort()
            assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))

    def test_draws_do_not_depend_on_thread_count(self, monkeypatch):
        # more workers than cores, switching often, must not move a result
        cfgs = table_configs(2, seed=1) + table_configs(6, seed=1) + table_configs(9, seed=1)[:1] \
            + table_configs(8, seed=1)[:1] + table_configs(4, seed=1)[:1]
        rows = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for workers in (1, 3):
                with ThreadPoolExecutor(workers) as pool:
                    monkeypatch.setattr(numerics, "_POOL", pool)
                    rows[workers] = [run_experiment(cfg) for cfg in cfgs]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(rows[1], rows[3]):
            assert (a.estimate, a.std_error, a.rel_error, a.var_ratio, a.flags, a.init_stages) \
                == (b.estimate, b.std_error, b.rel_error, b.var_ratio, b.flags, b.init_stages)
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.tilts, b.tilts)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="nope", model_params={}, init={"method": "approx"})

    def test_unknown_init_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="two_sided_tail", model_params=dict(a=1, b=-1),
                             init={"method": "magic"})

    def test_run_experiment_deterministic(self):
        cfg = ExperimentConfig(
            model="two_sided_tail", model_params=dict(a=1.0, b=-1.5),
            init={"method": "approx"}, pilot_size=5000, iterations=3,
            n_final=20000, seed=11)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.estimate == b.estimate and a.std_error == b.std_error
        np.testing.assert_array_equal(a.tilts, b.tilts)
        assert a.csv_fields() == b.csv_fields()

    def test_csv_line_fields(self):
        cfg = ExperimentConfig(
            model="two_sided_tail", model_params=dict(a=1.0, b=-1.5),
            init={"method": "approx"}, pilot_size=5000, iterations=2,
            n_final=10000, seed=1, table=3, row=0, label="a=1 b=-1.5")
        fields = run_experiment(cfg).csv_fields()
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "3" and fields[2] == "a=1 b=-1.5"
        assert ";" in fields[8]

    def test_list_models(self):
        catalog = {entry["name"]: entry for entry in list_models()}
        assert set(catalog) == {"two_sided_tail", "asian_call", "rainbow",
                                "pyramid", "cev_digital"}
        assert catalog["cev_digital"]["init_methods"] == ["approx"]
        assert "strike" in catalog["asian_call"]["parameters"]


    def test_catalog_matches_validator(self):
        # ExperimentConfig accepts a (model, init) pair exactly when
        # list_models lists it
        catalog = {entry["name"]: entry["init_methods"] for entry in list_models()}
        assert set(catalog) == set(MODEL_REGISTRY)
        for name in MODEL_REGISTRY:
            for method in ("perturbation", "rarity_ce", "approx"):
                try:
                    ExperimentConfig(model=name, model_params={}, init={"method": method})
                    accepted = True
                except ConfigError:
                    accepted = False
                assert accepted == (method in catalog[name]), (name, method)
        # build_model takes every parameter the catalog lists and no other name
        parameters = {entry["name"]: entry["parameters"] for entry in list_models()}
        given = {cfg.model: dict(cfg.model_params)
                 for table in (2, 4, 6, 8, 9) for cfg in table_configs(table)[:1]}
        given["asian_call"]["times"] = None
        assert set(given) == set(MODEL_REGISTRY)
        for name, params in given.items():
            assert sorted(params) == sorted(parameters[name]), name
            cfg = ExperimentConfig(model=name, model_params=params, init={"method": "approx"})
            assert build_model(cfg).name == name
            cfg.model_params = {**params, "not_a_parameter": 1.0}
            with pytest.raises(ConfigError, match="not_a_parameter"):
                build_model(cfg)
            # and reads each of them through its annotation
            for param in parameters[name]:
                cfg.model_params = {**params, param: "x"}
                with pytest.raises(ConfigError, match=f"parameter '{param}'"):
                    build_model(cfg)


class TestCoerce:
    def test_whole_number(self):
        assert coerce("n", int, 1.0e4) == 10000 and type(coerce("n", int, 1.0e4)) is int
        assert type(coerce("n", int, np.int64(3))) is int
        for bad in (2.5, True, "3", float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="n must be a whole number"):
                coerce("n", int, bad)

    def test_finite_real(self):
        assert coerce("r", float, 3) == 3.0 and type(coerce("r", float, 3)) is float
        for bad in (False, "0.5", float("nan"), -float("inf"), 10**400, None):
            with pytest.raises(ConfigError, match="r must be a finite number"):
                coerce("r", float, bad)

    def test_array(self):
        np.testing.assert_array_equal(coerce("s0", np.ndarray, [1, 2.5]), [1.0, 2.5])
        assert coerce("s0", np.ndarray, 4).shape == ()
        for bad in ([[1.0, 2.0], [3.0]], ["1", "2"], "1.5", [True, False], [1.0, float("nan")],
                    [1.0, None]):
            with pytest.raises(ConfigError, match="s0 must be a finite numeric array"):
                coerce("s0", np.ndarray, bad)

    def test_optional_str_and_dict(self):
        assert coerce("times", np.ndarray | None, None) is None
        with pytest.raises(ConfigError):
            coerce("times", np.ndarray, None)
        assert coerce("label", str, "K=50") == "K=50"
        with pytest.raises(ConfigError, match="label must be a string"):
            coerce("label", str, 50)
        with pytest.raises(ConfigError, match="init must be a mapping"):
            coerce("init", dict, [("method", "approx")])


class TestLoadConfig:
    def test_full_roundtrip(self, tmp_path):
        path = write_config(tmp_path / "cfg.yaml",
                            output={"path": str(tmp_path / "out.csv")})
        cfg = load_config(str(path))
        assert cfg.model == "two_sided_tail"
        assert cfg.model_params == {"a": 1.0, "b": -1.5}
        assert cfg.pilot_size == 5000 and cfg.iterations == 3
        assert cfg.n_final == 20000 and cfg.seed == 7
        assert cfg.output.endswith("out.csv")

    def test_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "model": {"name": "two_sided_tail", "a": 1.0, "b": -1.5},
            "init": {"method": "approx"},
        }))
        cfg = load_config(str(path))
        assert cfg.pilot_size == 10000 and cfg.n_final == 100000 and cfg.seed == 0

    def test_integral_float_count(self, tmp_path, capsys):
        # YAML 1.1 reads 1.0e+4 as a float, and 1e4 or 1.0e4, with no exponent
        # sign, as a string
        path = tmp_path / "cfg.yaml"
        text = write_config(path).read_text()
        assert "pilot_size: 5000" in text
        path.write_text(text.replace("pilot_size: 5000", "pilot_size: 1.0e+4"))
        cfg = load_config(str(path))
        assert cfg.pilot_size == 10000 and isinstance(cfg.pilot_size, int)
        for written in ("1e4", "1.0e4"):
            path.write_text(text.replace("pilot_size: 5000", f"pilot_size: {written}"))
            assert main(["run", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "pilot_size" in err

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"init": {"method": "approx"}}))
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text(yaml.safe_dump({"model": {"a": 1.0}, "init": {}}))
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestCliMain:
    def test_models_verb(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "two_sided_tail" in out and "init methods" in out

    def test_run_verb_with_csv(self, tmp_path, capsys):
        # a comma in the label is quoted, so the row keeps its 10 fields
        cfg = write_config(tmp_path / "cfg.yaml", label="K=50, fast")
        out_csv = tmp_path / "result.csv"
        assert main(["run", str(cfg), "--output", str(out_csv)]) == 0
        echoed = capsys.readouterr().out
        assert echoed.startswith("# model=two_sided_tail")
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 2
        row = list(csv.reader(lines))[1]
        assert len(row) == len(CSV_HEADER.split(",")) and row[2] == "K=50, fast"

    @pytest.mark.parametrize("section", [{"name": "rainbow", "strike": 55.0},
                                         {"name": "pyramid", "asset_strikes": 52.0,
                                          "strike": 5.0}], ids=["rainbow", "pyramid"])
    def test_one_asset_scalars_run_as_lists(self, tmp_path, section):
        # a scalar s0, sigmas or asset_strikes is one asset, like a one-entry list
        scalar = {**section, "s0": 50.0, "sigmas": 0.2, "corr": [[1.0]], "r": 0.03,
                  "maturity": 1.0}
        listed = {k: [v] if k in ("s0", "sigmas", "asset_strikes") else v
                  for k, v in scalar.items()}
        cls = MODEL_REGISTRY[section["name"]]
        tilts = [cls(**{k: v for k, v in params.items() if k != "name"}).approx_tilts()
                 for params in (scalar, listed)]
        np.testing.assert_array_equal(*tilts)
        rows = []
        for params in (scalar, listed):
            out_csv = tmp_path / "out.csv"
            cfg = write_config(tmp_path / "cfg.yaml", model=params, init={"method": "approx"},
                               ce={"pilot_size": 2000, "iterations": 2},
                               sampling={"n": 20000, "seed": 3})
            assert main(["run", str(cfg), "--output", str(out_csv)]) == 0
            rows.append(out_csv.read_text())
        assert rows[0] == rows[1]

    def test_run_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", str(cfg), "--output", str(a)])
        main(["run", str(cfg), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "model": {"name": "mystery"}, "init": {"method": "approx"}}))
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_config_exit(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.yaml")]) == EXIT_CONFIG
        assert "config error: cannot read" in capsys.readouterr().err

    def test_malformed_yaml_config_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: {name: two_sided_tail, a: 1\n")
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "config error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target", ["absent/x.csv", "."])
    def test_run_output_path_unwritable_config_exit(self, tmp_path, capsys, monkeypatch,
                                                    where, target):
        # rejected before the row runs, so no result is lost
        monkeypatch.setattr("cemix.cli.run_experiment", None)
        out = str(tmp_path / target)
        if where == "flag":
            argv = ["run", str(write_config(tmp_path / "c.yaml")), "--output", out]
        else:
            argv = ["run", str(write_config(tmp_path / "c.yaml", output={"path": out}))]
        assert main(argv) == EXIT_CONFIG
        assert "config error: output path" in capsys.readouterr().err

    def test_table_output_dir_missing_config_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("cemix.cli.run_experiment", None)
        out = str(tmp_path / "absent" / "x.csv")
        assert main(["table", "2", "--output", out]) == EXIT_CONFIG
        assert "config error: output path" in capsys.readouterr().err

    def test_degenerate_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           model={"name": "two_sided_tail", "a": 8.0, "b": -8.0},
                           ce={"pilot_size": 1000, "iterations": 2})
        assert main(["run", str(cfg)]) == EXIT_DEGENERATE
        assert "degenerate" in capsys.readouterr().err

    def test_non_finite_mass_degenerate_exit(self, tmp_path, capsys):
        # the tilt alpha.x of a draw near 1e160 and |alpha|^2 overflow, so
        # the likelihood ratios turn NaN
        cfg = write_config(tmp_path / "cfg.yaml",
                           init={"method": "perturbation", "means": [[1.0e160], [-0.1]]})
        assert main(["run", str(cfg)]) == EXIT_DEGENERATE
        assert "degenerate" in capsys.readouterr().err

    def test_underflowed_lr_runs(self, tmp_path, capsys):
        # draws near 40 get lr = exp(-800) = 0, a zero weight, not an error
        cfg = write_config(tmp_path / "cfg.yaml",
                           init={"method": "perturbation", "means": [[40.0], [-0.1]]},
                           ce={"pilot_size": 2000, "iterations": 3},
                           sampling={"n": 20000, "seed": 1},
                           output={"path": str(tmp_path / "out.csv")})
        assert main(["run", str(cfg)]) == 0
        row = (tmp_path / "out.csv").read_text().splitlines()[1].split(",")
        estimate, se = float(row[3]), float(row[4])
        truth = normal_cdf(-1.0) + normal_cdf(-1.5)  # 0.2254625
        assert abs(estimate - truth) <= 4 * se

    def test_model_section_not_mapping_config_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", model="two_sided_tail")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "'model' must be a mapping" in capsys.readouterr().err

    def test_init_section_not_mapping_config_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", init="approx")
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "'init' must be a mapping" in capsys.readouterr().err

    def test_ce_section_not_mapping_config_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", ce=5)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "'ce' must be a mapping" in capsys.readouterr().err

    def test_rho_out_of_range_config_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml",
                           init={"method": "rarity_ce", "means": [[0.0], [-0.1]],
                                 "rho": 1.5})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        ({"ce": {"pilot_size": "many"}}, "pilot_size"),
        ({"ce": {"pilot_size": 2.7}}, "pilot_size"),
        ({"sampling": {"n": 1}}, "n >= 2"),
        ({"pilot_size": 50}, "pilot_size"),
        ({"ce": {"pilotsize": 50}}, "pilotsize"),
        ({"sampling": {"n": 20000, "sed": 7}}, "sed"),
        ({"init": {"method": "rarity_ce", "means": [[0.0], [-0.1]], "rh0": 0.9}}, "rh0"),
        ({"init": {"method": "rarity_ce", "means": [[0.0], [-0.1]],
                   "adapt_weights": True}}, "adapt_weights"),
        ({"model": {"name": "two_sided_tail", "a": 1.0, "b": -1.5, "c": 3}}, "'c'"),
        ({"model": {"name": "two_sided_tail", "a": 1.0}}, "'b'"),
        ({"init": {"method": "perturbation", "means": [[0.0], [float("nan")]]}}, "finite"),
        ({"init": {"method": "perturbation", "base": "x"}}, "'base'"),
        ({"init": {"method": "perturbation", "scale": "x"}}, "'scale'"),
        ({"model": {**RAINBOW_YAML, "strike": "x"}, "init": {"method": "rarity_ce"}},
         "'strike'"),
        ({"ce": {"pilot_size": 5000, "iterations": 3, "weight_floor": -1.0}}, "weight_floor"),
        ({"model": {**CEV_YAML, "n_steps": 2.5}, "init": {"method": "approx"}}, "'n_steps'"),
        ({"init": {"method": "perturbation", "m": 0}}, "m must be >= 1"),
        ({"model": {**ASIAN_YAML, "n_dates": 0}, "init": {"method": "approx"}}, "n_dates"),
        ({"model": {**ASIAN_YAML, "s0": -50.0}, "init": {"method": "approx"}}, "s0"),
        ({"model": {**RAINBOW_YAML, "sigmas": [0.1, 0.15, 0.2]}, "init": {"method": "approx"}},
         "sigmas"),
        ({"model": {**RAINBOW_YAML, "corr": np.eye(3).tolist()}, "init": {"method": "approx"}},
         "corr"),
        ({"model": {**PYRAMID_YAML, "asset_strikes": [55.0]}, "init": {"method": "approx"}},
         "asset_strikes"),
        ({"init": {"method": "approx", "rho": 1.5}}, "rho"),
        ({"init": {"method": "perturbation", "means": [[0.0, 1.0], [-0.1, 2.0]]}},
         "init means"),
        ({"init": {"method": "perturbation", "m": 2, "base": [0.0, 1.0]}}, "init base"),
        ({"init": {"method": "rarity_ce", "means": [[0.0], [-0.1]], "max_stages": 0}},
         "max_stages"),
        ({"init": {"method": "rarity_ce", "means": [[0.0], [-0.1], [0.3]]}},
         "one component per rarity level: 2, got 3"),
        ({"init": {"method": "rarity_ce", "means": [[0.0]]}},
         "one component per rarity level: 2, got 1"),
        ({"model": RAINBOW_YAML, "init": {"method": "rarity_ce", "m": 3}},
         "one component per rarity level: 2, got 3"),
        ({"model": RAINBOW_YAML, "init": {"method": "rarity_ce", "m": 1}},
         "one component per rarity level: 2, got 1"),
    ], ids=["count_not_number", "count_not_whole", "n_below_2", "unknown_top_key",
            "unknown_ce_key", "unknown_sampling_key", "unknown_init_key",
            "adapt_weights_removed", "unknown_model_param", "missing_model_param",
            "non_finite_means", "init_base_not_number", "init_scale_not_number",
            "model_param_not_number", "negative_weight_floor", "count_param_not_whole",
            "init_m_zero", "asian_no_dates", "asian_negative_s0", "rainbow_sigmas_shape",
            "rainbow_corr_shape", "pyramid_asset_strikes_shape", "rho_out_of_range_approx",
            "init_means_width", "init_base_width", "max_stages_zero", "rarity_ce_three_means",
            "rarity_ce_one_mean", "rainbow_rarity_ce_m3", "rainbow_rarity_ce_m1"])
    def test_bad_input_config_exit(self, tmp_path, capsys, overrides, named):
        cfg = write_config(tmp_path / "cfg.yaml", **overrides)
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err

    def test_stagnant_exit(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.yaml",
            model={"name": "two_sided_tail", "a": 20.0, "b": -20.0},
            init={"method": "rarity_ce", "means": [[0.0], [-0.1]],
                  "rho": 0.05, "max_stages": 2})
        assert main(["run", str(cfg)]) == EXIT_STAGNANT
        assert "stagnant" in capsys.readouterr().err

    def test_table_verb(self, capsys, tmp_path):
        out_csv = tmp_path / "t3.csv"
        assert main(["table", "3", "--seed", "1", "--output", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 4
        assert "var_ratio" in capsys.readouterr().out
