"""Command-line harness.

Verbs:
  run <config.yaml>      one experiment from a config file
  table <id> [--seed]    reproduce a benchmark table
  models                 list available models and init strategies

Exit codes: 0 success, 2 config error, 3 degenerate update, 4 stagnant
rarity.
"""

from __future__ import annotations

import argparse
import csv
import stat
import sys
from pathlib import Path

import yaml

from .engine import CeConfig
from .errors import CemixError, ConfigError, DegenerateUpdate, StagnantRarity
from .experiments import (
    CSV_HEADER,
    ExperimentConfig,
    field_types,
    list_models,
    reject_unknown,
    run_experiment,
    table_configs,
)

EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_STAGNANT = 4


# YAML section -> {key: ExperimentConfig field}; "ce" holds CeConfig's fields
_SECTIONS = {"ce": {name: name for name in field_types(CeConfig)},
             "sampling": {"n": "n_final", "seed": "seed"},
             "output": {"path": "output"}}
_TOP_KEYS = ("model", "init", "label", *_SECTIONS)


def _section(raw: dict, name: str) -> dict:
    """One config section; an absent or empty section is {}."""
    section = raw.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, "
                          f"got {type(section).__name__}")
    return section


def load_config(path: str) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict) or "model" not in raw or "init" not in raw:
        raise ConfigError("config needs at least 'model' and 'init' sections")
    reject_unknown(raw, _TOP_KEYS, "top-level key")
    model = dict(_section(raw, "model"))
    try:
        name = model.pop("name")
    except KeyError:
        raise ConfigError("model section needs a 'name'") from None
    # keys the file leaves out keep ExperimentConfig's defaults
    given = {}
    for section, keys in _SECTIONS.items():
        values = _section(raw, section)
        reject_unknown(values, keys, f"'{section}' key")
        given.update((keys[key], value) for key, value in values.items())
    return ExperimentConfig(model=name, model_params=model,
                            init=dict(_section(raw, "init")),
                            label=str(raw.get("label", name)), **given)


def _echo_config(cfg: ExperimentConfig):
    print(f"# model={cfg.model} params={cfg.model_params} init={cfg.init} "
          f"pilot={cfg.pilot_size} iterations={cfg.iterations} "
          f"n={cfg.n_final} weight_floor={cfg.weight_floor} seed={cfg.seed}")


def _print_rows(rows):
    cols = ["table", "row", "K_or_ab", "estimate", "std_error", "rel_error",
            "var_ratio", "flags"]
    cells = [[str(r.table), str(r.row), r.label, f"{r.estimate:.6g}",
              f"{r.std_error:.6g}", f"{r.rel_error:.4%}", f"{r.var_ratio:.4g}",
              "|".join(r.flags) or "-"] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _check_output(path):
    """Reject an output path that cannot take a file, before any row runs: a directory,
    a path in a missing directory (a dangling link's target too) or one the OS refuses."""
    try:
        target = Path(path).resolve()  # RuntimeError on a link loop before Python 3.13
        if not target.parent.is_dir() or stat.S_ISDIR(target.stat().st_mode):
            raise ConfigError(f"output path {path} is a directory or lies in a missing one")
    except FileNotFoundError:  # a new file in an existing directory
        pass
    except (OSError, RuntimeError) as exc:
        raise ConfigError(f"output path {path} is not usable: {exc}") from None


def _write_csv(rows, path):
    # csv quotes a field holding a comma, a quote or a line break, such as a label
    with open(path, "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(r.csv_fields() for r in rows)


def _run(configs, path) -> int:
    """Echo and run each config, then print the rows and write them to the CSV path."""
    if path:
        _check_output(path)
    rows = []
    for cfg in configs:
        _echo_config(cfg)
        rows.append(run_experiment(cfg))
    _print_rows(rows)
    if path:
        _write_csv(rows, path)
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    return _run([cfg], args.output or cfg.output)


def cmd_table(args) -> int:
    return _run(table_configs(args.table_id, seed=args.seed), args.output)


def cmd_models(args) -> int:
    for entry in list_models():
        inits = ", ".join(entry["init_methods"])
        params = ", ".join(entry["parameters"])
        print(f"{entry['name']}\n  parameters: {params}\n  init methods: {inits}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cemix",
        description="Mixture importance sampling experiments via cross-entropy/EM.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a YAML config")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="CSV output path")
    p_run.set_defaults(fn=cmd_run)

    p_table = sub.add_parser("table", help="reproduce a benchmark table (1-9)")
    p_table.add_argument("table_id", type=int)
    p_table.add_argument("--seed", type=int, default=0)
    p_table.add_argument("--output", default=None, help="CSV output path")
    p_table.set_defaults(fn=cmd_table)

    sub.add_parser("models", help="list models and init strategies").set_defaults(fn=cmd_models)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateUpdate as exc:
        where = f" (iteration {exc.iteration})" if exc.iteration else ""
        print(f"degenerate update{where}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except StagnantRarity as exc:
        print(f"stagnant rarity: {exc}", file=sys.stderr)
        return EXIT_STAGNANT
    except CemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
