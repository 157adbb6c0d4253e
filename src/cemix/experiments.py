"""Experiment orchestration: init -> CE iterations -> final IS.

Holds the benchmark table definitions (estimation problems 1-9) and turns
a single configuration into one result row.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from .engine import CeConfig, run_ce
from .errors import ConfigError
from .estimate import is_estimate, pooled_estimate
from .initialization import InitConfig, initial_mixture, require_init
from .mixture import min_tilt_distance
from .models import AsianCall, CevDigital, PyramidOption, RainbowOption, TwoSidedTail
from .rng import RngStream

MODEL_REGISTRY = {cls.name: cls for cls in
                  (TwoSidedTail, AsianCall, RainbowOption, PyramidOption, CevDigital)}

# final tilt vectors closer than this mark a collapsed mixture
COLLAPSE_DISTANCE = 0.1

# a CE pilot with fewer positive payoffs than this flags low_positive_pilot
LOW_POSITIVE_PILOT = 10

CSV_HEADER = ("table,row,K_or_ab,estimate,std_error,rel_error,var_ratio,"
              "weights,tilts,flags")

_KIND_NOUNS = {int: "a whole number", float: "a finite number",
               np.ndarray: "a finite numeric array", str: "a string", dict: "a mapping"}


def reject_unknown(names, allowed, what: str):
    """Raise ConfigError naming the first of `names` not in `allowed`."""
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown {what} {name!r}; expected one of {', '.join(allowed)}")


@functools.cache
def field_types(cls) -> dict:
    """{field: annotation} of the constructor fields of dataclass cls (cached: do not mutate)."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init}


def coerce(name: str, annotation, value):
    """value read as `annotation`, the type of the config field `name`: int a
    whole number (10000 or YAML's 1.0e+4), float a finite real, np.ndarray a finite
    numeric array or scalar, str and dict by isinstance.  A bool or a string
    is never a number; None passes where the annotation is `X | None`."""
    kind, *rest = get_args(annotation) or (annotation,)
    if value is None and type(None) in rest:
        return None
    if kind in (str, dict) and isinstance(value, kind):
        return value
    if kind is np.ndarray:
        with contextlib.suppress(ValueError):  # a ragged list
            array = np.asarray(value)
            if array.dtype.kind in "iuf" and np.all(np.isfinite(array)):
                return array.astype(float)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        if kind is int and (isinstance(value, numbers.Integral) or float(value).is_integer()):
            return int(value)
        if kind is float and abs(value) <= sys.float_info.max:  # finite, even as an int
            return float(value)
    raise ConfigError(f"{name} must be {_KIND_NOUNS[kind]}, got {value!r}")


def from_config(cls, values: dict, what: str, **given):
    """cls(**values, **given), each of the values read through coerce as the
    field it fills; an unknown or a missing name raises ConfigError."""
    kinds = field_types(cls)
    reject_unknown(values, [name for name in kinds if name not in given], what)
    values = {k: coerce(f"{what} {k!r}", kinds[k], v) for k, v in values.items()}
    try:
        return cls(**values, **given)
    except TypeError as exc:  # a missing field
        raise ConfigError(f"{what}: {exc}") from None


@dataclass(kw_only=True)
class ExperimentConfig(CeConfig):
    """One result row's settings: CeConfig's run settings plus the problem."""

    model: str
    model_params: dict
    init: dict                       # the init: section, read as init_config
    n_final: int = 100000
    seed: int = 0
    output: str = ""
    label: str = ""
    table: int = 0
    row: int = 0
    init_config: InitConfig = field(init=False, repr=False)

    def __post_init__(self):
        for name, kind in field_types(ExperimentConfig).items():
            setattr(self, name, coerce(name, kind, getattr(self, name)))
        super().__post_init__()
        reject_unknown([self.model], MODEL_REGISTRY, "model")
        if self.n_final < 2:
            raise ConfigError("need sample size n >= 2")
        # rarity stages draw pilots of the ce: section's size
        self.init_config = from_config(InitConfig, self.init, "init key",
                                       pilot_size=self.pilot_size)
        require_init(MODEL_REGISTRY[self.model], self.init_config.method)


@dataclass
class ResultRow:
    table: int
    row: int
    label: str
    estimate: float
    std_error: float
    rel_error: float
    var_ratio: float
    weights: np.ndarray
    tilts: np.ndarray
    flags: list
    init_stages: int
    trace: list = field(default=None, repr=False)

    def csv_fields(self) -> list:
        """The row's CSV_HEADER fields as strings."""
        def fmt(v):
            return f"{v:.6g}"

        weights = ";".join(fmt(w) for w in self.weights)
        tilts = ";".join(" ".join(fmt(a) for a in row) for row in self.tilts)
        return [str(self.table), str(self.row), self.label,
                fmt(self.estimate), fmt(self.std_error), fmt(self.rel_error),
                fmt(self.var_ratio), weights, tilts, "|".join(self.flags)]


def build_model(cfg: ExperimentConfig):
    """The configured model; list_models names the parameters it takes."""
    model = from_config(MODEL_REGISTRY[cfg.model], cfg.model_params, f"{cfg.model} parameter")
    means, base = cfg.init_config.means, cfg.init_config.base
    if means is not None and np.atleast_2d(means).shape[1] != model.dim:
        raise ConfigError(f"init means must have {model.dim} columns, got shape {np.shape(means)}")
    if np.size(base) not in (1, model.dim):
        raise ConfigError(f"init base must be a scalar or {model.dim} wide, got {np.shape(base)}")
    return model


def run_experiment(cfg: ExperimentConfig) -> ResultRow:
    """One output row: the final IS draws pooled with CE pilots 2..K (pilot 1 is drawn from
    the init mixture), its errors and variance ratio per pooled draw, and the final mixture."""
    model = build_model(cfg)
    stream = RngStream(cfg.seed)
    theta0, init_stages = initial_mixture(model, cfg.init_config, stream)
    theta, trace = run_ce(model, theta0, cfg, stream)
    report = pooled_estimate(is_estimate(model, theta, cfg.n_final, stream.child(phase="final_is")),
                             [rec.moments for rec in trace[1:]])
    flags = []
    if min_tilt_distance(theta.means) <= COLLAPSE_DISTANCE:
        flags.append("collapse")
    if report.lr_concentrated:
        flags.append("lr_concentration")
    if any(rec.positive_payoffs < LOW_POSITIVE_PILOT for rec in trace):
        flags.append("low_positive_pilot")
    return ResultRow(
        table=cfg.table, row=cfg.row, label=cfg.label,
        estimate=report.estimate, std_error=report.std_error,
        rel_error=report.relative_error,
        var_ratio=report.var_ratio,
        weights=theta.weights, tilts=theta.means,
        flags=flags, init_stages=init_stages, trace=trace,
    )


# ---------------------------------------------------------------------------
# benchmark table definitions
# ---------------------------------------------------------------------------

TWO_SIDED_CASES = ((1.0, -1.5), (2.0, -2.5), (2.0, -3.0))

RAINBOW_2 = dict(s0=[50.0, 45.0], sigmas=[0.1, 0.15],
                 corr=[[1.0, 0.2], [0.2, 1.0]], r=0.03, maturity=1.0)
RAINBOW_4 = dict(
    s0=[45.0, 50.0, 47.0, 50.0], sigmas=[0.1, 0.1, 0.2, 0.2],
    corr=[[1.0, 0.3, -0.2, 0.4],
          [0.3, 1.0, -0.3, 0.1],
          [-0.2, -0.3, 1.0, 0.5],
          [0.4, 0.1, 0.5, 1.0]],
    r=0.02, maturity=0.5)
PYRAMID_2 = dict(s0=[50.0, 45.0], sigmas=[0.2, 0.25], asset_strikes=[55.0, 50.0],
                 corr=[[1.0, 0.3], [0.3, 1.0]], r=0.03, maturity=1.0)
PYRAMID_4 = dict(
    s0=[50.0, 45.0, 45.0, 30.0], sigmas=[0.15, 0.15, 0.2, 0.2],
    asset_strikes=[55.0, 50.0, 50.0, 35.0],
    corr=[[1.0, 0.1, -0.2, 0.3],
          [0.1, 1.0, -0.5, 0.4],
          [-0.2, -0.5, 1.0, 0.2],
          [0.3, 0.4, 0.2, 1.0]],
    r=0.03, maturity=1.0)
ASIAN = dict(s0=50.0, r=0.05, sigma=0.3, maturity=1.0, n_dates=30)
CEV = dict(s0=50.0, h0=48.0, sigma1=0.3, sigma2=0.35, gamma1=0.5, gamma2=0.7,
           rho=0.3, r=0.03, maturity=1.0, c1=1.0, c2=1.0, n_steps=50)

# tables whose rows differ only in the strike, each with the approx init
STRIKE_TABLES = {4: ("asian_call", ASIAN, (50, 60, 70, 80, 90)),
                 7: ("pyramid", PYRAMID_2, (10, 20, 30, 40, 50)),
                 8: ("pyramid", PYRAMID_4, (20, 30, 40, 50, 60)),
                 9: ("cev_digital", CEV, (50, 55, 60, 65, 70))}

# benchmark starting tilts for the scalar tail problem
TWO_SIDED_START = [[0.0], [-0.1]]


def two_sided_config(a, b, init, seed, *, n_final=1_000_000, table=0, row=0) -> ExperimentConfig:
    return ExperimentConfig(
        model="two_sided_tail", model_params=dict(a=a, b=b), init=init,
        pilot_size=20000, n_final=n_final, seed=seed,
        table=table, row=row, label=f"a={a} b={b}")


def table_configs(table_id: int, seed: int = 0) -> list:
    """Configurations for one benchmark table, with its parameters baked in."""
    rows = []
    if table_id == 1:
        # repeated perturbation-init runs; collapse behavior is stochastic
        cases = [TWO_SIDED_CASES[0]] + [TWO_SIDED_CASES[1]] * 3 + [TWO_SIDED_CASES[2]] * 2
        for i, (a, b) in enumerate(cases):
            rows.append(two_sided_config(
                a, b, {"method": "perturbation", "means": TWO_SIDED_START},
                seed * 100 + i, table=1, row=i))
    elif table_id in (2, 3):
        init = ({"method": "rarity_ce", "means": TWO_SIDED_START, "rho": 0.05}
                if table_id == 2 else {"method": "approx"})
        for i, (a, b) in enumerate(TWO_SIDED_CASES):
            rows.append(two_sided_config(a, b, dict(init), seed * 100 + i,
                                         table=table_id, row=i))
    elif table_id in (5, 6):
        params = RAINBOW_2 if table_id == 5 else RAINBOW_4
        iterations = 5 if table_id == 5 else 10
        row = 0
        for strike in (50, 60, 70):
            for method, init in (("INI_CE", {"method": "rarity_ce", "rho": 0.05}),
                                 ("INI_AP", {"method": "approx"})):
                rows.append(ExperimentConfig(
                    model="rainbow",
                    model_params=dict(strike=float(strike), **params),
                    init=dict(init), iterations=iterations, seed=seed * 100 + row,
                    table=table_id, row=row, label=f"K={strike}/{method}"))
                row += 1
    elif table_id in STRIKE_TABLES:
        model, params, strikes = STRIKE_TABLES[table_id]
        for i, strike in enumerate(strikes):
            rows.append(ExperimentConfig(
                model=model, model_params=dict(strike=float(strike), **params),
                init={"method": "approx"}, seed=seed * 100 + i,
                table=table_id, row=i, label=f"K={strike}"))
    else:
        raise ConfigError(f"table id must be 1..9, got {table_id}")
    return rows


def reproduce_table(table_id: int, seed: int = 0) -> list:
    """Run every row of the named benchmark table."""
    return [run_experiment(cfg) for cfg in table_configs(table_id, seed)]


def list_models() -> list:
    """Catalog of models, their parameter names, and supported inits."""
    return [{"name": name, "parameters": list(field_types(cls)), "init_methods": list(cls.inits)}
            for name, cls in MODEL_REGISTRY.items()]
