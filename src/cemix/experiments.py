"""Experiment orchestration: init -> CE iterations -> final IS + baseline.

Holds the benchmark table definitions (estimation problems 1-9) and turns
a single configuration into one result row.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import CeConfig, run_ce
from .errors import ConfigError
from .estimate import is_estimate, plain_mc_estimate, variance_ratio
from .initialization import RarityConfig, init_approx, init_perturbation, init_rarity_ce
from .mixture import MixtureParam, min_tilt_distance
from .models import (
    AsianCall,
    CevDigital,
    PyramidOption,
    RainbowOption,
    TwoSidedTail,
    require_init,
)
from .rng import RngStream

MODEL_REGISTRY = {cls.name: cls for cls in
                  (TwoSidedTail, AsianCall, RainbowOption, PyramidOption, CevDigital)}

# final tilt vectors closer than this mark a collapsed mixture
COLLAPSE_DISTANCE = 0.1

# a CE pilot with fewer positive payoffs than this flags low_positive_pilot
LOW_POSITIVE_PILOT = 10

CSV_HEADER = ("table,row,K_or_ab,estimate,std_error,rel_error,var_ratio,"
              "weights,tilts,flags")


def reject_unknown(names, allowed, what: str):
    """Raise ConfigError naming the first of `names` not in `allowed`."""
    for name in names:
        if name not in allowed:
            raise ConfigError(f"unknown {what} {name!r}; expected one of {', '.join(allowed)}")


def _whole_number(name: str, value) -> int:
    """value as an int; a float must be integral (YAML writes 10^6 as 1.0e6)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return value


@dataclass(kw_only=True)
class ExperimentConfig(CeConfig):
    """One result row's settings: CeConfig's run settings plus the problem."""

    model: str
    model_params: dict
    init: dict                       # {"method": ..., plus strategy params}
    n_final: int = 100000
    seed: int = 0
    output: str = ""
    label: str = ""
    table: int = 0
    row: int = 0

    def __post_init__(self):
        reject_unknown([self.model], MODEL_REGISTRY, "model")
        for name in ("pilot_size", "iterations", "n_final", "seed"):
            setattr(self, name, _whole_number(name, getattr(self, name)))
        if min(self.pilot_size, self.iterations) < 1 or self.n_final < 2:
            raise ConfigError("need pilot_size >= 1, iterations >= 1 and sample size n >= 2")
        for name, kind, noun in (("weight_floor", numbers.Real, "number"),
                                 ("output", str, "string")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {noun}, got {value!r}")
        reject_unknown(self.init, ("method", "means", "m", "base", "scale", "rho",
                                   "max_stages"), "init key")
        self.init = {**self.init, **{k: _whole_number(f"init {k}", self.init[k])
                                     for k in ("m", "max_stages") if k in self.init}}
        if "means" in self.init:
            try:
                MixtureParam.uniform(self.init["means"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"init means: {exc}") from None
        method = self.init.get("method")
        require_init(MODEL_REGISTRY[self.model], method)
        if method == "rarity_ce":
            self.rarity_config()  # RarityConfig checks rho

    def rarity_config(self) -> RarityConfig:
        """Stage parameters of a rarity_ce init; keys the init dict leaves
        out keep RarityConfig's defaults."""
        return RarityConfig(pilot_size=self.pilot_size,
                            **{k: self.init[k] for k in ("rho", "max_stages") if k in self.init})


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
    config: ExperimentConfig = None
    trace: list = field(default=None, repr=False)

    def csv_line(self) -> str:
        def fmt(v):
            return f"{v:.6g}"

        weights = ";".join(fmt(w) for w in self.weights)
        tilts = ";".join(" ".join(fmt(a) for a in row) for row in self.tilts)
        return ",".join([
            str(self.table), str(self.row), self.label,
            fmt(self.estimate), fmt(self.std_error), fmt(self.rel_error),
            fmt(self.var_ratio), weights, tilts, "|".join(self.flags),
        ])


def build_model(cfg: ExperimentConfig):
    """The configured model; list_models names the parameters it takes."""
    cls = MODEL_REGISTRY[cfg.model]
    reject_unknown(cfg.model_params, [f.name for f in fields(cls)], f"{cfg.model} parameter")
    try:
        return cls(**cfg.model_params)
    except TypeError as exc:  # a missing parameter, or one of the wrong type
        raise ConfigError(f"{cfg.model}: {exc}") from None


def _initial_mixture(model, cfg: ExperimentConfig, stream: RngStream):
    """Resolve the configured init strategy to (theta0, stage count)."""
    init = cfg.init
    method = init["method"]
    if method == "approx":
        return init_approx(model), 0
    if "means" in init:
        start = MixtureParam.uniform(np.asarray(init["means"], dtype=float))
    else:
        start = init_perturbation(
            init.get("m", model.default_components),
            init.get("base", 0.0),
            init.get("scale", 0.1),
            stream.child(phase="init", iteration=0),
            dim=model.dim,
        )
    if method == "perturbation":
        return start, 0
    theta, trace = init_rarity_ce(
        model, cfg.rarity_config(), start, stream.child(phase="init", iteration=1))
    return theta, len(trace)


def run_experiment(cfg: ExperimentConfig) -> ResultRow:
    """One output row: estimate, errors, variance ratio, final mixture."""
    model = build_model(cfg)
    stream = RngStream(cfg.seed)
    theta0, init_stages = _initial_mixture(model, cfg, stream)
    theta, trace = run_ce(model, theta0, cfg, stream)
    report = is_estimate(model, theta, cfg.n_final, stream.child(phase="final_is"))
    baseline = plain_mc_estimate(model, cfg.n_final, stream.child(phase="baseline"))
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
        var_ratio=variance_ratio(baseline, report),
        weights=theta.weights, tilts=theta.means,
        flags=flags, init_stages=init_stages, config=cfg, trace=trace,
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
    elif table_id == 4:
        for i, strike in enumerate((50, 60, 70, 80, 90)):
            rows.append(ExperimentConfig(
                model="asian_call", model_params=dict(strike=float(strike), **ASIAN),
                init={"method": "approx"}, seed=seed * 100 + i,
                table=4, row=i, label=f"K={strike}"))
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
    elif table_id in (7, 8):
        params = PYRAMID_2 if table_id == 7 else PYRAMID_4
        strikes = (10, 20, 30, 40, 50) if table_id == 7 else (20, 30, 40, 50, 60)
        for i, strike in enumerate(strikes):
            rows.append(ExperimentConfig(
                model="pyramid", model_params=dict(strike=float(strike), **params),
                init={"method": "approx"}, seed=seed * 100 + i,
                table=table_id, row=i, label=f"K={strike}"))
    elif table_id == 9:
        for i, strike in enumerate((50, 55, 60, 65, 70)):
            rows.append(ExperimentConfig(
                model="cev_digital", model_params=dict(strike=float(strike), **CEV),
                init={"method": "approx"}, seed=seed * 100 + i,
                table=9, row=i, label=f"K={strike}"))
    else:
        raise ConfigError(f"table id must be 1..9, got {table_id}")
    return rows


def reproduce_table(table_id: int, seed: int = 0) -> list:
    """Run every row of the named benchmark table."""
    return [run_experiment(cfg) for cfg in table_configs(table_id, seed)]


def list_models() -> list:
    """Catalog of models, their parameter names, and supported inits."""
    catalog = []
    for name, cls in MODEL_REGISTRY.items():
        catalog.append({
            "name": name,
            "parameters": [f.name for f in fields(cls)],
            "init_methods": list(cls.inits),
        })
    return catalog
