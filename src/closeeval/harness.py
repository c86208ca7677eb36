"""Error-study orchestration: build a boundary-value problem from a config,
sweep evaluation methods over distances eps, fit convergence orders, and
emit CSV/JSON/gnuplot reports.

Everything here is deterministic: no randomness, stable row ordering, and
floats written with their shortest round-trip representation, so reruns of
the same config produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bie2d import (MAX_NODES, MIN_NODES, dirichlet_data, harmonic_source,
                    solve_density)
from .bie3d import (MAX_DEGREE, Density3D, _atomic_write,
                    exact_point_source_3d, harmonic_point_source_3d,
                    solve_density3d)
from .closeeval2d import CloseEvalRequest2D, _ptr_and_sub, asym_coefficients
from .closeeval3d import (CloseEvalRequest3D, _points, asym_eps2_3d,
                          dlp_numerical_3d)
from .geometry2d import kite, star
from .geometry3d import mushroom, unit_sphere
from .hgscatter import (MAX_DEGREE as HG_MAX_DEGREE, IntensityField,
                        apply_L_asymptotic, apply_L_spectral)
from .spectral import SphericalCoeffs, periodic_nodes


class ConfigError(Exception):
    """Invalid study configuration."""


class NumericalError(Exception):
    """A solve or fit failed in a way the study cannot recover from."""


class InsufficientDataError(NumericalError):
    """Fewer than four points survive the fit filters."""


PROBLEMS_2D = ("2d-kite", "2d-star")
PROBLEMS_3D = ("3d-sphere", "3d-mushroom")
METHODS_2D = ("ptr", "sub", "asym2", "asym3")
METHODS_3D = ("numerical", "asym2")
ASYM_METHODS = frozenset({"asym2", "asym3", "hg_asym"})
ERROR_FLOOR = 1e-14

# Study defaults per family: the method list, the resolution n, the eps
# grid (lo, hi, points per decade) and the fit window (lo, hi).
_DEFAULTS = {"2d": (METHODS_2D, 128, (1e-6, 1e-1, 25), (1e-6, 1e-2)),
             "3d": (METHODS_3D, 16, (1e-4, 1e-1, 25), (1e-4, 1e-1)),
             "hg": (("hg_asym",), 16, (1e-3, 1e-1, 25), (1e-3, 1e-1))}
SLICES_3D = ("x1x3-slice", "x1x2-slice")


def _family(problem: str) -> str:
    if problem in PROBLEMS_2D:
        return "2d"
    if problem in PROBLEMS_3D:
        return "3d"
    return "hg"


def eps_grid(lo: float, hi: float, per_decade: int) -> tuple:
    """Descending log-uniform grid with per_decade points per factor of 10."""
    if not 0 < lo < hi:
        raise ConfigError("eps range needs 0 < lo < hi")
    if per_decade < 1:
        raise ConfigError("per-decade count must be positive")
    count = int(round(math.log10(hi/lo)*per_decade)) + 1
    grid = np.logspace(math.log10(lo), math.log10(hi), count)
    return tuple(float(e) for e in grid[::-1])


def parse_eps_range(text: str) -> tuple:
    """Parse 'lo:hi:per-decade' into a descending eps grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("eps range must look like lo:hi:per-decade")
    try:
        lo, hi, per = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad eps range {text!r}: {exc}") from None
    return eps_grid(lo, hi, per)


def _valid_target(family: str, spec) -> bool:
    """A finite 2D parameter, or a 3D slice name or finite (theta, phi)."""
    if family == "3d" and isinstance(spec, str):
        return spec in SLICES_3D
    values, size = ((spec,), 1) if family == "2d" else (spec, 2)
    return (isinstance(values, tuple) and len(values) == size
            and all(isinstance(v, float) and math.isfinite(v)
                    for v in values))


@dataclass(frozen=True)
class StudyConfig:
    """One study: a problem, a resolution, methods, eps values, targets;
    n, methods, eps and the fit window left unset take family defaults."""

    problem: str
    n: int = None
    methods: tuple = None
    eps: tuple = ()
    targets: object = "all-nodes"
    out_dir: str = None
    cache_dir: str = None
    x0: tuple = (1.85, 1.65)
    source: tuple = (5.0, 4.0, 3.0)
    ell: float = 1.0
    fit_lo: float = None
    fit_hi: float = None
    slice_count: int = 16
    hg_field: tuple = ()
    hg_omega: tuple = (1.0, 0.7)

    def __post_init__(self):
        if self.problem not in PROBLEMS_2D + PROBLEMS_3D + ("hg",):
            raise ConfigError(f"unknown problem {self.problem!r}")
        fam = _family(self.problem)
        every, n, eps_range, (fit_lo, fit_hi) = _DEFAULTS[fam]
        for name, default in (("methods", every), ("n", n),
                              ("fit_lo", fit_lo), ("fit_hi", fit_hi)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if not self.eps:
            object.__setattr__(self, "eps", eps_grid(*eps_range))
        eps = tuple(float(e) for e in self.eps)
        for name, values in (("eps", eps), ("x0", self.x0),
                             ("source", self.source),
                             ("hg_omega", self.hg_omega),
                             ("fit window", (self.fit_lo, self.fit_hi))):
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"{name} values must be finite")
        for name, values, size in (("x0", self.x0, 2),
                                   ("source", self.source, 3),
                                   ("hg_omega", self.hg_omega, 2)):
            if len(values) != size:
                raise ConfigError(f"{name} must have {size} values")
        if any(e <= 0 for e in eps):
            raise ConfigError("eps values must be positive")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps values must be strictly descending")
        object.__setattr__(self, "eps", eps)
        if not self.methods:
            raise ConfigError("method list must not be empty")
        bad = [m for m in self.methods if m not in every]
        if bad:
            raise ConfigError(f"methods {bad} invalid for {self.problem}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.n < 4:
            raise ConfigError("resolution n too small")
        if fam == "2d" and (self.n < MIN_NODES or self.n > MAX_NODES
                            or self.n % 2):
            raise ConfigError(f"2D resolution n must be even and in "
                              f"[{MIN_NODES}, {MAX_NODES}]")
        if fam == "3d" and self.n > MAX_DEGREE:
            raise ConfigError(f"3D resolution n must be at most {MAX_DEGREE}"
                              " (a mushroom solve at n = 64 takes about 25 s"
                              " and 560 MB on a 2-core host)")
        if not self.targets:
            raise ConfigError("targets must not be empty")
        specs = self.targets
        if fam == "3d" and specs in SLICES_3D:
            specs = (specs,)
        if fam != "hg" and specs != "all-nodes" and not (
                isinstance(specs, tuple)
                and all(_valid_target(fam, t) for t in specs)):
            raise ConfigError(
                f"bad targets {self.targets!r}: 2D targets are 'all-nodes' "
                "or finite parameters; 3D targets are 'all-nodes', slice "
                "names or finite [theta, phi] pairs")
        if self.slice_count < 1:
            raise ConfigError("slice_count must be at least 1")
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ConfigError("ell must be positive and finite")
        if self.fit_lo >= self.fit_hi:
            raise ConfigError("fit range needs lo < hi")


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _eps_range(value) -> tuple:
    if isinstance(value, str):
        return parse_eps_range(value)
    return eps_grid(float(value["lo"]), float(value["hi"]),
                    int(value["per_decade"]))


def _methods(value) -> tuple:
    if isinstance(value, str):  # the --methods flag: names joined by commas
        return tuple(m.strip() for m in value.split(",") if m.strip())
    return tuple(value)


def _targets(value):
    """A targets string as given; a list as a tuple of 2D parameters, 3D
    slice names and (theta, phi) pairs."""
    if isinstance(value, str):
        return value
    return tuple(t if isinstance(t, str) else
                 _floats(t) if isinstance(t, list) else float(t)
                 for t in value)


def _path(value):
    return None if value is None else os.fspath(value)


# Each config key (and command-line flag): its StudyConfig field and the
# conversion of its JSON or flag value.
_KEYS = {
    "problem": ("problem", lambda v: v),
    "n": ("n", int),
    "methods": ("methods", _methods),
    "eps": ("eps", lambda v: tuple(sorted(_floats(v), reverse=True))),
    "eps_range": ("eps", _eps_range),
    "targets": ("targets", _targets),
    "out": ("out_dir", _path),
    "cache": ("cache_dir", _path),
    "x0": ("x0", _floats),
    "source": ("source", _floats),
    "ell": ("ell", float),
    "fit_lo": ("fit_lo", float),
    "fit_hi": ("fit_hi", float),
    "slice_count": ("slice_count", int),
    "hg_field": ("hg_field", lambda v: tuple(tuple(row) for row in v)),
    "hg_omega": ("hg_omega", _floats),
}


def _build(make, values: dict) -> StudyConfig:
    """make(**fields), each field converted from its config key and value
    through _KEYS; a value of the wrong type or form is a ConfigError."""
    fields = {}
    for key, value in values.items():
        field, convert = _KEYS[key]
        try:
            fields[field] = convert(value)
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return make(**fields)


def config_from_dict(data: dict) -> StudyConfig:
    """Build and validate a StudyConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "problem" not in data:
        raise ConfigError("config requires a 'problem' key")
    if "eps" in data and "eps_range" in data:
        raise ConfigError("give either 'eps' or 'eps_range', not both")
    return _build(StudyConfig, data)


def load_config(path: str) -> StudyConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(data)


def apply_overrides(config: StudyConfig, n=None, eps_range=None,
                    methods=None, out=None, cache=None) -> StudyConfig:
    """Fold command-line flag values into a parsed config; each flag is
    converted as the config key of the same name."""
    flags = {key: value for key, value in (("n", n), ("eps_range", eps_range),
                                           ("methods", methods), ("out", out),
                                           ("cache", cache))
             if value is not None}
    return _build(partial(replace, config), flags) if flags else config


@dataclass(frozen=True)
class ResultRow:
    target: str
    eps: float
    method: str
    value: float
    exact: float
    abs_error: float


@dataclass(frozen=True)
class Rejection:
    target: str
    eps: float
    method: str
    reason: str


@dataclass(frozen=True)
class OrderFit:
    target: str
    method: str
    slope: float
    fit_lo: float
    fit_hi: float
    n_points: int


@dataclass(frozen=True, eq=False)
class ResultBlock:
    """One swept target's rows as columns: the kept eps (descending), the
    exact solution at each, and one value column per method, in the
    order of the config's methods."""

    target: str
    eps: np.ndarray
    exact: np.ndarray
    values: dict


@dataclass
class ErrorStudyResult:
    """The result blocks, rejections, and fitted slopes of one study run."""

    config: StudyConfig
    blocks: list
    rejections: list
    fits: list

    @property
    def rows(self) -> list:
        """Every row as a ResultRow, in sweep order: target, eps, then
        method.  Built on each access; the study itself keeps columns."""
        rows = []
        for b in self.blocks:
            values = [(m, v.tolist()) for m, v in b.values.items()]
            for i, (e, x) in enumerate(zip(b.eps.tolist(), b.exact.tolist())):
                rows.extend(ResultRow(b.target, e, m, v[i], x, abs(v[i] - x))
                            for m, v in values)
        return rows

    @property
    def row_count(self) -> int:
        """len(rows), without building them."""
        return sum(len(b.eps)*len(b.values) for b in self.blocks)

    def errors_for(self, target: str, method: str):
        """(eps, abs_error) arrays for one target/method, eps descending;
        empty if the study has no such rows."""
        columns = _by_target(self.blocks)
        if method not in columns.get(target, (0, 0, {}))[2]:
            return np.empty(0), np.empty(0)
        eps, exact, values = columns[target]
        order = _descending(eps)
        return eps[order], np.abs(values[method][order] - exact[order])

    def fit_for(self, target: str, method: str) -> OrderFit:
        for f in self.fits:
            if f.target == target and f.method == method:
                return f
        raise KeyError(f"no fit for {target!r}/{method!r}")


def _by_target(blocks) -> dict:
    """label -> (eps, exact, {method: value}) of every nonempty block; a
    study holds one block per label (_first_per_label)."""
    return {b.target: (b.eps, b.exact, b.values) for b in blocks
            if len(b.eps)}


def _descending(eps) -> np.ndarray:
    """Stable order of eps from largest to smallest, as sorting rows by
    -eps orders them."""
    return np.argsort(-eps, kind="stable")


def fit_order(eps_values, errors, method: str, lo: float = 1e-6,
              hi: float = 1e-2, target: str = "") -> OrderFit:
    """Least-squares slope of log10(error) against log10(eps).

    Points outside [lo, hi] are dropped; asymptotic methods additionally
    drop errors at or below the roundoff floor so the fit reflects the
    convergent regime.  Requires at least four surviving points.
    """
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.shape != err.shape or eps.ndim != 1:
        raise ValueError("eps and error lists must be 1D and equal length")
    sel = (eps >= lo*(1 - 1e-9)) & (eps <= hi*(1 + 1e-9)) & (err > 0)
    if method in ASYM_METHODS:
        sel &= err > ERROR_FLOOR
    count = int(np.count_nonzero(sel))
    if count < 4:
        raise InsufficientDataError(
            f"only {count} points survive filtering for {method!r}")
    # the least-squares line's slope, in closed form about the centroid
    x = np.log10(eps[sel])
    y = np.log10(err[sel])
    x -= x.mean()
    slope = (x @ (y - y.mean()))/(x @ x)
    return OrderFit(target, method, float(slope), lo, hi, count)


def _fmt(x: float) -> str:
    return repr(float(x))


def _first_per_label(targets) -> list:
    """The targets, each label's first one only, in order: targets that
    name one point are evaluated once."""
    first = {}
    for target in targets:
        first.setdefault(target[0], target)
    return list(first.values())


def _targets_2d(config: StudyConfig, n: int):
    """(label, node index) pairs; free parameters snap to the nearest of
    the grid nodes t_j = -pi + 2*pi*j/n, and the label records the node."""
    if config.targets == "all-nodes":
        ks = range(n)
    else:
        ks = [int(round((t + np.pi)*n/(2*np.pi))) % n for t in config.targets]
    nodes = periodic_nodes(n)
    return _first_per_label((_fmt(nodes[k]), k) for k in ks)


def _slice_x1x3(s0: float):
    # circle through both poles in the x1-x3 plane, parameterized by [0, 2pi)
    if s0 <= np.pi:
        return s0, 0.0
    return 2*np.pi - s0, np.pi


def _targets_3d(config: StudyConfig):
    """(label, theta, phi) triples from slices or explicit angle pairs."""
    count = config.slice_count
    specs = config.targets
    if specs == "all-nodes":
        specs = SLICES_3D
    if isinstance(specs, str):
        specs = (specs,)
    out = []
    for spec in specs:
        if spec == "x1x3-slice":
            for j in range(count):
                s0 = (j + 0.5)*2*np.pi/count
                th, ph = _slice_x1x3(s0)
                out.append((f"x1x3:{_fmt(s0)}", th, ph))
        elif spec == "x1x2-slice":
            for j in range(count):
                t0 = (j + 0.5)*2*np.pi/count
                out.append((f"x1x2:{_fmt(t0)}", np.pi/2, t0))
        else:
            th, ph = spec
            out.append((f"{_fmt(th)};{_fmt(ph)}", th, ph))
    return _first_per_label(out)


def _curve_for(problem: str):
    return kite() if problem == "2d-kite" else star()


def _surface_for(problem: str):
    return unit_sphere() if problem == "3d-sphere" else mushroom()


def _density_cache_path(config: StudyConfig) -> str:
    src = "_".join(_fmt(v) for v in config.source)
    name = f"density_{config.problem}_n{config.n}_src{src}.json"
    return os.path.join(config.cache_dir, name)


def _density_record(config: StudyConfig) -> dict:
    """What a cached density was solved for, besides n and the solver
    revision that Density3D.save adds."""
    return {"problem": config.problem,
            "source": [float(v) for v in config.source]}


def _solve_3d(config: StudyConfig, surface, data) -> Density3D:
    if config.cache_dir:
        # a cache file that cannot be read or does not match, including one
        # without the record of its problem, source and solver revision, is
        # a miss: the density is solved again and the file rewritten
        path = _density_cache_path(config)
        if os.path.exists(path):
            try:
                density = Density3D.load(path, surface, data,
                                         _density_record(config))
            except (OSError, ValueError):
                density = None
            if density is not None and density.N == config.n:
                return density
    try:
        density = solve_density3d(surface, data, config.n)
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from None
    if config.cache_dir:
        density.save(_density_cache_path(config), _density_record(config))
    return density


def _make_dir(path: str) -> None:
    """Create the directory path and its parents where missing; a path
    that names a file, or that cannot be created, is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path!r}: "
                          f"{exc.strerror or exc}") from None


def _sweep_2d(config: StudyConfig, blocks, rejections):
    """One kernel sum per target gives ptr and sub at every kept eps; the
    asymptotic methods need only the target's (f*, U1, U2)."""
    curve = _curve_for(config.problem)
    try:
        f = dirichlet_data(curve, config.x0, config.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        density = solve_density(curve, f, config.n)
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from None
    g = density.geometry
    all_eps = np.array(config.eps)
    for label, k in _targets_2d(config, config.n):
        kept = np.ones(len(all_eps), dtype=bool)
        for i, eps in enumerate(config.eps):
            try:
                CloseEvalRequest2D(density, k, eps, config.ell)
            except ValueError as exc:
                kept[i] = False
                rejections.extend(Rejection(label, eps, m, str(exc))
                                  for m in config.methods)
        if not kept.any():
            continue
        eps = all_eps[kept]
        x = g.position[k] - np.multiply.outer(eps*config.ell, g.normal[k])
        fstar, U1, U2 = asym_coefficients(density, k, config.ell)
        values = {"asym2": fstar + eps*U1,
                  "asym3": fstar + eps*U1 + eps*eps*U2}
        if {"ptr", "sub"} & set(config.methods):
            values["ptr"], values["sub"] = _ptr_and_sub(density, k, x)
        blocks.append(ResultBlock(label, eps, harmonic_source(x, config.x0),
                                  {m: values[m] for m in config.methods}))


def _sweep_3d(config: StudyConfig, blocks, rejections):
    """One request per target, over the eps whose points lie inside; each
    point is tested once."""
    surface = _surface_for(config.problem)
    try:
        data = harmonic_point_source_3d(surface, config.source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    density = _solve_3d(config, surface, data)
    evaluators = {"numerical": dlp_numerical_3d, "asym2": asym_eps2_3d}
    eps = np.array(config.eps)
    for label, th, ph in _targets_3d(config):
        points = _points(surface, th, ph, eps, config.ell)
        inside = surface.contains(points)
        rejections.extend(
            Rejection(label, float(e), m,
                      "evaluation point falls outside the domain")
            for e in eps[~inside] for m in config.methods)
        if not np.any(inside):
            continue
        req = CloseEvalRequest3D(density, th, ph, eps[inside], config.ell,
                                 inside=True)
        blocks.append(ResultBlock(
            label, req.eps,
            exact_point_source_3d(points[inside], config.source),
            {m: evaluators[m](req) for m in config.methods}))


def run_error_map(config: StudyConfig) -> ErrorStudyResult:
    """Sweep all methods over the (target, eps) set for a 2D or 3D problem.

    Evaluation points fall outside the domain for large eps at concave
    targets; those rows are recorded as rejections, not failures.
    """
    if config.problem == "hg":
        raise ConfigError("use run_hg_study for the hg problem")
    # the output and cache directories are made before any solve
    family = _family(config.problem)
    for path in (config.out_dir, config.cache_dir if family == "3d" else None):
        if path:
            _make_dir(path)
    blocks, rejections = [], []
    if family == "2d":
        _sweep_2d(config, blocks, rejections)
    else:
        _sweep_3d(config, blocks, rejections)
    result = ErrorStudyResult(config, blocks, rejections,
                              _fit_blocks(blocks, config))
    if config.out_dir:
        write_outputs(result)
    return result


def _hg_field(config: StudyConfig) -> IntensityField:
    if not config.hg_field:
        raise ConfigError("hg study requires a nonempty hg_field list")
    try:
        entries = [(int(n), int(m), float(re), float(im))
                   for n, m, re, im in config.hg_field]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hg_field entry: {exc}") from None
    if not all(math.isfinite(v) for *_, re, im in entries for v in (re, im)):
        raise ConfigError("hg_field coefficients must be finite")
    degree = max(n for n, _, _, _ in entries)
    if degree > HG_MAX_DEGREE:
        raise ConfigError(f"hg_field degree must be at most {HG_MAX_DEGREE}")
    coeffs = SphericalCoeffs.zeros(degree + 1)
    for n, m, re, im in entries:
        if n < 0 or abs(m) > n:
            raise ConfigError(f"bad harmonic order (n={n}, m={m})")
        coeffs.c[SphericalCoeffs.index(n, m)] += re + 1j*im
    return IntensityField(coeffs)


def run_hg_study(config: StudyConfig) -> ErrorStudyResult:
    """Residual of the forward-peaked expansion against the exact
    scattering operator (its eigen-action on the band-limited field), per
    eps, with a slope fit.  Both are evaluated once over every eps."""
    if config.problem != "hg":
        raise ConfigError("run_hg_study requires problem 'hg'")
    if config.out_dir:
        _make_dir(config.out_dir)
    psi = _hg_field(config)
    omega = config.hg_omega
    kept = [eps for eps in config.eps if 0 < eps < 0.5]
    rejections = [Rejection("hg", eps, "hg_asym", "eps outside (0, 0.5)")
                  for eps in config.eps if not 0 < eps < 0.5]
    eps = np.array(kept)
    values = apply_L_asymptotic(psi, omega, eps)
    exact = apply_L_spectral(psi, omega, 1.0 - eps)
    blocks = [ResultBlock("hg", eps, exact, {"hg_asym": values})]
    result = ErrorStudyResult(config, blocks, rejections,
                              _fit_blocks(blocks, config))
    if config.out_dir:
        write_outputs(result)
    return result


CSV_HEADER = "target_param,eps,method,value,exact,abs_error"


def write_outputs(result: ErrorStudyResult) -> dict:
    """Write results.csv, fits.json, plot.gp, and rejections.csv (if any,
    else an earlier rejections.csv is removed); returns the path of each
    written file.  Each file is replaced whole, so an interrupted run
    leaves it as it was."""
    out = result.config.out_dir
    if not out:
        raise ConfigError("no output directory configured")
    _make_dir(out)
    columns = _by_target(result.blocks)
    order = {}
    for label in [*columns, *(r.target for r in result.rejections)]:
        order.setdefault(label, len(order))
    paths = {}

    paths["results"] = os.path.join(out, "results.csv")
    with _atomic_write(paths["results"]) as fh:
        fh.write(CSV_HEADER + "\n")
        for label, (eps, exact, values) in columns.items():
            fh.write(_csv_block(label, eps, exact, values))

    paths["fits"] = os.path.join(out, "fits.json")
    with _atomic_write(paths["fits"]) as fh:
        dump_fits(sorted(result.fits,
                         key=lambda f: (order[f.target], f.method)), fh)

    if result.rejections:
        rej = sorted(result.rejections,
                     key=lambda r: (order[r.target], r.method, -r.eps))
        paths["rejections"] = os.path.join(out, "rejections.csv")
        with _atomic_write(paths["rejections"]) as fh:
            fh.write("target_param,eps,method,reason\n")
            for r in rej:
                fh.write(",".join([r.target, _fmt(r.eps), r.method,
                                   json.dumps(r.reason)]) + "\n")

    methods = sorted({m for _, _, values in columns.values() for m in values})
    paths["plot"] = os.path.join(out, "plot.gp")
    with _atomic_write(paths["plot"]) as fh:
        fh.write(_gnuplot_script(methods))

    # an earlier run's rejections must not pass for this run's
    stale = os.path.join(out, "rejections.csv")
    if not result.rejections and os.path.exists(stale):
        os.remove(stale)
    return paths


def _fmt_column(values) -> list:
    """_fmt of every entry of a float array."""
    return list(map(repr, values.tolist()))


def _csv_block(label: str, eps, exact, values: dict) -> str:
    """One target's results.csv lines: methods by name, eps descending.
    eps and exact are formatted once for all the methods."""
    order = _descending(eps)
    exact = exact[order]
    eps_s, exact_s = _fmt_column(eps[order]), _fmt_column(exact)
    lines = []
    for m in sorted(values):
        value = values[m][order]
        lines.extend(f"{label},{e},{m},{v},{x},{a}\n" for e, v, x, a in zip(
            eps_s, _fmt_column(value), exact_s,
            _fmt_column(np.abs(value - exact))))
    return "".join(lines)


def dump_fits(fits, fh) -> None:
    """Write fits as the fits.json document to an open text file."""
    # one write of the whole document: json.dump writes each token apart
    fh.write(json.dumps({"fits": [vars(f) for f in fits]}, indent=2) + "\n")


def _gnuplot_script(methods) -> str:
    lines = [
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'eps'",
        "set ylabel 'absolute error'",
        "set key outside",
        'methods = "%s"' % " ".join(methods),
        "plot for [m in methods] 'results.csv' every ::1 "
        "using 2:(strcol(3) eq m ? column(6) : NaN) title m",
    ]
    return "\n".join(lines) + "\n"


def read_results_csv(path: str) -> list:
    """Read rows written by write_outputs back into ResultRow objects."""
    rows = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ConfigError(f"unrecognized CSV header {header!r}")
            for line_no, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                if len(parts) != 6:
                    raise ConfigError(f"bad CSV row at line {line_no}")
                rows.append(ResultRow(parts[0], float(parts[1]), parts[2],
                                      float(parts[3]), float(parts[4]),
                                      float(parts[5])))
    except OSError as exc:
        raise ConfigError(f"cannot read results: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad CSV value: {exc}") from None
    return rows


def fit_results(rows, lo: float = 1e-6, hi: float = 1e-2) -> list:
    """Group rows by (target, method) and fit each group that qualifies."""
    groups = {}
    for r in rows:
        groups.setdefault((r.target, r.method), []).append((r.eps,
                                                            r.abs_error))
    return _fit_groups(((target, method, *zip(*pairs))
                        for (target, method), pairs in groups.items()),
                       lo, hi)


def _fit_blocks(blocks, config: StudyConfig) -> list:
    """fit_results of the blocks' rows, read from their columns."""
    return _fit_groups(((label, m, eps, np.abs(value - exact))
                        for label, (eps, exact, values)
                        in _by_target(blocks).items()
                        for m, value in values.items()),
                       config.fit_lo, config.fit_hi)


def _fit_groups(groups, lo: float, hi: float) -> list:
    """Fit each (target, method, eps, abs_error) group that qualifies."""
    fits = []
    for target, method, eps, err in groups:
        try:
            fits.append(fit_order(eps, err, method, lo=lo, hi=hi,
                                  target=target))
        except InsufficientDataError:
            continue
    return fits
