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
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bie2d import (MAX_NODES, MIN_NODES, dirichlet_data, harmonic_source,
                    solve_density)
from .bie3d import (MAX_DEGREE, Density3D, _atomic_write, _integer,
                    exact_point_source_3d, harmonic_point_source_3d,
                    solve_density3d)
from .closeeval2d import (METHODS as METHODS_2D, CloseEvalRequest2D,
                          _eval_points, close_eval_2d)
from .closeeval3d import METHODS as METHODS_3D, _points, close_eval_3d
from .geometry2d import kite, star
from .geometry3d import mushroom, surface_point_and_normal, unit_sphere
from .hgscatter import (MAX_DEGREE as HG_MAX_DEGREE, apply_L_asymptotic,
                        apply_L_spectral)
from .spectral import SphericalCoeffs, periodic_nodes


class ConfigError(Exception):
    """Invalid study configuration."""


class NumericalError(Exception):
    """A solve or fit failed in a way the study cannot recover from."""


class InsufficientDataError(NumericalError):
    """Fewer than four points, or all at one eps, survive the fit filters."""


PROBLEMS_2D = ("2d-kite", "2d-star")
PROBLEMS_3D = ("3d-sphere", "3d-mushroom")
ASYM_METHODS = frozenset({"asym2", "asym3", "hg_asym"})
ERROR_FLOOR = 1e-14
SLICES_3D = ("x1x3-slice", "x1x2-slice")
# Targets each 3D slice sweeps, evenly spaced around its circle.
SLICE_TARGETS = 16
# Largest number of eps values, from a list or a range; the largest grid
# in use, the 2D default, has 126.  Time and output grow with the count: on
# a 2-core host, one BLAS thread, an all-nodes 2d-kite study at n = 128
# takes 1.7 s and writes 524288 rows at the cap (0.3 s at 126), and a
# default 3d-mushroom study 1.0 s (0.2 s at its 76).
MAX_EPS_COUNT = 1024


def _family(problem: str) -> str:
    if problem in PROBLEMS_2D:
        return "2d"
    if problem in PROBLEMS_3D:
        return "3d"
    return "hg"


def _check_window(what: str, lo: float, hi: float) -> None:
    """Refuse a window of eps that is not finite 0 < lo < hi."""
    if not (math.isfinite(hi) and 0 < lo < hi):
        raise ConfigError(f"{what} needs finite 0 < lo < hi")


def eps_grid(lo: float, hi: float, per_decade: int) -> tuple:
    """Descending log-uniform grid with per_decade points per factor of 10."""
    _check_window("eps range", lo, hi)
    if per_decade < 1:
        raise ConfigError("per-decade count must be positive")
    try:
        count = int(round(math.log10(hi/lo)*per_decade)) + 1
    except OverflowError:  # a per_decade or a hi/lo beyond the floats
        count = math.inf
    if count > MAX_EPS_COUNT:
        raise ConfigError(f"eps range gives more than {MAX_EPS_COUNT} "
                          "values")
    grid = np.logspace(math.log10(lo), math.log10(hi), count)
    return tuple(float(e) for e in grid[::-1])


def parse_eps_range(text: str) -> tuple:
    """Parse 'lo:hi:per-decade' into a descending eps grid."""
    parts = text.split(":") if isinstance(text, str) else ()
    if len(parts) != 3:
        raise ConfigError(f"eps range must be a string lo:hi:per-decade, "
                          f"not {text!r}")
    try:
        lo, hi, per = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad eps range {text!r}: {exc}") from None
    return eps_grid(lo, hi, per)


# The conversions below raise TypeError or ValueError with a message that
# follows the name of the config key: "eps values must be finite, ...".
def _real(value) -> float:
    """A finite real number as a float; a bool or a string is refused, not
    read as 0.0, 1.0 or the number it spells.  float and int are tested
    before the slower numbers.Real."""
    if isinstance(value, bool) or not isinstance(value, (float, int,
                                                         numbers.Real)):
        raise ValueError(f"values must be numbers, not {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"values must be finite, not {x!r}")
    return x


def _floats(values, size: int = None) -> tuple:
    """A list of numbers as a tuple of floats, of length size if given."""
    out = tuple(map(_real, values))
    if size is not None and len(out) != size:
        raise ValueError(f"must have {size} values, not {len(out)}")
    return out


def _eps(values) -> tuple:
    """A list of eps values as floats, sorted descending, the order the
    sweep and the output take."""
    return tuple(sorted(_floats(values), reverse=True))


def _methods(value) -> tuple:
    """A list of method names, or the --methods flag's names joined by
    commas; a method named twice is run, written and rejected once."""
    if isinstance(value, str):
        value = [m.strip() for m in value.split(",") if m.strip()]
    return tuple(dict.fromkeys(value))


def _targets(value, family: str):
    """'all-nodes', a 3D slice name, or a nonempty list of 2D parameters
    as floats, or of 3D slice names and (theta, phi) float pairs."""
    names = ("all-nodes", *SLICES_3D) if family == "3d" else ("all-nodes",)
    if isinstance(value, str) and value in names:
        return value
    try:
        targets = tuple(_real(t) if family == "2d" else
                        t if isinstance(t, str) and t in SLICES_3D else
                        _floats(t, 2) for t in value)
    except (TypeError, ValueError, OverflowError):
        targets = ()
    if not targets:
        raise ConfigError(
            f"bad targets {value!r}: 2D targets are 'all-nodes' or finite "
            "parameters; 3D targets are 'all-nodes', slice names or finite "
            "[theta, phi] pairs")
    return targets


def _hg_row(row) -> tuple:
    """An hg_field row [n, m, re, im] as (int, int, float, float), with
    |m| <= n <= hgscatter.MAX_DEGREE."""
    n, m, re, im = row
    n, m = _integer(n), _integer(m)
    if not abs(m) <= n <= HG_MAX_DEGREE:
        raise ValueError(f"rows need |m| <= n <= {HG_MAX_DEGREE}, "
                         f"not n = {n}, m = {m}")
    return n, m, _real(re), _real(im)


# Each StudyConfig field's one conversion, which a value from a JSON
# config, a flag or Python code goes through alike (targets also take
# the family).
_FIELDS = {"n": _integer, "methods": _methods, "eps": _eps,
           "targets": _targets, "out_dir": os.fspath, "cache_dir": os.fspath,
           "x0": partial(_floats, size=2), "source": partial(_floats, size=3),
           "hg_field": lambda rows: tuple(map(_hg_row, rows)),
           "hg_omega": partial(_floats, size=2)}
# The fields each family's study reads, with their defaults. A field left
# None, or an eps left empty, takes its default; a field that is not
# listed must be left None. The methods listed are every method allowed.
_READS = {
    "2d": {"n": 128, "methods": METHODS_2D, "eps": eps_grid(1e-6, 1e-1, 25),
           "targets": "all-nodes", "out_dir": None, "x0": (1.85, 1.65)},
    "3d": {"n": 16, "methods": METHODS_3D, "eps": eps_grid(1e-4, 1e-1, 25),
           "targets": "all-nodes", "out_dir": None, "cache_dir": None,
           "source": (5.0, 4.0, 3.0)},
    "hg": {"methods": ("hg_asym",), "eps": eps_grid(1e-3, 1e-1, 25),
           "out_dir": None, "hg_field": (), "hg_omega": (1.0, 0.7)}}
# Each family's eps window for the order fits of its studies.
FIT_WINDOWS = {"2d": (1e-6, 1e-2), "3d": (1e-4, 1e-1), "hg": (1e-3, 1e-1)}
# The fit window of fit_order and fit_results: the 2D study's.
_FIT_WINDOW = FIT_WINDOWS["2d"]
# The fields whose config key (and flag) has another name; an error about
# a field names its key.
_KEY_OF = {"out_dir": "out", "cache_dir": "cache"}


@dataclass(frozen=True)
class StudyConfig:
    """One study: a problem, a resolution, methods, eps values, targets.
    Each field is converted and checked here alike, from a JSON config, a
    flag or Python code; see _FIELDS and _READS."""

    problem: str
    n: int = None
    methods: tuple = None
    eps: tuple = ()
    targets: object = None
    out_dir: str = None
    cache_dir: str = None
    x0: tuple = None
    source: tuple = None
    hg_field: tuple = None
    hg_omega: tuple = None

    def __post_init__(self):
        if self.problem not in PROBLEMS_2D + PROBLEMS_3D + ("hg",):
            raise ConfigError(f"unknown problem {self.problem!r}")
        fam = _family(self.problem)
        reads = _READS[fam]
        unread = [_KEY_OF.get(name, name) for name in _FIELDS
                  if name not in reads and getattr(self, name) is not None]
        if unread:
            raise ConfigError(f"the {self.problem} problem does not read "
                              + ", ".join(map(repr, unread)))
        for name, default in reads.items():
            value = getattr(self, name)
            if value is not None:
                key = _KEY_OF.get(name, name)
                convert = (partial(_targets, family=fam) if name == "targets"
                           else _FIELDS[name])
                try:
                    value = convert(value)
                except (TypeError, ValueError, OverflowError) as exc:
                    # a value of the wrong type or form names its key
                    raise ConfigError(f"{key} {exc}") from None
            if value is None or name == "eps" and not value:
                value = default
            object.__setattr__(self, name, value)
        if not self.methods:
            raise ConfigError("method list must not be empty")
        bad = [m for m in self.methods if m not in reads["methods"]]
        if bad:
            raise ConfigError(f"methods {bad} invalid for {self.problem}")
        if len(self.eps) > MAX_EPS_COUNT:
            raise ConfigError(f"eps has {len(self.eps)} values; at most "
                              f"{MAX_EPS_COUNT}")
        if any(e <= 0 for e in self.eps):
            raise ConfigError("eps values must be positive")
        if any(a == b for a, b in zip(self.eps, self.eps[1:])):
            raise ConfigError("eps values must be distinct")
        if fam == "2d" and not (MIN_NODES <= self.n <= MAX_NODES
                                and self.n % 2 == 0):
            raise ConfigError(f"2D resolution n must be even and in "
                              f"[{MIN_NODES}, {MAX_NODES}]")
        if fam == "3d" and not 4 <= self.n <= MAX_DEGREE:
            raise ConfigError(f"3D resolution n must be in [4, {MAX_DEGREE}]"
                              " (n = 96: a 4 s, 300 MB mushroom solve)")


# Each config key (and command-line flag) and the field it sets; an eps
# range sets eps to its grid.
_KEYS = {_KEY_OF.get(name, name): name for name in ("problem", *_FIELDS)}
_KEYS["eps_range"] = "eps"


def _fields(values: dict) -> dict:
    """The StudyConfig fields that config keys (or flags) set."""
    return {_KEYS[key]: parse_eps_range(value) if key == "eps_range"
            else value for key, value in values.items()}


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
    return StudyConfig(**_fields(data))


def load_config(path: str) -> StudyConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return config_from_dict(data)


def apply_overrides(config: StudyConfig, n=None, eps_range=None,
                    methods=None, out=None, cache=None) -> StudyConfig:
    """Fold command-line flag values into a parsed config; each flag is
    read as the config key of the same name."""
    flags = {key: value for key, value in (("n", n), ("eps_range", eps_range),
                                           ("methods", methods), ("out", out),
                                           ("cache", cache))
             if value is not None}
    return replace(config, **_fields(flags)) if flags else config


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


def fit_order(eps_values, errors, method: str, lo: float = _FIT_WINDOW[0],
              hi: float = _FIT_WINDOW[1], target: str = "") -> OrderFit:
    """Least-squares slope of log10(error) against log10(eps).

    Points outside [lo, hi], and errors that are zero or not finite, are
    dropped; asymptotic methods additionally drop errors at or below the
    roundoff floor so the fit reflects the convergent regime.  Requires
    at least four surviving points, at two eps values or more.
    """
    eps = np.asarray(eps_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    if eps.shape != err.shape or eps.ndim != 1:
        raise ValueError("eps and error lists must be 1D and equal length")
    sel = ((eps >= lo*(1 - 1e-9)) & (eps <= hi*(1 + 1e-9)) & (err > 0)
           & np.isfinite(err))
    if method in ASYM_METHODS:
        sel &= err > ERROR_FLOOR
    count = int(np.count_nonzero(sel))
    if count < 4:
        raise InsufficientDataError(
            f"only {count} points survive filtering for {method!r}")
    # the least-squares line's slope, in closed form about the centroid
    x = np.log10(eps[sel])
    if (x == x[0]).all():
        raise InsufficientDataError(
            f"the {count} points for {method!r} share one eps")
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


def _targets_2d(config: StudyConfig):
    """(label, node index) pairs; free parameters, taken modulo 2*pi so
    that a huge one cannot overflow, snap to the nearest of the grid nodes
    t_j = -pi + 2*pi*j/n, and the label records the node."""
    n = config.n
    if config.targets == "all-nodes":
        ks = range(n)
    else:
        ks = [int(round((t + np.pi) % (2*np.pi)*n/(2*np.pi))) % n
              for t in config.targets]
    nodes = periodic_nodes(n)
    return _first_per_label((_fmt(nodes[k]), k) for k in ks)


def _targets_3d(config: StudyConfig):
    """(label, (theta, phi)) pairs from slices or explicit angle pairs."""
    specs = config.targets
    if specs == "all-nodes":
        specs = SLICES_3D
    if isinstance(specs, str):
        specs = (specs,)
    out = []
    for spec in specs:
        if spec == "x1x3-slice":
            for j in range(SLICE_TARGETS):
                # the circle through both poles in the x1-x3 plane
                s0 = (j + 0.5)*2*np.pi/SLICE_TARGETS
                out.append((f"x1x3:{_fmt(s0)}", (s0, 0.0) if s0 <= np.pi
                            else (2*np.pi - s0, np.pi)))
        elif spec == "x1x2-slice":
            for j in range(SLICE_TARGETS):
                t0 = (j + 0.5)*2*np.pi/SLICE_TARGETS
                out.append((f"x1x2:{_fmt(t0)}", (np.pi/2, t0)))
        else:
            out.append((f"{_fmt(spec[0])};{_fmt(spec[1])}", spec))
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


def _make_dir(path: str) -> list:
    """Create the directory path and its parents where missing, and return
    the directories created, outermost first; a path that names a file, or
    that cannot be created, is a ConfigError."""
    made, head = [], os.path.abspath(path)
    while not os.path.exists(head):
        made.insert(0, head)
        head = os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path!r}: "
                          f"{exc.strerror or exc}") from None
    return made


_OUTSIDE = "evaluation point falls outside the domain"


def _study_2d(config: StudyConfig):
    """The 2D hook: one request per (target, eps) tests its point, and
    every kept eps of a target is then evaluated in one close_eval_2d
    call."""
    curve = _curve_for(config.problem)
    try:
        f = dirichlet_data(curve, config.x0, config.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        density = solve_density(curve, f)
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from None

    def sweep(k, eps):
        # a point that rounds onto y* lies on the boundary, so it is outside
        x = _eval_points(density, k, eps)
        kept = (x != density.geometry.position[k]).any(axis=-1)
        for i, e in enumerate(eps.tolist()):
            try:
                CloseEvalRequest2D(density, k, e)
            except ValueError:
                kept[i] = False
        exact = harmonic_source(x[kept], config.x0)
        return kept, exact, close_eval_2d(density, k, eps[kept],
                                          config.methods)

    return _targets_2d(config), _OUTSIDE, sweep


def _study_3d(config: StudyConfig):
    """The 3D hook: a target's points are built once from its (y*, nu*)
    and tested, and every kept eps is then evaluated in one close_eval_3d
    call."""
    surface = _surface_for(config.problem)
    try:
        data = harmonic_point_source_3d(surface, config.source)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    density = _solve_3d(config, surface, data)

    def sweep(angles, eps):
        x = _points(*surface_point_and_normal(surface, *angles), eps)
        kept = surface.contains(x)
        return (kept, exact_point_source_3d(x[kept], config.source),
                close_eval_3d(density, *angles, eps[kept], config.methods))

    return _targets_3d(config), _OUTSIDE, sweep


def _hg_field(config: StudyConfig) -> SphericalCoeffs:
    if not config.hg_field:
        raise ConfigError("hg study requires a nonempty hg_field list")
    coeffs = SphericalCoeffs.zeros(max(n for n, *_ in config.hg_field) + 1)
    for n, m, re, im in config.hg_field:
        coeffs.c[SphericalCoeffs.index(n, m)] += re + 1j*im
    return coeffs


def _study_hg(config: StudyConfig):
    """The hg hook: one target, whose eps in (0, 0.5) are kept, and the
    expansion against the exact operator (its eigen-action on the field),
    both evaluated here, so that a field whose values overflow is a
    ConfigError before the sweep."""
    eps = np.array(config.eps)
    kept = (0 < eps) & (eps < 0.5)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        psi, omega = _hg_field(config), config.hg_omega
        exact = apply_L_spectral(psi, omega, eps[kept])
        asym = apply_L_asymptotic(psi, omega, eps[kept])
    if not np.all(np.isfinite(exact) & np.isfinite(asym)):
        raise ConfigError("hg_field too large: the operator values overflow")
    # the one target's sweep is over config.eps
    return ([("hg", None)], "eps outside (0, 0.5)",
            lambda _, all_eps: (kept, exact, {"hg_asym": asym}))


# Each family's setup checks the config and solves, then returns the hook
# of the one sweep: the (label, target) list, the reason a rejected eps is
# recorded with, and sweep(target, eps), which returns the mask of the eps
# kept, then the exact column and one column per method at the kept eps.
_STUDIES = {"2d": _study_2d, "3d": _study_3d, "hg": _study_hg}


def run_error_map(config: StudyConfig) -> ErrorStudyResult:
    """Sweep all methods over the (target, eps) set of any problem.  An eps
    that the sweep drops, such as a point outside a concave domain, is a
    rejection, not a failure; a target that keeps no eps has no block."""
    # the output and cache directories are made before any solve, and
    # removed again if the family's setup refuses the config or cannot
    # write the density cache
    made = []
    try:
        for path in (config.out_dir, config.cache_dir):
            made += _make_dir(path) if path else []
        targets, reason, sweep = _STUDIES[_family(config.problem)](config)
    except (ConfigError, OSError):
        for path in reversed(made):
            os.rmdir(path)
        raise
    all_eps = np.array(config.eps)
    blocks, rejections = [], []
    for label, target in targets:
        kept, exact, values = sweep(target, all_eps)
        rejections.extend(Rejection(label, e, m, reason)
                          for e in all_eps[~kept].tolist()
                          for m in config.methods)
        if kept.any():
            blocks.append(ResultBlock(label, all_eps[kept], exact, values))
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
    order = {}
    for label in [*(b.target for b in result.blocks),
                  *(r.target for r in result.rejections)]:
        order.setdefault(label, len(order))
    paths = {}

    paths["results"] = os.path.join(out, "results.csv")
    with _atomic_write(paths["results"]) as fh:
        fh.write(CSV_HEADER + "\n")
        for b in result.blocks:
            fh.write(_csv_block(b))

    paths["fits"] = os.path.join(out, "fits.json")
    with _atomic_write(paths["fits"]) as fh:
        dump_fits(sorted(result.fits,
                         key=lambda f: (order[f.target], f.method)), fh)

    if result.rejections:
        rej = sorted(result.rejections,
                     key=lambda r: (order[r.target], r.method, -r.eps))
        paths["rejections"] = os.path.join(out, "rejections.csv")
        with _atomic_write(paths["rejections"]) as fh:
            # a study records few distinct reasons: each is quoted once
            quoted = {reason: json.dumps(reason)
                      for reason in {r.reason for r in rej}}
            fh.write("target_param,eps,method,reason\n")
            fh.writelines(f"{r.target},{_fmt(r.eps)},{r.method},"
                          f"{quoted[r.reason]}\n" for r in rej)

    methods = sorted({m for b in result.blocks for m in b.values})
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


def _csv_block(b: ResultBlock) -> str:
    """One target's results.csv lines: methods by name, eps descending.
    eps and exact are formatted once for all the methods."""
    eps_s, exact_s = _fmt_column(b.eps), _fmt_column(b.exact)
    lines = []
    for m in sorted(b.values):
        value = b.values[m]
        lines.extend(f"{b.target},{e},{m},{v},{x},{a}\n" for e, v, x, a in zip(
            eps_s, _fmt_column(value), exact_s,
            _fmt_column(np.abs(value - b.exact))))
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


def fit_results(rows, lo: float = _FIT_WINDOW[0],
                hi: float = _FIT_WINDOW[1]) -> list:
    """Group rows by (target, method) and fit each group that qualifies."""
    groups = {}
    for r in rows:
        groups.setdefault((r.target, r.method), []).append((r.eps,
                                                            r.abs_error))
    return _fit_groups(((target, method, *zip(*pairs))
                        for (target, method), pairs in groups.items()),
                       lo, hi)


def _run_window(rows) -> tuple:
    """The fit window of the family whose study wrote rows, read from the
    first target label: 'hg', 3D (with ':' or ';') or a 2D parameter."""
    label = rows[0].target if rows else ""
    return FIT_WINDOWS["hg" if label == "hg" else
                       "3d" if ":" in label or ";" in label else "2d"]


def _fit_blocks(blocks, config: StudyConfig) -> list:
    """fit_results of the blocks' rows, read from their columns."""
    return _fit_groups(((b.target, m, b.eps, np.abs(value - b.exact))
                        for b in blocks for m, value in b.values.items()),
                       *FIT_WINDOWS[_family(config.problem)])


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
