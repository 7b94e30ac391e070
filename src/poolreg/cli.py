"""Command-line front end emitting CSV files.

Subcommands::

    poolreg simulate  --config study.cfg  --out results/
    poolreg fit       --config fit.cfg    --out results/
    poolreg bandwidth --config fit.cfg    --out results/
    poolreg theory    --config theory.cfg --out results/
    poolreg bootstrap --config boot.cfg   --out results/

Configuration is a flat text file of ``key = value`` lines with ``#``
comments. Unknown keys are rejected by name. Every run writes a
``resolved-config`` file into the output directory echoing the effective
value of every setting, so that file plus the input data reproduce the run
exactly. All numeric CSV fields use 17 significant digits, which makes
reruns byte-comparable.

Exit codes: 0 on success, 2 for configuration or input-data problems, 3
when a computation fails numerically.

Every command runs one BLAS thread per process: importing this module sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy
loads, unless any of them is already set, which is then kept as it is. The
fits make no LAPACK call and the output sums use numpy reductions, so the
pool would only idle (its thread spins about 0.1 s of CPU at start-up);
the parallelism is the ``--jobs`` worker processes of ``simulate`` and
``bootstrap``, which inherit the setting. A cross-validation scores all
its candidates in the process that runs it. ``python -m poolreg.cli`` and
the ``poolreg`` script both import this module before numpy, because
``import poolreg`` loads nothing.

File schemas
    simulate   replications.csv (rep, estimator, h, ise),
               curves.csv (rep, estimator, x, m_hat),
               quartiles.csv (estimator, quartile, rep, ise),
               failures.csv (rep, estimator, reason; header only if none failed)
    fit        curve.csv (x, m_hat, failed), cv_trace.csv when the
               bandwidth is cross-validated, pseudo.csv (pool_id, R) for
               the marginal estimator
    bandwidth  cv_trace.csv (h, criterion, valid, failed_folds)
    theory     theory.csv (x, estimator, persistent_bias, leading_bias,
               variance_factor)
    bootstrap  bands.csv (x, mean, q05, q95, coverage), cv_trace.csv when the
               bandwidth is cross-validated
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

# must run before the first numpy import; see the module docstring
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import numpy as np

from .bandwidth import select_bandwidth
from .data import (
    FLOAT_FMT,
    Design,
    IndividualDataset,
    PooledDataset,
    _chunk_sizes,
    read_individual_csv,
    read_pooled_csv,
)
from .errors import NumericalFailure, TooFewRecords, UserInputError
from .estimators import Estimator, FitConfig, build_pseudo_data, estimate_curve
from .kernels import KernelKind
from .simulation import (
    SimulationSpec,
    bootstrap_curves,
    get_dgp,
    run_monte_carlo,
    select_quartile_realizations,
    theory_context,
)

__all__ = [
    "RunConfig",
    "load_config",
    "main",
    "cmd_simulate",
    "cmd_fit",
    "cmd_bandwidth",
    "cmd_theory",
    "cmd_bootstrap",
]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass
class RunConfig:
    """Effective settings for one command, defaults filled in.

    jobs bounds the worker processes of simulate (its replications) and
    bootstrap (its resamples); fit, bandwidth and theory run in one process,
    and no cross-validation is split over processes. It defaults to the CPUs
    this process may run on; outputs are identical for any value.
    """

    dgp: str = "d3"
    n: int = 600
    c: int = 2
    design: str = "random"
    estimators: tuple = (
        Estimator.INDIVIDUAL,
        Estimator.AVERAGE,
        Estimator.PRODUCT,
        Estimator.MARGINAL,
    )
    p: int = 1
    kernel: KernelKind = KernelKind.EPANECHNIKOV
    h: float | None = None
    cv: bool = False
    criterion: str = "pseudo"
    grid_min: float = -1.0
    grid_max: float = 1.0
    grid_count: int = 21
    replications: int = 500
    seed: int = 0
    trim: bool = True
    reference: str = "observed"
    data: str | None = None
    pools: str | None = None
    members: str | None = None
    out: str = "."
    jobs: int = field(default_factory=_usable_cpus)

    @property
    def use_cv(self) -> bool:
        if self.cv and self.h is not None:
            raise UserInputError("give a fixed 'h' or 'cv = true', not both")
        return self.cv or self.h is None

    def grid(self) -> np.ndarray:
        if self.grid_count < 1:
            raise UserInputError("grid_count must be at least 1")
        if not self.grid_min <= self.grid_max:
            raise UserInputError("grid_min must not exceed grid_max")
        return np.linspace(self.grid_min, self.grid_max, self.grid_count)

    def single_estimator(self, command: str) -> Estimator:
        if len(self.estimators) != 1:
            raise UserInputError(
                f"{command} works on exactly one estimator; "
                f"got {len(self.estimators)} in 'estimators'"
            )
        return self.estimators[0]


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise UserInputError(f"key {key!r}: expected true or false, got {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text.strip(), 10)
    except ValueError:
        raise UserInputError(f"key {key!r}: expected an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UserInputError(f"key {key!r}: expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise UserInputError(f"key {key!r}: value must be finite, got {text!r}")
    return value


def _parse_choice(text: str, key: str, options: tuple[str, ...]) -> str:
    lowered = text.strip().lower()
    if lowered not in options:
        raise UserInputError(
            f"key {key!r}: expected one of {', '.join(options)}, got {text!r}"
        )
    return lowered


def _parse_estimators(text: str, key: str) -> tuple:
    names = [part for part in (s.strip() for s in text.split(",")) if part]
    if not names:
        raise UserInputError(f"key {key!r}: expected at least one estimator name")
    return tuple(Estimator.parse(name) for name in names)


# key -> converter from the raw config string to the typed field value
_PARSERS = {
    "dgp": lambda s, k: s.strip().lower(),
    "n": _parse_int,
    "c": _parse_int,
    "design": lambda s, k: _parse_choice(s, k, ("random", "homogeneous")),
    "estimators": _parse_estimators,
    "p": _parse_int,
    "kernel": lambda s, k: KernelKind.parse(s),
    "h": _parse_float,
    "cv": _parse_bool,
    "criterion": lambda s, k: _parse_choice(s, k, ("pseudo", "pool")),
    "grid_min": _parse_float,
    "grid_max": _parse_float,
    "grid_count": _parse_int,
    "replications": _parse_int,
    "seed": _parse_int,
    "trim": _parse_bool,
    "reference": lambda s, k: _parse_choice(s, k, ("observed", "true")),
    "data": lambda s, k: s.strip(),
    "pools": lambda s, k: s.strip(),
    "members": lambda s, k: s.strip(),
    "out": lambda s, k: s.strip(),
    "jobs": _parse_int,
}


def load_config(path: str | Path) -> RunConfig:
    """Parse a flat key = value file, rejecting unknown and repeated keys."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UserInputError(f"cannot read config file {path}: {exc}") from None

    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UserInputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _PARSERS:
            raise UserInputError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in values:
            raise UserInputError(f"{path}:{lineno}: key {key!r} given more than once")
        values[key] = _PARSERS[key](value, key)

    cfg = RunConfig(**values)
    if cfg.seed < 0:
        raise UserInputError(f"key 'seed': must be non-negative, got {cfg.seed}")
    if cfg.jobs < 1:
        raise UserInputError(f"key 'jobs': must be at least 1, got {cfg.jobs}")
    return cfg


def _config_lines(cfg: RunConfig) -> str:
    """Render the effective settings back into loadable key = value form."""
    out = []
    for key in _PARSERS:
        value = getattr(cfg, key)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(e.value for e in value)
        elif isinstance(value, KernelKind):
            text = value.value
        elif isinstance(value, float):
            text = FLOAT_FMT % value
        else:
            text = str(value)
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_cv_trace(out_dir: Path, trace) -> None:
    rows = [
        (h, crit, int(np.isfinite(crit)), bad.size)
        for h, crit, bad in zip(trace.h_grid, trace.criterion, trace._failed.bad)
    ]
    _write_csv(out_dir / "cv_trace.csv", ("h", "criterion", "valid", "failed_folds"), rows)


def _load_fit_data(cfg: RunConfig) -> IndividualDataset | PooledDataset:
    if cfg.data is not None and (cfg.pools is not None or cfg.members is not None):
        raise UserInputError("give 'data' for individual input or 'pools' plus "
                             "'members' for pooled input, not both")
    if cfg.data is not None:
        return read_individual_csv(cfg.data)
    if cfg.pools is not None and cfg.members is not None:
        return read_pooled_csv(cfg.pools, cfg.members)
    raise UserInputError("input files missing: set 'data', or 'pools' and 'members'")


def _fit_config(cfg: RunConfig, h: float) -> FitConfig:
    return FitConfig(p=cfg.p, h=h, kernel=cfg.kernel)


def _choose_bandwidth(cfg: RunConfig, data, tag: Estimator, out_dir: Path) -> float:
    """Fixed h if configured, otherwise cross-validate and record the trace."""
    if not cfg.use_cv:
        return cfg.h
    trace = select_bandwidth(data, tag, _fit_config(cfg, 1.0), trim=cfg.trim,
                             criterion=cfg.criterion)
    _write_cv_trace(out_dir, trace)
    return trace.chosen_h


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.criterion != "pseudo":
        raise UserInputError("simulate cross-validates with criterion = pseudo only; "
                             "criterion = pool applies to fit, bandwidth and bootstrap")
    spec = SimulationSpec(
        dgp=get_dgp(cfg.dgp),
        estimators=cfg.estimators,
        grid=cfg.grid(),
        design=Design(cfg.design),
        n=cfg.n,
        c=cfg.c,
        replications=cfg.replications,
        p=cfg.p,
        kernel=cfg.kernel,
        h=None if cfg.use_cv else cfg.h,
        seed=cfg.seed,
        trim=cfg.trim,
        use_true_mean_reference=cfg.reference == "true",
    )
    records = run_monte_carlo(spec, jobs=cfg.jobs)
    failures = [(r.index, est, reason) for r in records for est, reason in r.failures]
    _write_csv(out_dir / "failures.csv", ("rep", "estimator", "reason"), failures)

    if not any(r.ises[e] is not None for r in records for e in spec.estimators):
        raise NumericalFailure(f"every replication failed; first failure: {failures[0][2]}")

    summary_rows = []
    curve_rows = []
    for record in records:
        for est in spec.estimators:
            summary_rows.append(
                (record.index, est.value, record.bandwidths[est], record.ises[est])
            )
            curve = record.curves[est]
            values = curve.values if curve is not None else [None] * len(spec.grid)
            curve_rows.extend(
                (record.index, est.value, x, v) for x, v in zip(spec.grid, values)
            )
    _write_csv(out_dir / "replications.csv", ("rep", "estimator", "h", "ise"),
               summary_rows)
    _write_csv(out_dir / "curves.csv", ("rep", "estimator", "x", "m_hat"), curve_rows)

    quartile_rows = []
    for est in spec.estimators:
        try:
            picks = select_quartile_realizations(records, est)
        except TooFewRecords:
            # fewer than three usable replications for this estimator; the
            # file still appears, just without rows for it
            continue
        for label, rep in zip(("q25", "q50", "q75"), picks):
            quartile_rows.append((est.value, label, rep, records[rep].ises[est]))
    _write_csv(out_dir / "quartiles.csv", ("estimator", "quartile", "rep", "ise"),
               quartile_rows)


def cmd_fit(cfg: RunConfig, out_dir: Path) -> None:
    data = _load_fit_data(cfg)
    tag = cfg.single_estimator("fit")
    h = _choose_bandwidth(cfg, data, tag, out_dir)

    if tag is Estimator.MARGINAL:
        if not isinstance(data, PooledDataset):
            raise UserInputError("the marginal estimator needs pooled input files")
        _write_csv(out_dir / "pseudo.csv", ("pool_id", "R"),
                   zip(data.ids, build_pseudo_data(data).r))

    curve = estimate_curve(tag, data, _fit_config(cfg, h), cfg.grid())
    rows = [
        (x, v, int(bad))
        for x, v, bad in zip(curve.grid, curve.values, curve.failed)
    ]
    _write_csv(out_dir / "curve.csv", ("x", "m_hat", "failed"), rows)


def cmd_bandwidth(cfg: RunConfig, out_dir: Path) -> None:
    data = _load_fit_data(cfg)
    tag = cfg.single_estimator("bandwidth")
    trace = select_bandwidth(data, tag, _fit_config(cfg, 1.0), trim=cfg.trim,
                             criterion=cfg.criterion)
    _write_cv_trace(out_dir, trace)
    print(f"chosen_h = {FLOAT_FMT % trace.chosen_h}")


def _theory_summary(cfg: RunConfig, ctx, est: Estimator, x: float, sizes: np.ndarray | None):
    # loaded here, so that only the theory command loads the theory layer
    from . import theory
    if cfg.design == "homogeneous" and est in (Estimator.AVERAGE, Estimator.PRODUCT):
        return theory.homogeneous_summary(
            ctx, est, x, cfg.p, cfg.h, cfg.n, cfg.c, cfg.kernel
        )
    if est is Estimator.INDIVIDUAL:
        return theory.individual_summary(ctx, x, cfg.p, cfg.h, cfg.n, cfg.kernel)
    if est is Estimator.MARGINAL:
        if cfg.design == "homogeneous":
            raise UserInputError(
                "no homogeneous-design expansion is available for the marginal "
                "estimator; use design = random"
            )
        return theory.marginal_random_summary(
            ctx, x, cfg.p, cfg.h, cfg.n, sizes, cfg.kernel
        )
    if est is Estimator.AVERAGE:
        return theory.average_random_summary(ctx, x, cfg.p, cfg.h, sizes, cfg.kernel)
    return theory.product_random_bias(ctx, x, cfg.p, cfg.h, cfg.c, cfg.kernel)


# pools whose sizes the random-design average and marginal rows hold one by
# one: an 80 MB array, summed once per row
_THEORY_POOLS_MAX = 10**7


def cmd_theory(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.use_cv:
        raise UserInputError("theory needs a numeric 'h'; cross-validation "
                             "applies to data fits only")
    _fit_config(cfg, cfg.h)  # rejects p < 0 and h <= 0 as fits do
    if cfg.c < 1:
        raise UserInputError(f"key 'c': pool size must be at least 1, got {cfg.c}")
    if cfg.n < cfg.c:
        raise UserInputError(f"n = {cfg.n} cannot hold even one pool of size {cfg.c}")
    ctx = theory_context(get_dgp(cfg.dgp))
    sizes = None
    if cfg.design == "random" and {Estimator.AVERAGE, Estimator.MARGINAL} & set(cfg.estimators):
        if cfg.n // cfg.c > _THEORY_POOLS_MAX:
            raise UserInputError(
                f"n = {cfg.n} in pools of c = {cfg.c} makes more than {_THEORY_POOLS_MAX} "
                "pools, the most the random-design average and marginal rows take"
            )
        # the pools pool_random makes, a last pool of n mod c included
        sizes = _chunk_sizes(cfg.n, cfg.c)

    rows = []
    for x in cfg.grid():
        for est in cfg.estimators:
            s = _theory_summary(cfg, ctx, est, float(x), sizes)
            rows.append(
                (x, est.value, s.persistent_bias, s.leading_bias, s.variance)
            )
    _write_csv(
        out_dir / "theory.csv",
        ("x", "estimator", "persistent_bias", "leading_bias", "variance_factor"),
        rows,
    )


def cmd_bootstrap(cfg: RunConfig, out_dir: Path) -> None:
    if cfg.pools is None or cfg.members is None:
        raise UserInputError("bootstrap resamples pools; set 'pools' and 'members'")
    data = read_pooled_csv(cfg.pools, cfg.members)
    tag = cfg.single_estimator("bootstrap")
    h = _choose_bandwidth(cfg, data, tag, out_dir)

    bands = bootstrap_curves(
        data,
        tag,
        _fit_config(cfg, h),
        cfg.replications,
        cfg.grid(),
        np.random.default_rng(cfg.seed),
        jobs=cfg.jobs,
    )
    rows = zip(bands.grid, bands.mean, bands.lower, bands.upper, bands.coverage)
    _write_csv(out_dir / "bands.csv", ("x", "mean", "q05", "q95", "coverage"), rows)


_COMMANDS = {
    "simulate": (cmd_simulate, "run a Monte Carlo study over a built-in process"),
    "fit": (cmd_fit, "fit one estimator's curve to data files"),
    "bandwidth": (cmd_bandwidth, "cross-validate a bandwidth for data files"),
    "theory": (cmd_theory, "evaluate asymptotic bias and variance over a grid"),
    "bootstrap": (cmd_bootstrap, "pool-resampling confidence bands for a curve"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolreg",
        description="Conditional-mean estimation from pooled responses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", required=True, help="key = value settings file")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument("--seed", type=int, help="master seed (overrides the config)")
        cmd.add_argument("--jobs", type=int, help="worker processes (overrides the config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise UserInputError(f"--seed must be non-negative, got {args.seed}")
            cfg = replace(cfg, seed=args.seed)
        if args.jobs is not None:
            if args.jobs < 1:
                raise UserInputError(f"--jobs must be at least 1, got {args.jobs}")
            cfg = replace(cfg, jobs=args.jobs)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)

        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved-config").write_text(_config_lines(cfg), encoding="utf-8")
        _COMMANDS[args.command][0](cfg, out_dir)
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
