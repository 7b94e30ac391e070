"""End-to-end checks of the command-line front end."""

import ast
import concurrent.futures
import csv
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poolreg.cli import load_config, main
from poolreg.data import pool_random, write_individual_csv, write_pooled_csv
from poolreg.errors import UserInputError
from poolreg.simulation import get_dgp, sample_dgp, theory_context
from poolreg import theory

RUN = [sys.executable, "-m", "poolreg.cli"]


def run_cli(*argv):
    return subprocess.run(RUN + list(argv), capture_output=True, text=True)


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(**preset):
    """This process's environment without the BLAS thread variables, plus preset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, **preset}


def loaded_modules(*argvs, code="from poolreg import cli", env=None):
    """Every module a fresh interpreter has loaded once it has run code, then
    cli.main(argv) for each argv."""
    script = "\n".join(["import sys", code, *(f"assert cli.main({argv!r}) == 0" for argv in argvs),
                        "print(sorted(sys.modules))"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def under(modules, *packages):
    """The modules that are one of packages or inside one."""
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_import_loads_no_numpy():
    # the package root loads its modules on first use, so the CLI can pin the
    # BLAS threads before numpy loads
    assert under(loaded_modules(code="import poolreg"), "numpy", "poolreg") == ["poolreg"]


def test_cli_import_pins_one_blas_thread():
    code = f"import os, poolreg.cli\nprint([os.environ.get(v) for v in {BLAS_THREAD_VARS!r}])"
    for preset, want in (({}, ["1", "1", "1"]),
                         ({"OPENBLAS_NUM_THREADS": "2"}, ["2", None, None])):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=blas_env(**preset))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(want), preset


def test_import_loads_no_scipy(tmp_path):
    # importing scipy.integrate once cost more than the rest of a theory run;
    # neither importing poolreg nor computing its theory may load scipy
    homogeneous = "design = homogeneous\nestimators = individual,average,product\n"
    designs = {"d2-homogeneous": "dgp = d2\n" + homogeneous,
               "d2-random": "dgp = d2\ndesign = random\n",
               "d3-homogeneous": "dgp = d3\n" + homogeneous}
    runs = []
    for name, body in designs.items():
        cfg = write_cfg(tmp_path, body + "n = 600\nh = 0.25\ngrid_count = 5\n",
                        name=f"{name}.cfg")
        runs.append(["theory", "--config", cfg, "--out", str(tmp_path / name)])
    imported = loaded_modules(code="import poolreg\nfrom poolreg import cli")
    assert under(imported, "scipy") == []
    # only the theory command loads the theory layer
    assert under(imported, "poolreg.theory") == []
    after_runs = loaded_modules(*runs)
    assert under(after_runs, "scipy") == []
    # no worker processes, so no process pool either
    assert under(after_runs, "concurrent.futures", "multiprocessing") == []
    for name in designs:
        assert (tmp_path / name / "theory.csv").exists()


def test_cv_fit_loads_no_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on its first call, 10-15 ms per process;
    # the CV trimming bounds are computed without it
    make_data_files(tmp_path)
    cfg = write_cfg(tmp_path, (
        f"pools = {tmp_path / 'pools.csv'}\n"
        f"members = {tmp_path / 'members.csv'}\n"
        "estimators = marginal\np = 1\ncv = true\n"
    ))
    argv = ["fit", "--config", cfg, "--out", str(tmp_path / "fit"), "--jobs", "1"]
    modules = loaded_modules(argv)
    assert under(modules, "numpy.ma") == []
    # nor does a fit load the theory layer
    assert under(modules, "poolreg.theory") == []
    # a serial CV imports no process pool
    assert under(modules, "concurrent.futures", "multiprocessing") == []
    assert (tmp_path / "fit" / "cv_trace.csv").exists()


def test_large_cv_fit_starts_no_worker(tmp_path, monkeypatch):
    # 6000 members x 30 candidates: every CV batch scores in the calling
    # process, whatever --jobs says
    rng = np.random.default_rng(17)
    pooled = pool_random(sample_dgp(get_dgp("d1"), 6000, rng), 3, rng)
    write_pooled_csv(tmp_path / "pools.csv", tmp_path / "members.csv", pooled)
    cfg = write_cfg(tmp_path, (
        f"pools = {tmp_path / 'pools.csv'}\n"
        f"members = {tmp_path / 'members.csv'}\n"
        "estimators = average\np = 1\ncv = true\n"
    ))
    argv = ["fit", "--config", cfg, "--out", str(tmp_path / "default")]
    modules = loaded_modules(argv, argv[:-1] + [str(tmp_path / "jobs2"), "--jobs", "2"])
    assert under(modules, "concurrent.futures", "multiprocessing") == []

    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert main(argv[:-1] + [str(tmp_path / "here"), "--jobs", "2"]) == 0
    for file in ("curve.csv", "cv_trace.csv"):
        want = (tmp_path / "default" / file).read_bytes()
        assert (tmp_path / "jobs2" / file).read_bytes() == want
        assert (tmp_path / "here" / file).read_bytes() == want


def test_bootstrap_loads_no_numpy_ma(tmp_path):
    # the 5 and 95 percent bands come from one sort, not np.quantile
    make_data_files(tmp_path)
    cfg = write_cfg(tmp_path, (
        f"pools = {tmp_path / 'pools.csv'}\n"
        f"members = {tmp_path / 'members.csv'}\n"
        "estimators = average\np = 1\ncv = true\nreplications = 20\nseed = 4\n"
        "grid_min = -0.5\ngrid_max = 0.5\ngrid_count = 5\n"
    ))
    argv = ["bootstrap", "--config", cfg, "--out", str(tmp_path / "boot"), "--jobs", "1"]
    assert under(loaded_modules(argv), "numpy.ma") == []
    assert (tmp_path / "boot" / "bands.csv").exists()


def test_benchmark_wrapped_names_resolve():
    # the benchmark's tracer (--trace 1) wraps these names and skips any it
    # cannot find, so a rename would silently drop a layer from its report
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "dgp = D2\nn = 100\n# a comment\n"))
        assert cfg.dgp == "d2" and cfg.n == 100 and cfg.c == 2
        assert cfg.use_cv is True

    def test_unknown_key_is_named(self, tmp_path):
        with pytest.raises(UserInputError, match="bandwith"):
            load_config(write_cfg(tmp_path, "bandwith = 0.3\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(UserInputError, match="'n'"):
            load_config(write_cfg(tmp_path, "n = 5\nn = 6\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(UserInputError, match="key = value"):
            load_config(write_cfg(tmp_path, "just words\n"))

    def test_inline_comment_and_case(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "KERNEL = Quartic  # trailing\n"))
        assert cfg.kernel.value == "quartic"

    def test_h_and_cv_conflict(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "h = 0.2\ncv = true\n"))
        with pytest.raises(UserInputError, match="not both"):
            cfg.use_cv

    def test_estimator_list(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "estimators = average, marginal\n"))
        assert [e.value for e in cfg.estimators] == ["average", "marginal"]


SIMULATE_CFG = """\
dgp = d3
n = 60
c = 2
estimators = individual,average,product,marginal
p = 1
h = 0.8
grid_min = -1
grid_max = 1
grid_count = 5
replications = 2
seed = 7
"""


class TestSimulate:
    def test_minimal_run_writes_its_csvs(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        out = tmp_path / "res"
        proc = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_rows(out / "replications.csv")
        assert header == ["rep", "estimator", "h", "ise"]
        assert len(rows) == 2 * 4
        header, rows = read_rows(out / "curves.csv")
        assert header == ["rep", "estimator", "x", "m_hat"]
        assert len(rows) == 2 * 4 * 5
        assert (out / "quartiles.csv").exists()
        assert (out / "failures.csv").read_text().startswith("rep,estimator,reason\n")
        assert (out / "resolved-config").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg, "--out", str(a)).returncode == 0
        assert run_cli("simulate", "--config", cfg, "--out", str(b)).returncode == 0
        for name in ("replications.csv", "curves.csv", "quartiles.csv", "failures.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_pool_criterion_is_rejected(self, tmp_path):
        # replications cross-validate with the pseudo criterion only, so a
        # pool criterion would be echoed in resolved-config but not used
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("h = 0.8", "cv = true")
                        + "criterion = pool\n")
        out = tmp_path / "res"
        proc = run_cli("simulate", "--config", cfg, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "criterion = pool" in proc.stderr
        assert not (out / "replications.csv").exists()

    def test_failures_csv_keeps_every_failed_fit(self, tmp_path):
        # at this fixed h some product replications leave points without a
        # full pool inside the window, others fit everywhere
        cfg = write_cfg(tmp_path, "dgp = quadratic\nn = 60\nc = 2\n"
                        "estimators = individual,product\np = 0\nh = 0.3\n"
                        "grid_min = -0.6\ngrid_max = 0.6\ngrid_count = 5\n"
                        "replications = 6\nseed = 42\n")
        outs = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            proc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / name),
                           "--jobs", jobs)
            assert proc.returncode == 0, proc.stderr
            outs.append((tmp_path / name / "failures.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]
        with open(tmp_path / "a" / "failures.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["rep", "estimator", "reason"]
        assert rows and {est for _, est, _ in rows} == {"product"}
        _, summary = read_rows(tmp_path / "a" / "replications.csv")
        failed = {(int(rep), est) for rep, est, _ in rows}
        for rep, est, _, ise in summary:
            assert (ise == "nan") == ((int(rep), est) in failed)
        assert len(failed) < 6

        healthy = write_cfg(tmp_path, Path(cfg).read_text().replace(
            "individual,product", "individual"), name="healthy.cfg")
        proc = run_cli("simulate", "--config", healthy, "--out", str(tmp_path / "d"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "d" / "failures.csv").read_text() == "rep,estimator,reason\n"

    def test_jobs_flag_changes_nothing(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("replications = 2",
                                                       "replications = 4"))
        a, b = tmp_path / "serial", tmp_path / "fan"
        assert run_cli("simulate", "--config", cfg, "--out", str(a),
                       "--jobs", "1").returncode == 0
        proc = run_cli("simulate", "--config", cfg, "--out", str(b), "--jobs", "4")
        assert proc.returncode == 0, proc.stderr
        assert (a / "replications.csv").read_bytes() == (b / "replications.csv").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()
        assert (a / "failures.csv").read_bytes() == (b / "failures.csv").read_bytes()

    def test_output_independent_of_blas_threads(self, tmp_path):
        # the simulate study of the byte-identical-rerun acceptance check
        cfg = write_cfg(
            tmp_path,
            "dgp = d3\nn = 60\nc = 2\np = 1\nh = 0.8\n"
            "grid_min = -1\ngrid_max = 1\ngrid_count = 5\n"
            "replications = 6\nseed = 11\n",
        )
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                RUN + ["simulate", "--config", cfg, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("replications.csv", "curves.csv", "quartiles.csv", "failures.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        a = tmp_path / "a"
        assert run_cli("simulate", "--config", cfg, "--out", str(a),
                       "--seed", "123").returncode == 0
        b = tmp_path / "b"
        proc = run_cli("simulate", "--config", str(a / "resolved-config"),
                       "--out", str(b))
        assert proc.returncode == 0, proc.stderr
        assert (a / "replications.csv").read_bytes() == (b / "replications.csv").read_bytes()
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()

    def test_singleton_pools_collapse_in_the_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG.replace("c = 2", "c = 1"))
        out = tmp_path / "res"
        assert run_cli("simulate", "--config", cfg, "--out", str(out)).returncode == 0
        _, rows = read_rows(out / "curves.csv")
        fits = {}
        for rep, est, x, m_hat in rows:
            fits.setdefault((rep, x), {})[est] = float(m_hat)
        for cell in fits.values():
            base = cell["individual"]
            for est in ("average", "product", "marginal"):
                assert abs(cell[est] - base) < 1e-10

    def test_unknown_key_exits_2_naming_it(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG + "pool_size = 3\n")
        proc = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "pool_size" in proc.stderr


def make_data_files(tmp_path, n=80, c=2, seed=3):
    rng = np.random.default_rng(seed)
    base = sample_dgp(get_dgp("quadratic"), n, rng)
    pooled = pool_random(base, c, rng)
    write_individual_csv(tmp_path / "points.csv", base)
    write_pooled_csv(tmp_path / "pools.csv", tmp_path / "members.csv", pooled)
    return base, pooled


class TestFit:
    def test_individual_fixed_h(self, tmp_path):
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"data = {tmp_path / 'points.csv'}\n"
            "estimators = individual\np = 1\nh = 0.4\n"
            "grid_min = -0.8\ngrid_max = 0.8\ngrid_count = 9\n"
        ))
        out = tmp_path / "fit"
        proc = run_cli("fit", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_rows(out / "curve.csv")
        assert header == ["x", "m_hat", "failed"]
        assert len(rows) == 9
        assert all(r[2] == "0" for r in rows)
        # the quadratic should be roughly recovered at the origin
        mid = rows[4]
        assert abs(float(mid[0])) < 1e-12 and abs(float(mid[1])) < 0.15

    def test_marginal_cv_writes_trace_and_pseudo(self, tmp_path):
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"pools = {tmp_path / 'pools.csv'}\n"
            f"members = {tmp_path / 'members.csv'}\n"
            "estimators = marginal\np = 1\ncv = true\n"
            "grid_min = -0.5\ngrid_max = 0.5\ngrid_count = 5\n"
        ))
        out = tmp_path / "fit"
        proc = run_cli("fit", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_rows(out / "cv_trace.csv")
        assert header == ["h", "criterion", "valid", "failed_folds"]
        assert len(rows) >= 10
        header, rows = read_rows(out / "pseudo.csv")
        assert header == ["pool_id", "R"]
        assert len(rows) == 40

    @pytest.mark.parametrize("command, estimator, files", [
        ("fit", "marginal", ("curve.csv", "cv_trace.csv", "pseudo.csv")),
        ("bandwidth", "product", ("cv_trace.csv",)),
    ])
    def test_cv_outputs_independent_of_jobs_and_blas_threads(
            self, tmp_path, command, estimator, files):
        # narrow candidates fail folds here, so failed_folds is exercised too
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"pools = {tmp_path / 'pools.csv'}\n"
            f"members = {tmp_path / 'members.csv'}\n"
            f"estimators = {estimator}\np = 1\ncv = true\n"
            "grid_min = -0.5\ngrid_max = 0.5\ngrid_count = 5\n"
        ))
        # jobs1 and jobs2 run with the BLAS variables unset (the CLI pins one
        # thread), blas1 and blas2 with OPENBLAS_NUM_THREADS preset (kept)
        runs = {"jobs1": (["--jobs", "1"], {}), "jobs2": (["--jobs", "2"], {}),
                "blas1": ([], {"OPENBLAS_NUM_THREADS": "1"}),
                "blas2": ([], {"OPENBLAS_NUM_THREADS": "2"})}
        for name, (flags, env) in runs.items():
            proc = subprocess.run(
                RUN + [command, "--config", cfg, "--out", str(tmp_path / name), *flags],
                capture_output=True, text=True, env=blas_env(**env),
            )
            assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(tmp_path / "jobs1" / "cv_trace.csv")
        assert any(int(failed) > 0 for *_, failed in rows)
        for file in files:
            want = (tmp_path / "jobs1" / file).read_bytes()
            for name in runs:
                assert (tmp_path / name / file).read_bytes() == want, (name, file)

    def test_out_of_support_point_is_flagged_not_fatal(self, tmp_path):
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"data = {tmp_path / 'points.csv'}\n"
            "estimators = individual\np = 1\nh = 0.3\n"
            "grid_min = 0\ngrid_max = 9\ngrid_count = 4\n"
        ))
        out = tmp_path / "fit"
        proc = run_cli("fit", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(out / "curve.csv")
        assert rows[0][2] == "0"
        assert rows[-1][2] == "1" and rows[-1][1] == "nan"

    def test_two_estimators_rejected(self, tmp_path):
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"data = {tmp_path / 'points.csv'}\n"
            "estimators = individual,average\nh = 0.4\n"
        ))
        proc = run_cli("fit", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "exactly one estimator" in proc.stderr

    def test_missing_data_keys_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "estimators = individual\nh = 0.4\n")
        proc = run_cli("fit", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2


class TestBandwidth:
    def test_prints_chosen_h(self, tmp_path):
        make_data_files(tmp_path)
        cfg = write_cfg(tmp_path, (
            f"pools = {tmp_path / 'pools.csv'}\n"
            f"members = {tmp_path / 'members.csv'}\n"
            "estimators = average\np = 1\n"
        ))
        out = tmp_path / "bw"
        proc = run_cli("bandwidth", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("chosen_h = ")
        chosen = float(proc.stdout.split("=")[1])
        _, rows = read_rows(out / "cv_trace.csv")
        valid = [(float(c), float(h)) for h, c, ok, _ in rows if ok == "1"]
        assert min(valid)[1] == chosen
        # a candidate is invalid exactly when some of its folds failed
        assert all((ok == "1") == (failed == "0") for *_, ok, failed in rows)
        assert any(failed != "0" for *_, failed in rows)


THEORY_CFG = """\
dgp = quadratic
n = 2000
c = 2
estimators = individual,average,product,marginal
p = 0
h = 0.1
grid_min = -0.5
grid_max = 0.5
grid_count = 5
"""


class TestTheory:
    def test_persistent_bias_example(self, tmp_path):
        cfg = write_cfg(tmp_path, THEORY_CFG)
        out = tmp_path / "th"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_rows(out / "theory.csv")
        assert header == ["x", "estimator", "persistent_bias", "leading_bias",
                          "variance_factor"]
        row = next(r for r in rows if r[1] == "average" and float(r[0]) == 0.0)
        assert abs(float(row[2]) - 1.0 / 6.0) < 1e-6

    def test_unit_pools_zero_persistent_bias(self, tmp_path):
        cfg = write_cfg(tmp_path, THEORY_CFG.replace("dgp = quadratic", "dgp = d3")
                                           .replace("c = 2", "c = 1")
                                           .replace("p = 0", "p = 1"))
        out = tmp_path / "th"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(out / "theory.csv")
        assert rows and all(float(r[2]) == 0.0 for r in rows)

    def test_marginal_and_individual_leading_bias_match(self, tmp_path):
        cfg = write_cfg(tmp_path, THEORY_CFG.replace("p = 0", "p = 1"))
        out = tmp_path / "th"
        assert run_cli("theory", "--config", cfg, "--out", str(out)).returncode == 0
        _, rows = read_rows(out / "theory.csv")
        by_est = {}
        for r in rows:
            by_est.setdefault(r[1], []).append(r[3])
        assert by_est["marginal"] == by_est["individual"]

    def test_singular_moment_matrix_exits_3(self, tmp_path):
        # a pool size this large collapses the product-weight moment matrix
        big = 10 ** 15
        cfg = write_cfg(tmp_path, (
            "dgp = quadratic\n"
            f"n = {big}\nc = {big}\n"
            "estimators = product\np = 1\nh = 0.1\n"
            "grid_min = 0\ngrid_max = 0\ngrid_count = 1\n"
        ))
        proc = run_cli("theory", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr

    @pytest.mark.parametrize("p", [2, 3])
    def test_gaussian_kernel_runs_quietly(self, tmp_path, p):
        # p = 3 needs the order-8 Gaussian moment, which quadrature over the
        # real line failed to converge on; at p = 2 it warned on stderr
        cfg = write_cfg(tmp_path, THEORY_CFG.replace("p = 0", f"p = {p}")
                        + "kernel = gaussian\n")
        out = tmp_path / "th"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        _, rows = read_rows(out / "theory.csv")
        assert len(rows) == 20
        assert all(np.isfinite(float(r[3])) for r in rows)

    def test_random_design_keeps_the_remainder_pool(self, tmp_path):
        # 601 records in pools of 2: simulate's pool_random makes 300 pairs
        # and a single, and the theory must describe those 301 pools
        cfg = write_cfg(tmp_path, (
            "dgp = d3\nn = 601\nc = 2\nestimators = average,marginal\n"
            "p = 1\nh = 0.3\ngrid_min = 0.5\ngrid_max = 0.5\ngrid_count = 1\n"
        ))
        out = tmp_path / "th"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(out / "theory.csv")
        people = sample_dgp(get_dgp("d3"), 601, np.random.default_rng(0))
        sizes = pool_random(people, 2, np.random.default_rng(1)).sizes
        assert sizes.size == 301
        ctx = theory_context(get_dgp("d3"))
        want = {"average": theory.average_random_summary(ctx, 0.5, 1, 0.3, sizes),
                "marginal": theory.marginal_random_summary(ctx, 0.5, 1, 0.3, 601, sizes)}
        assert [r[1] for r in rows] == ["average", "marginal"]
        for r in rows:
            s = want[r[1]]
            variance = np.nan if s.variance is None else s.variance
            np.testing.assert_allclose([float(v) for v in r[2:]],
                                       [s.persistent_bias, s.leading_bias, variance],
                                       rtol=1e-12, atol=0)

    @staticmethod
    def huge_n_run(tmp_path, design):
        # 5 * 10^14 pools of two; only the random-design average and marginal
        # rows read the pool sizes
        cfg = write_cfg(tmp_path, (
            f"dgp = d2\nn = {10 ** 15}\nc = 2\ndesign = {design}\n"
            "estimators = individual,average\np = 1\nh = 0.25\ngrid_count = 5\n"
        ))
        proc = run_cli("theory", "--config", cfg, "--out", str(tmp_path / "th"))
        assert "Traceback" not in proc.stderr
        return proc, tmp_path / "th" / "theory.csv"

    def test_huge_n_homogeneous_builds_no_pool_sizes(self, tmp_path):
        proc, csv_path = self.huge_n_run(tmp_path, "homogeneous")
        assert proc.returncode == 0, proc.stderr
        _, rows = read_rows(csv_path)
        assert [r[1] for r in rows] == ["individual", "average"] * 5

    def test_huge_n_random_pool_sizes_are_refused(self, tmp_path):
        proc, csv_path = self.huge_n_run(tmp_path, "random")
        assert proc.returncode == 2, proc.stderr
        assert (f"n = {10 ** 15} in pools of c = 2 makes more than 10000000 pools"
                in proc.stderr)
        assert not csv_path.exists()

    def test_cv_config_is_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, THEORY_CFG.replace("h = 0.1", "cv = true"))
        proc = run_cli("theory", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("old, new, message", [
        ("p = 0", "p = -1", "polynomial order must be >= 0"),
        ("h = 0.1", "h = -0.25", "bandwidth must be positive"),
        ("h = 0.1", "h = 0", "bandwidth must be positive"),
    ])
    def test_order_and_bandwidth_are_checked_as_in_fits(self, tmp_path, old, new, message):
        cfg = write_cfg(tmp_path, THEORY_CFG.replace(old, new))
        out = tmp_path / "x"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "theory.csv").exists()

    def test_pool_size_zero_exits_2_naming_the_key(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "dgp = d2\nn = 600\nc = 0\nh = 0.25\ndesign = random\nestimators = average\n"
        ))
        out = tmp_path / "x"
        proc = run_cli("theory", "--config", cfg, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "key 'c': pool size must be at least 1, got 0" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "theory.csv").exists()

    def test_point_of_zero_density_exits_2_naming_it(self, tmp_path):
        # the d2 covariate law has no mass below -2, and the expansions
        # divide by the density
        cfg = write_cfg(tmp_path, THEORY_CFG.replace("dgp = quadratic", "dgp = d2")
                                           .replace("grid_min = -0.5", "grid_min = -3"))
        proc = run_cli("theory", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2, proc.stderr
        assert "density is 0 at x=-3" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBootstrap:
    def bootstrap_cfg(self, tmp_path, extra=""):
        return write_cfg(tmp_path, (
            f"pools = {tmp_path / 'pools.csv'}\n"
            f"members = {tmp_path / 'members.csv'}\n"
            "estimators = average\np = 1\nh = 0.5\n"
            "grid_min = -0.5\ngrid_max = 0.5\ngrid_count = 3\n"
            "replications = 20\nseed = 11\n" + extra
        ))

    def test_bands_schema_and_rerun(self, tmp_path):
        make_data_files(tmp_path)
        cfg = self.bootstrap_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        proc = run_cli("bootstrap", "--config", cfg, "--out", str(a))
        assert proc.returncode == 0, proc.stderr
        header, rows = read_rows(a / "bands.csv")
        assert header == ["x", "mean", "q05", "q95", "coverage"]
        assert len(rows) == 3
        for x, mean, lo, hi, cov in rows:
            assert float(lo) <= float(mean) <= float(hi)
            assert float(cov) == 1.0
        assert run_cli("bootstrap", "--config", cfg, "--out", str(b),
                       "--jobs", "4").returncode == 0
        assert (a / "bands.csv").read_bytes() == (b / "bands.csv").read_bytes()

    def test_individual_estimator_rejected(self, tmp_path):
        make_data_files(tmp_path)
        cfg = self.bootstrap_cfg(tmp_path).replace("average", "individual")
        cfg2 = write_cfg(tmp_path, (tmp_path / "run.cfg").read_text()
                         .replace("estimators = average", "estimators = individual"),
                         name="run2.cfg")
        proc = run_cli("bootstrap", "--config", cfg2, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_missing_pool_files_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "estimators = average\nh = 0.5\nreplications = 8\n")
        proc = run_cli("bootstrap", "--config", cfg, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "pools" in proc.stderr


class TestMainEntry:
    def test_main_returns_codes_in_process(self, tmp_path):
        cfg = write_cfg(tmp_path, SIMULATE_CFG)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "ok")]) == 0
        bad = write_cfg(tmp_path, "frobnicate = 1\n", name="bad.cfg")
        assert main(["simulate", "--config", bad,
                     "--out", str(tmp_path / "no")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "x")]) == 2
