"""The package root: its public names, the README's library quick start and
the acceptance records its Tests section points to."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import poolreg

PUBLIC_NAMES = {
    "AsymptoticSummary", "BootstrapBands", "CurveEstimate", "CvTrace",
    "DGP_REGISTRY", "Design", "Dgp", "DivergentMoment", "EmptyDataset",
    "Estimator", "FitConfig", "FoldFailure", "IncompleteCurve",
    "IndividualDataset", "KernelKind", "LocalFit", "NoValidBandwidth",
    "NonFiniteValue", "NonPositiveBandwidth", "NumericalFailure", "OrphanPool",
    "PooledDataset", "PoolregError", "PseudoData", "ReplicationRecord",
    "SimulationSpec", "SingularLocalSystem", "SingularMomentMatrix",
    "TheoryContext", "TooFewRecords", "UnsupportedKernel", "UserInputError",
    "average_random_summary", "bootstrap_curves", "build_pseudo_data",
    "compute_moments", "default_h_grid", "estimate_curve",
    "fit_average_weighted", "fit_individual", "fit_marginal_integration",
    "fit_product_weighted", "get_dgp", "homogeneous_summary",
    "individual_summary", "ingest_pooled", "ise", "kernel_eval",
    "marginal_random_summary", "pool_homogeneous", "pool_random",
    "product_random_bias", "read_individual_csv", "read_pooled_csv",
    "run_monte_carlo", "sample_dgp", "select_bandwidth",
    "select_quartile_realizations", "theory_context", "trim_bounds_for",
    "write_individual_csv", "write_pooled_csv",
}


def test_public_names():
    assert len(poolreg.__all__) == len(set(poolreg.__all__))
    assert set(poolreg.__all__) == PUBLIC_NAMES
    for name in poolreg.__all__:
        assert hasattr(poolreg, name), name


# every setting of the public API: defaulted parameters of public functions
# and defaulted init fields of public dataclasses
OPTIONS = {
    "AsymptoticSummary.notes", "FitConfig.kernel", "PooledDataset.ids",
    "ReplicationRecord.failures", "SimulationSpec.c", "SimulationSpec.design",
    "SimulationSpec.h", "SimulationSpec.kernel", "SimulationSpec.n",
    "SimulationSpec.p", "SimulationSpec.replications", "SimulationSpec.seed",
    "SimulationSpec.trim", "SimulationSpec.use_true_mean_reference",
    "TheoryContext.breakpoints", "TheoryContext.density_derivative",
    "TheoryContext.mean_derivative", "TheoryContext.quad_tol",
    "average_random_summary.kernel", "bootstrap_curves.jobs",
    "compute_moments.power", "default_h_grid.n",
    "homogeneous_summary.kernel", "individual_summary.kernel",
    "marginal_random_summary.kernel", "product_random_bias.kernel", "run_monte_carlo.jobs",
    "select_bandwidth.criterion", "select_bandwidth.grid", "select_bandwidth.trim",
}


def test_option_surface():
    # a new setting fails here until it is added to OPTIONS
    found = set()
    for name in poolreg.__all__:
        obj = getattr(poolreg, name)
        if dataclasses.is_dataclass(obj):
            found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj) if f.init and (
                f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING)}
        elif inspect.isfunction(obj):
            found |= {f"{name}.{p.name}" for p in inspect.signature(obj).parameters.values()
                      if p.default is not inspect.Parameter.empty}
    assert found == OPTIONS


def test_every_public_name_is_used_or_documented():
    # a public name must serve the package itself or a reader of the README,
    # not only the tests; def/class names and __all__ strings are no use
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (root / "src" / "poolreg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    readme = (root / "README.md").read_text()
    idle = [name for name in poolreg.__all__
            if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert idle == []


SUBMODULES = {"bandwidth", "data", "errors", "estimators", "kernels", "simulation", "theory"}


def test_lazy_root_public_names():
    # the root imports its modules on first use; a star import and dir() each
    # load them and give the public names, a submodule name loads its module
    checks = {
        "star": "ns = {}\nexec('from poolreg import *', ns)\nprint(sorted(set(ns) - {'__builtins__'}))",
        "dir": "print([n for n in dir(poolreg) if not n.startswith('_')])",
        "submodule": "print(poolreg.kernels.__name__, 'poolreg.simulation' in sys.modules)",
    }
    out = {}
    for name, code in checks.items():
        proc = subprocess.run([sys.executable, "-c", "import sys, poolreg\n" + code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout.strip()
    assert ast.literal_eval(out["star"]) == sorted(PUBLIC_NAMES)
    assert ast.literal_eval(out["dir"]) == sorted(PUBLIC_NAMES | SUBMODULES)
    assert out["submodule"] == "poolreg.kernels False"


def test_traced_names_are_bound():
    # the benchmark tracer wraps these names where the program looks them up;
    # one no longer bound there would only show in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unbound = [f"{module}.{name}" for module, name, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), name)]
    assert unbound == []


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_acceptance_records_land_in_the_pytest_cache(tmp_path):
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "pytest", "-q",
            "tests/test_acceptance.py::test_c08_kernel_moments"]
    proc = subprocess.run(argv + ["-o", f"cache_dir={tmp_path}"],
                          capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = tmp_path / "v" / "poolreg" / "acceptance"
    records = json.loads(path.read_text())
    assert [(r["slug"], r["ok"]) for r in records] == [("kernel moments", True)]
    assert records[0]["detail"] in proc.stdout
    # without the cache plugin the run passes as before
    proc = subprocess.run(argv + ["-p", "no:cacheprovider"], capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
