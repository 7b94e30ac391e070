"""The package root: its public names and the README's library quick start."""

import re
from pathlib import Path

import poolreg

PUBLIC_NAMES = {
    "AsymptoticSummary", "BootstrapBands", "CurveEstimate", "CvTrace",
    "DGP_REGISTRY", "Design", "Dgp", "DivergentMoment", "EmptyDataset",
    "Estimator", "FitConfig", "FoldFailure", "IncompleteCurve",
    "IndividualDataset", "KernelKind", "LocalFit", "MomentMatrices",
    "NoValidBandwidth", "NonFiniteValue", "NonPositiveBandwidth",
    "NumericalFailure", "OrphanPool", "PoolConstants", "PooledDataset",
    "PoolregError", "PseudoData", "ReplicationRecord", "SimulationSpec",
    "SingularLocalSystem", "SingularMomentMatrix", "TheoryContext",
    "TooFewRecords", "UnsupportedKernel", "UserInputError",
    "average_random_summary", "bootstrap_curves", "build_pseudo_data",
    "compute_moments", "covariate_moments", "default_h_grid", "dgp_mean",
    "estimate_curve", "fit_average_weighted", "fit_individual",
    "fit_marginal_integration", "fit_product_weighted", "get_dgp",
    "homogeneous_summary", "individual_summary", "ingest_pooled", "ise",
    "kernel_eval", "marginal_random_summary", "moment_matrices",
    "pool_constants", "pool_homogeneous", "pool_random", "product_random_bias",
    "read_individual_csv", "read_pooled_csv", "remainder_moments",
    "run_monte_carlo", "sample_dgp", "select_bandwidth",
    "select_quartile_realizations", "theory_context", "trim_bounds_for",
    "write_individual_csv", "write_pooled_csv",
}


def test_public_names():
    assert len(poolreg.__all__) == len(set(poolreg.__all__))
    assert set(poolreg.__all__) == PUBLIC_NAMES
    for name in poolreg.__all__:
        assert hasattr(poolreg, name), name


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
