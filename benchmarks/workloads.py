"""The benchmark workloads: inputs, CLI commands and output checks.

Each workload writes its inputs from the benchmark seed, names the
``poolreg`` commands of one round, gives the snippet a fresh interpreter
runs to measure set-up, and checks a round's outputs against the
computations in ``reference.py``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference as ref

# elementwise agreement |a - b| <= REL_TOL * (|b| + FLOOR * max|b|)
REL_TOL = 1e-8
FLOOR = 1e-3
THEORY_REL_TOL = 1e-6


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_config(path: Path, settings: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")


def write_pooled(directory: Path, z, sizes, x_flat) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    pools, members = directory / "pools.csv", directory / "members.csv"
    pools.write_text(
        "pool_id,z\n" + "".join(f"p{j},{v:.17g}\n" for j, v in enumerate(z)),
        encoding="utf-8",
    )
    owner = np.repeat(np.arange(len(sizes)), sizes)
    members.write_text(
        "pool_id,x\n" + "".join(f"p{j},{v:.17g}\n" for j, v in zip(owner, x_flat)),
        encoding="utf-8",
    )
    return pools, members


def random_pooled(dgp: str, n: int, c: int, seed: int):
    """Benchmark-drawn data: covariates, noise, then a random pooling permutation."""
    rng = np.random.default_rng(seed)
    x, y = ref.sample_individual(dgp, rng, n)
    return ref.pool_in_order(x, y, rng.permutation(n), c)


def disagreement(got, want, rel: float = REL_TOL) -> float:
    """Largest |got - want| in units of the elementwise tolerance (<= 1 passes)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = rel * (np.abs(want) + FLOOR * np.max(np.abs(want)))
    err = np.abs(got - want) / scale
    err[~(np.isfinite(got) & np.isfinite(want))] = np.inf
    return float(np.max(err))


def sq_errors(dgp: str, x, values) -> np.ndarray:
    """Squared errors against the true mean at grid points inside the law's central 95%."""
    x, values = np.asarray(x, dtype=float), np.asarray(values, dtype=float)
    lo, hi = ref.central_95()
    keep = (x >= lo) & (x <= hi)
    return (values[keep] - ref.MEANS[dgp](x[keep])) ** 2


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.problems: list[str] = []
        self.margins: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def expect_close(self, label: str, got, want, rel: float = REL_TOL) -> None:
        """Check agreement and keep the worst gap, in tolerances, for the result file."""
        d = disagreement(got, want, rel)
        self.margins[label] = max(d, self.margins.get(label, 0.0))
        self.expect(d <= 1.0, f"{label}: off the reference by {d:.3g} tolerances")


# ---------------------------------------------------------------------------


class McHomogeneous(Workload):
    """The README study plus its theory report."""

    name = "mc-homogeneous"
    replications = 12
    n, c, grid = 600, 2, (-1.8, 1.8, 41)
    theory_h = 0.25
    estimators = ("individual", "average", "product")

    def prepare(self) -> None:
        common = {
            "dgp": "d2", "n": self.n, "c": self.c, "design": "homogeneous",
            "estimators": ",".join(self.estimators), "p": 1,
            "grid_min": self.grid[0], "grid_max": self.grid[1], "grid_count": self.grid[2],
        }
        write_config(self.work / "study.cfg", {
            **common, "cv": "true", "replications": self.replications, "seed": self.seed,
        })
        write_config(self.work / "theory.cfg", {**common, "h": self.theory_h})

    def commands(self, out: Path, jobs: int = 2) -> list[list[str]]:
        return [
            ["simulate", "--config", str(self.work / "study.cfg"),
             "--out", str(out / "simulate"), "--jobs", str(jobs)],
            ["theory", "--config", str(self.work / "theory.cfg"), "--out", str(out / "theory")],
        ]

    def setup_snippet(self) -> str:
        # the first replication's data, drawn as the study draws it
        return (
            "import numpy as np, poolreg, poolreg.cli as cli\n"
            f"cfg = cli.load_config({str(self.work / 'study.cfg')!r})\n"
            "rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))\n"
            "people = poolreg.sample_dgp(poolreg.get_dgp(cfg.dgp), cfg.n, rng)\n"
            "poolreg.pool_homogeneous(people, cfg.c)\n"
        )

    def seeds(self) -> dict:
        return {"benchmark": self.seed, "simulate_master_seed": self.seed,
                "rebuilt_replication": self.seed % self.replications}

    def rebuild(self, rep: int) -> tuple[dict, dict]:
        """Replication ``rep`` from the documented stream SeedSequence(seed, spawn_key=(rep,))."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(rep,)))
        x, y = ref.sample_individual("d2", rng, self.n)
        z, sizes, x_flat = ref.pool_in_order(x, y, np.argsort(x, kind="stable"), self.c)
        return {"x": x, "y": y}, {"z": z, "sizes": sizes, "x_flat": x_flat}

    def check(self, out: Path) -> dict:
        reps = read_csv(out / "simulate" / "replications.csv")
        curves = read_csv(out / "simulate" / "curves.csv")
        ise = {(int(r["rep"]), r["estimator"]): float(r["ise"]) for r in reps}
        hs = {(int(r["rep"]), r["estimator"]): float(r["h"]) for r in reps}
        failed = sum(1 for v in ise.values() if math.isnan(v))
        self.expect(len(ise) == self.replications * len(self.estimators),
                    f"replications.csv has {len(ise)} rows")

        # one replication rebuilt and refit at its reported bandwidths
        rep = self.seed % self.replications
        individual, pooled = self.rebuild(rep)
        grid = np.linspace(*self.grid)
        for est in self.estimators:
            if math.isnan(ise[(rep, est)]):
                continue
            data = individual if est == "individual" else pooled
            h = hs[(rep, est)]
            got = np.array([float(r["m_hat"]) for r in curves
                            if int(r["rep"]) == rep and r["estimator"] == est])
            self.expect_close(f"curves.csv {est}", got, ref.curve(est, data, h, grid))
            fitted = ref.curve(est, data, h, individual["x"])
            want_ise = float(np.sum((individual["y"] - fitted) ** 2))
            self.expect_close(f"replications.csv ise {est}", [ise[(rep, est)]], [want_ise])

        # the homogeneous-pooling efficiency property
        medians = {est: float(np.median([v for (r, e), v in ise.items()
                                         if e == est and not math.isnan(v)]))
                   for est in self.estimators}
        ratio_avg = medians["average"] / medians["individual"]
        ratio_prod = medians["product"] / medians["individual"]
        self.expect(ratio_avg <= 1.3, f"median ISE ratio average/individual {ratio_avg:.4f} > 1.3")
        self.expect(ratio_prod <= 1.5, f"median ISE ratio product/individual {ratio_prod:.4f} > 1.5")

        # individual theory rows against the closed forms
        rows = [r for r in read_csv(out / "theory" / "theory.csv")
                if r["estimator"] == "individual"]
        self.expect(len(rows) == self.grid[2], f"theory.csv has {len(rows)} individual rows")
        got_b, got_v, want_b, want_v = [], [], [], []
        for r in rows:
            b, v = ref.individual_theory_row("d2", float(r["x"]), self.theory_h, self.n)
            self.expect(float(r["persistent_bias"]) == 0.0,
                        f"theory x={r['x']}: individual persistent bias is not 0")
            got_b.append(float(r["leading_bias"]))
            got_v.append(float(r["variance_factor"]))
            want_b.append(b)
            want_v.append(v)
        # the finite-difference m'' carries an error of its own, hence 1e-6
        self.expect_close("theory.csv individual leading_bias", got_b, want_b,
                          rel=THEORY_REL_TOL)
        self.expect_close("theory.csv individual variance_factor", got_v, want_v)

        errors = sq_errors("d2", [float(r["x"]) for r in curves],
                           [float(r["m_hat"]) for r in curves])
        return {
            "attempted": len(ise), "failed": failed,
            "rmse_true": float(np.sqrt(np.nanmean(errors))),
            "ise_ratio_average": ratio_avg, "ise_ratio_product": ratio_prod,
            "rebuilt_replication": rep,
        }


# ---------------------------------------------------------------------------


class FitLarge(Workload):
    """Cross-validated fits on one large pooled file, both CV paths."""

    name = "fit-large"
    n, c, grid = 3000, 3, (-1.8, 1.8, 181)
    estimators = ("average", "marginal")

    def prepare(self) -> None:
        self.data = dict(zip(("z", "sizes", "x_flat"),
                             random_pooled("d1", self.n, self.c, self.seed)))
        pools, members = write_pooled(self.work / "data", **self.data)
        for est in self.estimators:
            write_config(self.work / f"fit_{est}.cfg", {
                "pools": pools, "members": members, "estimators": est, "cv": "true",
                "grid_min": self.grid[0], "grid_max": self.grid[1],
                "grid_count": self.grid[2],
            })

    def commands(self, out: Path, jobs: int = 1) -> list[list[str]]:
        return [["fit", "--config", str(self.work / f"fit_{est}.cfg"),
                 "--out", str(out / est)] for est in self.estimators]

    def setup_snippet(self) -> str:
        return (
            "import poolreg.cli as cli\n"
            f"cfg = cli.load_config({str(self.work / 'fit_average.cfg')!r})\n"
            "cli.read_pooled_csv(cfg.pools, cfg.members)\n"
        )

    def seeds(self) -> dict:
        return {"benchmark": self.seed, "data": self.seed}

    def check(self, out: Path) -> dict:
        z, sizes, x_flat = self.data["z"], self.data["sizes"], self.data["x_flat"]
        attempted = failed = 0
        errors = []
        chosen = {}
        for est in self.estimators:
            trace = read_csv(out / est / "cv_trace.csv")
            h = np.array([float(r["h"]) for r in trace])
            crit = np.array([float(r["criterion"]) for r in trace])
            valid = np.array([r["valid"] == "1" for r in trace])
            self.expect(np.array_equal(valid, np.isfinite(crit)),
                        f"{est}: cv_trace valid flags disagree with the criterion values")
            best = int(np.flatnonzero(valid)[np.argmin(crit[valid])])
            chosen[est] = h[best]

            # brute-force criterion at the chosen h and its valid grid neighbours
            near = [i for i in (best - 1, best, best + 1) if 0 <= i < h.size and valid[i]]
            brute = np.array([
                ref.pool_criterion(z, sizes, x_flat, h[i]) if est == "average"
                else ref.pseudo_criterion(z, sizes, x_flat, h[i])
                for i in near
            ])
            self.expect_close(f"cv_trace.csv {est} criterion", crit[near], brute)
            self.expect(np.array_equal(np.argsort(crit[near]), np.argsort(brute)),
                        f"{est}: brute-force criterion orders the candidates differently")

            rows = read_csv(out / est / "curve.csv")
            grid = np.array([float(r["x"]) for r in rows])
            values = np.array([float(r["m_hat"]) for r in rows])
            bad = np.array([r["failed"] == "1" for r in rows])
            attempted += len(rows)
            failed += int(bad.sum())
            want = ref.curve(est, self.data, h[best], grid)
            self.expect_close(f"curve.csv {est} at the chosen h", values[~bad], want[~bad])
            errors.append(sq_errors("d1", grid[~bad], values[~bad]))

            if est == "marginal":
                pseudo = np.array([float(r["R"]) for r in read_csv(out / est / "pseudo.csv")])
                self.expect_close("pseudo.csv", pseudo, ref.pseudo_responses(z, sizes))
        return {
            "attempted": attempted, "failed": failed,
            "rmse_true": float(np.sqrt(np.mean(np.concatenate(errors)))),
            "chosen_h": chosen,
        }


WORKLOADS = {w.name: w for w in (McHomogeneous, FitLarge)}
