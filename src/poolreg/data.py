"""Dataset containers, pooling designs, and ingestion of external pooled data.

A pooled dataset is stored flat: all member covariates live in one array,
contiguous per pool, with an offsets table giving each pool's slice. A
member table gives the same layout as one row of member positions per pool,
padded with -1, so that per-pool sums are sums over its last axis.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyDataset, NonFiniteValue, OrphanPool, UserInputError

__all__ = [
    "Design",
    "IndividualDataset",
    "PooledDataset",
    "pool_random",
    "pool_homogeneous",
    "ingest_pooled",
    "read_individual_csv",
    "write_individual_csv",
    "read_pooled_csv",
    "write_pooled_csv",
]

FLOAT_FMT = "%.17g"


class Design(enum.Enum):
    RANDOM = "random"
    HOMOGENEOUS = "homogeneous"
    EXTERNAL = "external"


def _as_readonly_float(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains a NaN or infinity")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class IndividualDataset:
    """Raw (covariate, response) records, one per individual."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_readonly_float(self.x, "x"))
        object.__setattr__(self, "y", _as_readonly_float(self.y, "y"))
        if self.x.size != self.y.size:
            raise ValueError("x and y must have the same length")
        if self.x.size == 0:
            raise EmptyDataset("no records supplied")

    @property
    def n_units(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class PooledDataset:
    """J pools over N individuals, member covariates flat and contiguous.

    ``offsets`` has length J+1; pool j owns ``x_flat[offsets[j]:offsets[j+1]]``.
    """

    z: np.ndarray
    sizes: np.ndarray
    x_flat: np.ndarray
    design: Design
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "z", _as_readonly_float(self.z, "z"))
        object.__setattr__(self, "x_flat", _as_readonly_float(self.x_flat, "x_flat"))
        sizes = np.array(self.sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise EmptyDataset("a pooled dataset needs at least one pool")
        if np.any(sizes < 1):
            raise ValueError("every pool must have at least one member")
        if self.z.size != sizes.size:
            raise ValueError("z and sizes must have the same length")
        if int(sizes.sum()) != self.x_flat.size:
            raise ValueError("sizes do not add up to the number of covariates")
        sizes.flags.writeable = False
        object.__setattr__(self, "sizes", sizes)
        if not self.ids:
            object.__setattr__(self, "ids", tuple(str(j) for j in range(sizes.size)))
        elif len(self.ids) != sizes.size:
            raise ValueError("ids and sizes must have the same length")
        if self.design is Design.HOMOGENEOUS:
            self._check_sorted_chunks()

    def _check_sorted_chunks(self):
        starts = self.offsets[:-1]
        top = np.maximum.reduceat(self.x_flat, starts)[:-1]
        if np.any(top > np.minimum.reduceat(self.x_flat, starts)[1:]):
            raise ValueError("homogeneous pools must be sorted chunks of the covariate")

    @cached_property
    def offsets(self) -> np.ndarray:
        off = np.zeros(self.sizes.size + 1, dtype=np.int64)
        np.cumsum(self.sizes, out=off[1:])
        off.flags.writeable = False
        return off

    @cached_property
    def member_table(self) -> np.ndarray:
        """Positions in x_flat of each pool's members, one row per pool, -1 padded."""
        table = _member_table(self.sizes)
        table.flags.writeable = False
        return table

    @cached_property
    def member_pool_index(self) -> np.ndarray:
        idx = np.repeat(np.arange(self.n_pools, dtype=np.int64), self.sizes)
        idx.flags.writeable = False
        return idx

    @property
    def n_pools(self) -> int:
        return self.sizes.size

    @property
    def n_units(self) -> int:
        return self.x_flat.size


def _member_table(sizes: np.ndarray) -> np.ndarray:
    """Flat positions of each pool's members, one row per pool, padded with -1."""
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(int(sizes.max()))
    return np.where(slot < sizes[:, None], starts[:, None] + slot, -1)


def _chunk_sizes(n: int, c: int) -> np.ndarray:
    """n // c pools of size c, then one pool of the n mod c left over, if any."""
    if c < 1:
        raise UserInputError(f"pool size must be at least 1, got {c}")
    remainder = n % c
    sizes = np.full(n // c, c, dtype=np.int64)
    if remainder:
        sizes = np.append(sizes, remainder)
    return sizes


def _pool_by_order(
    data: IndividualDataset, order: np.ndarray, c: int, design: Design
) -> PooledDataset:
    sizes = _chunk_sizes(data.n_units, c)
    x_flat = data.x[order]
    y_flat = data.y[order]
    table = _member_table(sizes)
    z = np.where(table >= 0, y_flat[table], 0.0).sum(axis=1) / sizes
    return PooledDataset(z=z, sizes=sizes, x_flat=x_flat, design=design)


def pool_random(data: IndividualDataset, c: int, rng: np.random.Generator) -> PooledDataset:
    """Randomly permute individuals, then chunk into consecutive pools of c.

    When N is not a multiple of c the final pool keeps the remaining
    N mod c individuals.
    """
    order = rng.permutation(data.n_units)
    return _pool_by_order(data, order, c, Design.RANDOM)


def pool_homogeneous(data: IndividualDataset, c: int) -> PooledDataset:
    """Sort individuals by covariate (stable), then chunk into pools of c."""
    order = np.argsort(data.x, kind="stable")
    return _pool_by_order(data, order, c, Design.HOMOGENEOUS)


def ingest_pooled(
    pool_rows: Iterable[tuple[str, float]],
    member_rows: Iterable[tuple[str, float]],
) -> PooledDataset:
    """Assemble a PooledDataset from (pool_id, z) and (pool_id, x) records.

    Pool order follows first appearance in the member table. Every pool_id
    must appear in both tables.
    """
    z_by_id: dict[str, float] = {}
    for pid, z in pool_rows:
        pid = str(pid)
        if pid in z_by_id:
            raise UserInputError(f"pool id {pid!r} listed twice in the response table")
        z_by_id[pid] = float(z)

    members: dict[str, list[float]] = {}
    for pid, x in member_rows:
        pid = str(pid)
        if pid not in z_by_id:
            raise OrphanPool(f"pool id {pid!r} has members but no pooled response")
        members.setdefault(pid, []).append(float(x))

    missing = [pid for pid in z_by_id if pid not in members]
    if missing:
        raise OrphanPool(f"pool id {missing[0]!r} has a pooled response but no members")
    if not members:
        raise EmptyDataset("no pooled records supplied")

    ids = tuple(members.keys())
    sizes = np.array([len(members[pid]) for pid in ids], dtype=np.int64)
    z = np.array([z_by_id[pid] for pid in ids], dtype=float)
    x_flat = np.concatenate([np.asarray(members[pid], dtype=float) for pid in ids])
    return PooledDataset(z=z, sizes=sizes, x_flat=x_flat, design=Design.EXTERNAL, ids=ids)


def _read_table(path: Path, columns: tuple[str, str]) -> list[tuple[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UserInputError(f"{path}: empty file, expected a header row") from None
        header = [col.strip().lower() for col in header]
        if header != list(columns):
            raise UserInputError(
                f"{path}: expected header {','.join(columns)!r}, got {','.join(header)!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise UserInputError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            rows.append((row[0].strip(), row[1].strip()))
    return rows


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UserInputError(f"{where}: could not parse {text!r} as a number") from None
    if not math.isfinite(value):
        raise NonFiniteValue(f"{where}: non-finite value {text!r}")
    return value


def read_individual_csv(path: str | Path) -> IndividualDataset:
    path = Path(path)
    rows = _read_table(path, ("x", "y"))
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    x = [_parse_float(a, f"{path} column x") for a, _ in rows]
    y = [_parse_float(b, f"{path} column y") for _, b in rows]
    return IndividualDataset(x=np.array(x), y=np.array(y))


def write_individual_csv(path: str | Path, data: IndividualDataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([FLOAT_FMT % xi, FLOAT_FMT % yi])


def read_pooled_csv(pools_path: str | Path, members_path: str | Path) -> PooledDataset:
    pool_rows = [
        (pid, _parse_float(z, f"{pools_path} column z"))
        for pid, z in _read_table(Path(pools_path), ("pool_id", "z"))
    ]
    member_rows = [
        (pid, _parse_float(x, f"{members_path} column x"))
        for pid, x in _read_table(Path(members_path), ("pool_id", "x"))
    ]
    return ingest_pooled(pool_rows, member_rows)


def write_pooled_csv(
    pools_path: str | Path, members_path: str | Path, pooled: PooledDataset
) -> None:
    with open(pools_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pool_id", "z"])
        for pid, z in zip(pooled.ids, pooled.z):
            writer.writerow([pid, FLOAT_FMT % z])
    with open(members_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pool_id", "x"])
        off = pooled.offsets
        for j, pid in enumerate(pooled.ids):
            for x in pooled.x_flat[off[j]:off[j + 1]]:
                writer.writerow([pid, FLOAT_FMT % x])
