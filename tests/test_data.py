import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolreg.data import (
    Design,
    IndividualDataset,
    PooledDataset,
    ingest_pooled,
    pool_homogeneous,
    pool_random,
    read_individual_csv,
    read_pooled_csv,
    write_individual_csv,
    write_pooled_csv,
)
from poolreg.errors import (
    EmptyDataset,
    NonFiniteValue,
    OrphanPool,
    UserInputError,
)


def small_data():
    return IndividualDataset(x=[1.0, 2.0, 3.0, 4.0], y=[10.0, 20.0, 30.0, 40.0])


class TestContainers:
    def test_rejects_empty(self):
        with pytest.raises(EmptyDataset):
            IndividualDataset(x=[], y=[])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteValue):
            IndividualDataset(x=[1.0, np.nan], y=[1.0, 2.0])
        with pytest.raises(NonFiniteValue):
            IndividualDataset(x=[1.0, 2.0], y=[np.inf, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            IndividualDataset(x=[1.0, 2.0], y=[1.0])

    def test_arrays_are_readonly(self):
        data = small_data()
        with pytest.raises(ValueError):
            data.x[0] = 99.0

    def test_offsets_and_member_index(self):
        pooled = pool_homogeneous(small_data(), 3)
        assert pooled.offsets.tolist() == [0, 3, 4]
        assert pooled.member_pool_index.tolist() == [0, 0, 0, 1]
        assert pooled.sizes.tolist() == [3, 1]
        assert pooled.member_table.tolist() == [[0, 1, 2], [3, -1, -1]]
        pooled = pool_homogeneous(small_data(), 2)
        off = pooled.offsets
        assert pooled.z.tolist() == [15.0, 35.0]
        assert pooled.x_flat[off[1]:off[2]].tolist() == [3.0, 4.0]


class TestRandomPooling:
    def test_unit_pools_relabel_data(self):
        data = small_data()
        pooled = pool_random(data, 1, np.random.default_rng(7))
        assert pooled.design is Design.RANDOM
        assert pooled.n_pools == 4
        assert sorted(pooled.z.tolist()) == sorted(data.y.tolist())
        assert sorted(pooled.x_flat.tolist()) == sorted(data.x.tolist())

    def test_mass_conservation_small(self):
        pooled = pool_random(small_data(), 2, np.random.default_rng(11))
        assert pooled.n_pools == 2
        assert abs(float(pooled.sizes @ pooled.z) - 100.0) < 1e-12

    def test_remainder_rule(self):
        data = IndividualDataset(x=np.arange(5.0), y=np.ones(5))
        pooled = pool_random(data, 2, np.random.default_rng(0))
        assert pooled.sizes.tolist() == [2, 2, 1]

    def test_same_seed_reproduces(self):
        data = IndividualDataset(
            x=np.linspace(0, 1, 50), y=np.sin(np.linspace(0, 1, 50))
        )
        a = pool_random(data, 3, np.random.default_rng(42))
        b = pool_random(data, 3, np.random.default_rng(42))
        assert np.array_equal(a.x_flat, b.x_flat)
        assert np.array_equal(a.z, b.z)


class TestHomogeneousPooling:
    def test_sort_then_chunk(self):
        data = IndividualDataset(x=[3.0, 1.0, 2.0, 4.0], y=[30.0, 10.0, 20.0, 40.0])
        pooled = pool_homogeneous(data, 2)
        assert pooled.design is Design.HOMOGENEOUS
        assert pooled.x_flat.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert pooled.z.tolist() == [15.0, 35.0]

    def test_ties_keep_input_order(self):
        data = IndividualDataset(x=[0.0, 0.0, 1.0, 1.0], y=[1.0, 3.0, 5.0, 7.0])
        pooled = pool_homogeneous(data, 2)
        assert pooled.z.tolist() == [2.0, 6.0]

    def test_unit_pools_sorted(self):
        data = IndividualDataset(x=[3.0, 1.0, 2.0], y=[30.0, 10.0, 20.0])
        pooled = pool_homogeneous(data, 1)
        assert pooled.x_flat.tolist() == [1.0, 2.0, 3.0]
        assert pooled.z.tolist() == [10.0, 20.0, 30.0]

    def test_rejects_interleaved_pools(self):
        def pooled(sizes, x_flat):
            return PooledDataset(z=np.zeros(len(sizes)), sizes=sizes, x_flat=x_flat,
                                 design=Design.HOMOGENEOUS)

        for sizes, x_flat in [((2, 2), (0.0, 2.0, 1.0, 3.0)),
                              ((1, 3, 2), (0.0, 1.0, 3.0, 2.0, 2.5, 4.0))]:
            with pytest.raises(ValueError, match="sorted chunks"):
                pooled(sizes, x_flat)
        # ties across a boundary and unsorted members inside a pool are fine
        pooled((2, 1, 3), (1.0, 0.0, 1.0, 3.0, 1.0, 2.0))
        pooled((1,), (5.0,))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    c=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    homogeneous=st.booleans(),
)
def test_pooling_conserves_response_mass(n, c, seed, homogeneous):
    rng = np.random.default_rng(seed)
    data = IndividualDataset(x=rng.normal(size=n), y=rng.normal(size=n) * 10)
    if homogeneous:
        pooled = pool_homogeneous(data, c)
    else:
        pooled = pool_random(data, c, rng)
    total = float(pooled.sizes @ pooled.z)
    assert abs(total - float(data.y.sum())) <= n * 1e-12 * max(1.0, abs(total))
    # all pools are size c except possibly a smaller last one
    assert np.all(pooled.sizes[:-1] == c)
    assert pooled.sizes[-1] == (n % c or c) if n >= c else n
    if homogeneous:
        off = pooled.offsets
        for j in range(pooled.n_pools - 1):
            assert pooled.x_flat[off[j]:off[j + 1]].max() <= \
                pooled.x_flat[off[j + 1]:off[j + 2]].min()


class TestIngest:
    def test_basic(self):
        pooled = ingest_pooled(
            [("a", 1.5), ("b", 3.5)],
            [("a", 1.0), ("a", 2.0), ("b", 3.0), ("b", 4.0)],
        )
        assert pooled.design is Design.EXTERNAL
        assert pooled.n_pools == 2
        assert pooled.n_units == 4
        assert pooled.ids == ("a", "b")
        assert pooled.z.tolist() == [1.5, 3.5]

    def test_order_follows_member_table(self):
        pooled = ingest_pooled(
            [("a", 1.0), ("b", 2.0)],
            [("b", 9.0), ("a", 8.0)],
        )
        assert pooled.ids == ("b", "a")
        assert pooled.z.tolist() == [2.0, 1.0]

    def test_orphan_member(self):
        with pytest.raises(OrphanPool):
            ingest_pooled([("a", 1.0)], [("a", 1.0), ("zz", 2.0)])

    def test_orphan_response(self):
        with pytest.raises(OrphanPool):
            ingest_pooled([("a", 1.0), ("b", 2.0)], [("a", 1.0)])

    def test_duplicate_response_row(self):
        with pytest.raises(UserInputError):
            ingest_pooled([("a", 1.0), ("a", 2.0)], [("a", 1.0)])


class TestCsvRoundTrips:
    def test_individual_round_trip(self, tmp_path):
        x = np.array([0.1, 1.0 / 3.0, -1e-300, 7e200])
        y = np.array([1.0, -2.5, 3e-17, 0.0])
        data = IndividualDataset(x=x, y=y)
        path = tmp_path / "data.csv"
        write_individual_csv(path, data)
        back = read_individual_csv(path)
        assert np.array_equal(back.x, x)
        assert np.array_equal(back.y, y)

    def test_pooled_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        data = IndividualDataset(x=rng.normal(size=23), y=rng.normal(size=23))
        pooled = pool_homogeneous(data, 4)
        write_pooled_csv(tmp_path / "pools.csv", tmp_path / "members.csv", pooled)
        back = read_pooled_csv(tmp_path / "pools.csv", tmp_path / "members.csv")
        assert back.design is Design.EXTERNAL
        assert np.array_equal(back.z, pooled.z)
        assert np.array_equal(back.sizes, pooled.sizes)
        assert np.array_equal(back.x_flat, pooled.x_flat)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1,2\n")
        with pytest.raises(UserInputError):
            read_individual_csv(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,nan\n")
        with pytest.raises(NonFiniteValue):
            read_individual_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(UserInputError):
            read_individual_csv(path)
