import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opemu import DesignSpace, design, lhd, maximin_lhd
from opemu.config import RunConfig
from opemu.design import (_swap_refine, candidate_seed, load_design_csv, pairwise_distances,
                          save_design_csv)
from opemu.errors import DataError
from make_maximin_digests import check as check_digests
from reference import full_swap_refine

EXPECTED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "expected.json")


def unit_space(k=1):
    return DesignSpace(bounds=[(0.0, 1.0)] * k)


class TestDesignSpace:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="u0"):
            DesignSpace(bounds=[(-3, 1), (2, 1), (0.5, 3)], names=("x0", "u0", "c"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DesignSpace(bounds=[])

    @pytest.mark.parametrize("bad", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ValueError, match="u0"):
            DesignSpace(bounds=[(-3, 1), bad, (0.5, 3)], names=("x0", "u0", "c"))

    def test_cached_arrays_are_read_only(self, wave_space):
        assert wave_space.lower is wave_space.lower
        assert np.array_equal(wave_space.widths, [4.0, 1.0, 2.5])
        for arr in (wave_space.lower, wave_space.upper, wave_space.widths):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the cache does not enter equality
        assert wave_space == DesignSpace(bounds=wave_space.bounds, names=wave_space.names)

    def test_unit_round_trip(self, wave_space):
        rng = np.random.default_rng(0)
        unit = rng.random((50, 3))
        back = wave_space.to_unit(wave_space.from_unit(unit))
        assert np.abs(back - unit).max() < 1e-12


class TestLhd:
    def test_two_point_stratification(self):
        # two strata force one point in each half of the unit interval
        for seed in range(5):
            d = lhd(2, unit_space(), seed)
            lo, hi = sorted(d.unit_points[:, 0])
            assert 0.0 <= lo < 0.5 <= hi < 1.0

    def test_forty_points_three_dims(self, wave_space):
        d = lhd(40, wave_space, 7)
        assert d.points.shape == (40, 3)
        for j in range(3):
            strata = np.floor(np.sort(d.unit_points[:, j]) * 40).astype(int)
            assert np.array_equal(strata, np.arange(40))

    def test_deterministic_under_seed(self):
        space = DesignSpace(bounds=[(0, 1), (0, 1)])
        a = lhd(5, space, 123)
        b = lhd(5, space, 123)
        assert np.array_equal(a.points, b.points)

    def test_rejects_small_n(self, wave_space):
        with pytest.raises(ValueError):
            lhd(1, wave_space, 0)

    @given(n=st.integers(2, 40), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stratification_property(self, n, k, seed):
        d = lhd(n, unit_space(k), seed)
        for j in range(k):
            strata = np.floor(np.sort(d.unit_points[:, j]) * n).astype(int)
            assert np.array_equal(strata, np.arange(n))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scaling_round_trip(self, seed):
        space = DesignSpace(bounds=[(-3, 1), (1, 2), (0.5, 3)])
        d = lhd(10, space, seed)
        assert np.abs(space.to_unit(d.points) - d.unit_points).max() < 1e-12
        assert all(space.contains(p) for p in d.points)


class TestMaximin:
    def test_beats_single_lhd(self, wave_space):
        # direct comparison oracle: the plain LHD from the same seed
        base = lhd(40, wave_space, 3).min_distance(unit=True)
        refined = maximin_lhd(40, wave_space, 3, candidates=100)
        assert refined.min_distance(unit=True) >= base

    def test_dominates_candidate_pool(self, wave_space):
        from opemu.design import candidate_seed

        refined = maximin_lhd(12, wave_space, 5, candidates=20)
        pool_best = max(
            lhd(12, wave_space, candidate_seed(5, j)).min_distance(unit=True)
            for j in range(20)
        )
        assert refined.min_distance(unit=True) >= pool_best

    def test_two_points_one_dim(self):
        d = maximin_lhd(2, unit_space(), 11, candidates=50)
        assert d.min_distance(unit=True) >= 0.5

    def test_single_candidate_is_plain_lhd(self, wave_space):
        a = maximin_lhd(10, wave_space, 9, candidates=1)
        b = lhd(10, wave_space, 9)
        assert np.array_equal(a.points, b.points)

    def test_still_a_latin_hypercube(self, wave_space):
        d = maximin_lhd(15, wave_space, 2, candidates=30)
        for j in range(3):
            strata = np.floor(np.sort(d.unit_points[:, j]) * 15).astype(int)
            assert np.array_equal(strata, np.arange(15))


def pool_start(n, space, seed, candidates):
    """The best candidate LHD, as maximin_lhd picks it before refinement."""
    best, best_d = None, -np.inf
    for idx in range(candidates):
        cand = lhd(n, space, candidate_seed(seed, idx))
        d = cand.min_distance(unit=True)
        if d > best_d:
            best, best_d = cand.unit_points, d
    return best


class TestSwapRefineOracle:
    """The pruned refinement against the unpruned scan, bit for bit."""

    @pytest.mark.parametrize("n,candidates", [(12, 10), (20, 30)])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_pool_starts(self, n, candidates, k):
        # k >= 8 is where numpy's summation order over a row has differed
        for seed in range(10):
            start = pool_start(n, unit_space(k), seed, candidates)
            assert np.array_equal(_swap_refine(start), full_swap_refine(start)), seed

    def test_forty_point_pool_start(self):
        # one seed: the unpruned scan takes ~0.6 s at n=40
        start = pool_start(40, unit_space(3), 0, 100)
        assert np.array_equal(_swap_refine(start), full_swap_refine(start))

    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("k", [1, 3])
    def test_centred_lhds_with_tied_pairs(self, n, k):
        # midpoint strata put many pairs at the same minimum distance
        for seed in range(10):
            rng = np.random.default_rng(seed)
            start = np.column_stack([(rng.permutation(n) + 0.5) / n for _ in range(k)])
            assert np.array_equal(_swap_refine(start), full_swap_refine(start)), seed

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_blocks_of_one_and_two_swaps(self, monkeypatch, block, k):
        # a block of 1 or 2 swaps ends inside one (column, i), whose
        # partners are every later row when i is in all closest pairs, and
        # across columns; each start must still give the unpruned design
        n = 12
        monkeypatch.setattr(design, "_BLOCK_BYTES", block * 16 * n * k)
        for seed in range(10):
            start = pool_start(n, unit_space(k), seed, 10)
            assert np.array_equal(_swap_refine(start), full_swap_refine(start)), seed
        for seed in range(5):
            rng = np.random.default_rng(seed)
            start = np.column_stack([(rng.permutation(9) + 0.5) / 9 for _ in range(k)])
            assert np.array_equal(_swap_refine(start), full_swap_refine(start)), seed


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 16])
def test_min_distance_matches_pairwise_distances(k):
    # one sqrt of the smallest squared distance, bit for bit the smallest
    # norm; k >= 8 is where the sum over a row is no longer sequential
    space = DesignSpace(bounds=[(-3.0, 1.0 + j) for j in range(k)])
    for seed in range(20):
        d = lhd(17, space, seed)
        for unit in (True, False):
            dist = pairwise_distances(d.unit_points if unit else d.points)
            assert d.min_distance(unit) == dist[np.triu_indices(d.n, 1)].min(), (seed, unit)
    rng = np.random.default_rng(k)
    tied = np.floor(rng.random((30, k)) * 3) / 3  # many pairs at one distance
    tied[-1] = tied[0]  # and a repeated row: distance 0
    d = design._from_unit(tied, unit_space(k))
    assert d.min_distance() == pairwise_distances(tied)[np.triu_indices(30, 1)].min() == 0.0


def test_designs_match_recorded_digests():
    # the small designs of tests/data/maximin_digests.json; the script's
    # --check mode covers the whole grid
    checked, bad = check_digests(lambda case: case["n"] <= 20
                                 and (case["candidates"] < 100 or case["n"] <= 5))
    assert checked == 390 and bad == []


def test_default_design_keeps_recorded_min_distance():
    # the benchmark gates this value exactly; a refinement that accepts a
    # different swap sequence changes it
    with open(EXPECTED, encoding="utf-8") as fh:
        recorded = json.load(fh)["reference"]["min_distance"]
    cfg = RunConfig()
    d = cfg.raw["design"]
    design = maximin_lhd(d["n"], cfg.space(), d["seed"], d["candidates"])
    assert design.min_distance(unit=True) == recorded


class TestDesignCsv:
    def test_round_trip(self, wave_space, tmp_path):
        d = maximin_lhd(8, wave_space, 4, candidates=10)
        path = tmp_path / "design.csv"
        save_design_csv(d, str(path), meta={"seed": 4})
        loaded = load_design_csv(str(path), wave_space)
        assert np.array_equal(loaded.points, d.points)
        assert np.abs(loaded.unit_points - d.unit_points).max() < 1e-12

    def test_header_mismatch(self, wave_space, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1.5,1\n")
        with pytest.raises(DataError, match="header"):
            load_design_csv(str(path), wave_space)

    def test_out_of_bounds_point(self, wave_space, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("x0,u0,c\n5.0,1.5,1.0\n")
        with pytest.raises(DataError, match="outside"):
            load_design_csv(str(path), wave_space)
