import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opemu import (
    ToyWaveParams,
    ingest_runs,
    lhd,
    toy_simulate,
    toy_training_set,
    write_training_csv,
)
from opemu.errors import DataError


class TestToySimulator:
    def test_starts_at_zero(self):
        for r in ([0, 1, 2], [-3, 2, 0.5], [1, 1.5, 3]):
            assert toy_simulate(r, [0.0])[0] == 0.0

    def test_linear_in_speed(self):
        t = np.linspace(0.0, 10.0, 40)
        a = toy_simulate([-1.0, 1.0, 2.0], t)
        b = toy_simulate([-1.0, 2.0, 2.0], t)
        assert np.abs(b - 2 * a).max() < 1e-15

    def test_closed_form_value(self):
        # (x0,u0,c) = (0,1,2): period 3.0 + 0.8*2 = 4.6, first sine peak
        # at t = 4.6/4 = 1.15; amplitude factor is exactly 1
        t = 4.6 / 4
        expected = (1 - math.exp(-t)) * math.exp(-0.05 * t) * math.sin(math.pi / 2)
        value = toy_simulate([0.0, 1.0, 2.0], [t])[0]
        assert abs(value - expected) < 1e-15

    def test_deterministic_bitwise(self):
        t = np.linspace(0.0, 35.0, 176)
        a = toy_simulate([-1.2, 1.7, 2.3], t)
        b = toy_simulate([-1.2, 1.7, 2.3], t)
        assert np.array_equal(a, b)

    def test_extra_dimensions_ignored(self):
        t = np.linspace(0.0, 10.0, 20)
        a = toy_simulate([-1.0, 1.5, 2.0], t)
        b = toy_simulate([-1.0, 1.5, 2.0, 0.77], t)
        assert np.array_equal(a, b)

    @given(
        x0=st.floats(-3.0, 1.0),
        u0=st.floats(1.0, 2.0),
        c=st.floats(0.5, 3.0),
        t=st.floats(0.0, 50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_amplitude(self, x0, u0, c, t):
        amp = u0 * (1 + 0.3 * max(-x0, 0.0) / 2)
        assert abs(toy_simulate([x0, u0, c], [t])[0]) <= amp + 1e-12

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            toy_simulate([0, 1, 2], [-0.1])

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ToyWaveParams(damping=0.0)


class TestTrainingCsv:
    def test_round_trip(self, wave_space, tmp_path):
        design = lhd(5, wave_space, 3)
        grid = np.round(0.2 * np.arange(11), 12)
        train = toy_training_set(design, grid)
        path = tmp_path / "training.csv"
        write_training_csv(train, str(path), meta={"seed": 3})
        loaded = ingest_runs(str(path), wave_space)
        assert loaded.n == 5
        assert loaded.q == 11
        assert np.array_equal(loaded.time_grid, grid)
        assert np.array_equal(loaded.outputs, train.outputs)
        assert np.array_equal(loaded.design.points, design.points)

    def test_paper_scale_dimensions(self, wave_space, tmp_path):
        design = lhd(40, wave_space, 1)
        grid = np.round(0.2 * np.arange(176), 12)
        train = toy_training_set(design, grid)
        path = tmp_path / "training.csv"
        write_training_csv(train, str(path))
        loaded = ingest_runs(str(path), wave_space)
        assert loaded.n == 40
        assert loaded.q == 176

    def test_nan_error_names_location(self, wave_space, tmp_path):
        design = lhd(5, wave_space, 3)
        train_lines = ["x0,u0,c,t=0.8,t=1.2"]
        for i, p in enumerate(design.points):
            row = [repr(float(v)) for v in p] + ["1.0", "nan" if i == 3 else "1.0"]
            train_lines.append(",".join(row))
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(train_lines) + "\n")
        with pytest.raises(DataError, match=r"row 3, column t=1.2"):
            ingest_runs(str(path), wave_space)

    def test_non_finite_input_names_location(self, wave_space, tmp_path):
        design = lhd(5, wave_space, 3)
        train_lines = ["x0,u0,c,t=0.8,t=1.2"]
        for i, p in enumerate(design.points):
            row = [repr(float(v)) for v in p] + ["1.0", "1.0"]
            if i == 2:
                row[1] = "nan"
            train_lines.append(",".join(row))
        path = tmp_path / "nan_input.csv"
        path.write_text("\n".join(train_lines) + "\n")
        with pytest.raises(DataError, match=r"row 2, column u0"):
            ingest_runs(str(path), wave_space)

    def test_empty_data_section(self, wave_space, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x0,u0,c,t=0.0\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_runs(str(path), wave_space)

    def test_ragged_row(self, wave_space, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x0,u0,c,t=0.0,t=0.2\n-1.0,1.5,2.0,0.1\n")
        with pytest.raises(DataError, match="row 0"):
            ingest_runs(str(path), wave_space)

    def test_bad_header(self, wave_space, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c,t=0.0\n1,1,1,1\n")
        with pytest.raises(DataError, match="header"):
            ingest_runs(str(path), wave_space)

    def test_non_time_column(self, wave_space, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("x0,u0,c,zeta\n-1,1.5,2,0.1\n")
        with pytest.raises(DataError, match="not a time"):
            ingest_runs(str(path), wave_space)
