"""Observable definitions and deterministic artifact emission."""

import json

import numpy as np
import pytest

from spinsim.backend import expectation, product_state
from spinsim.config import ConstantSchedule
from spinsim.hamiltonian import HeisenbergHamiltonian, PauliTerm
from spinsim.observables import (
    ResultSeries,
    energy_observable,
    excitation_displacement_observable,
    read_csv,
    site_magnetization_observable,
    write_csv,
    write_manifest,
    write_plot,
)


def series_of(points, metadata=None):
    return ResultSeries("time", tuple(points), metadata or {"observable": "test"})


class TestDisplacementObservable:
    def test_excitation_at_first_site_reads_zero(self):
        terms = excitation_displacement_observable(5)
        state = product_state(["down", "up", "up", "up", "up"])
        assert expectation(state, terms) == pytest.approx(0.0)

    def test_excitation_at_last_site_reads_n_minus_one(self):
        terms = excitation_displacement_observable(5)
        state = product_state(["up", "up", "up", "up", "down"])
        assert expectation(state, terms) == pytest.approx(4.0)

    def test_all_up_reads_zero(self):
        terms = excitation_displacement_observable(4)
        state = product_state(["up"] * 4)
        assert expectation(state, terms) == pytest.approx(0.0)

    def test_value_bounded_by_chain_length(self):
        n = 4
        terms = excitation_displacement_observable(n)
        rng = np.random.default_rng(3)
        for _ in range(20):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            from spinsim.backend import Statevector

            value = expectation(Statevector(n, amps), terms)
            assert -1e-9 <= value <= (n - 1) * n / 2 + 1e-9

    def test_single_flip_sector_values_are_site_positions(self):
        n = 3
        terms = excitation_displacement_observable(n)
        for site in range(1, n + 1):
            spins = ["up"] * n
            spins[site - 1] = "down"
            assert expectation(product_state(spins), terms) == pytest.approx(site - 1)


class TestMagnetizationObservable:
    def test_chain_average_weights(self):
        terms = site_magnetization_observable(4, "z")
        assert [t.coefficient for t in terms] == [0.25] * 4
        assert [t.factors for t in terms] == [((i, "z"),) for i in range(1, 5)]

    def test_all_up_z_value(self):
        terms = site_magnetization_observable(3, "z")
        assert expectation(product_state(["up"] * 3), terms) == pytest.approx(1.0)

    def test_one_flip_value(self):
        terms = site_magnetization_observable(3, "z")
        state = product_state(["down", "up", "up"])
        assert expectation(state, terms) == pytest.approx(1.0 / 3.0)

    def test_axis_validated(self):
        with pytest.raises(ValueError):
            site_magnetization_observable(2, "q")


class TestEnergyObservable:
    def test_equals_snapshot(self):
        bonds = {("z", 1): ConstantSchedule(1.0)}
        fields = {("x", 1): ConstantSchedule(0.5), ("x", 2): ConstantSchedule(0.5)}
        hamiltonian = HeisenbergHamiltonian(2, bonds, fields)
        terms = energy_observable(hamiltonian, 0.0)
        assert [(t.coefficient, t.factors) for t in terms] == [
            (1.0, ((1, "z"), (2, "z"))),
            (0.5, ((1, "x"),)),
            (0.5, ((2, "x"),)),
        ]


class TestResultSeries:
    def test_axis_must_increase(self):
        with pytest.raises(ValueError):
            series_of([(0.0, 1.0, None), (0.0, 2.0, None)])
        with pytest.raises(ValueError):
            series_of([(1.0, 1.0, None), (0.5, 2.0, None)])


class TestCsv:
    def test_layout(self, tmp_path):
        series = series_of([(0.0, 1.0, None), (0.1, 0.5, 0.01), (0.2, -0.25, None)])
        path = tmp_path / "results.csv"
        write_csv(series, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "axis,observable,sigma"
        assert len(lines) == 4
        assert lines[1] == "0,1,"
        assert lines[2] == "0.10000000000000001,0.5,0.01"

    def test_empty_series_is_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(series_of([]), path)
        assert path.read_text() == "axis,observable,sigma\n"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(100):
            count = int(rng.integers(0, 8))
            axis = np.sort(rng.normal(size=count))
            while len(np.unique(axis)) != count:
                axis = np.sort(rng.normal(size=count))
            points = tuple(
                (
                    float(a),
                    float(rng.normal()),
                    float(rng.uniform(0, 0.1)) if rng.integers(2) else None,
                )
                for a in axis
            )
            path = tmp_path / f"series_{trial}.csv"
            write_csv(series_of(points), path)
            assert read_csv(path) == points

    def test_extra_columns_written_and_ignored_on_read(self, tmp_path):
        series = series_of([(0.0, 1.0, None), (1.0, 0.5, None)])
        path = tmp_path / "results.csv"
        write_csv(series, path, extra_columns={"ground_truth": [0.9, 0.55]})
        lines = path.read_text().splitlines()
        assert lines[0] == "axis,observable,sigma,ground_truth"
        assert lines[1].endswith(",0.90000000000000002")
        assert read_csv(path) == series.points

    def test_extra_column_length_checked(self, tmp_path):
        series = series_of([(0.0, 1.0, None)])
        with pytest.raises(ValueError):
            write_csv(series, tmp_path / "x.csv", extra_columns={"ref": [1.0, 2.0]})

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_byte_identical_for_identical_series(self, tmp_path):
        series = series_of([(0.0, 1.0, 0.25), (0.5, np.pi, None)])
        write_csv(series, tmp_path / "a.csv")
        write_csv(series, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPlot:
    def test_is_wellformed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        series = series_of([(0.0, 1.0, None), (0.5, -0.5, 0.1), (1.0, 0.25, None)])
        path = tmp_path / "plot.svg"
        write_plot(series, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_byte_identical_across_calls(self, tmp_path):
        series = series_of(
            [(0.0, 0.3, 0.02), (0.1, 0.1, 0.02), (0.2, -0.2, None)],
            {"observable": "energy", "mode": "real-time"},
        )
        write_plot(series, tmp_path / "a.svg")
        write_plot(series, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_no_timestamps_or_paths_leak(self, tmp_path):
        series = series_of([(0.0, 1.0, None), (1.0, 2.0, None)])
        path = tmp_path / "plot.svg"
        write_plot(series, path)
        text = path.read_text()
        assert "tmp" not in text
        assert "202" not in text

    def test_single_point_series_renders(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_plot(series_of([(0.0, 1.0, None)]), path)
        assert path.read_text().startswith("<?xml")

    def test_empty_series_renders(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_plot(series_of([]), path)
        assert path.read_text().startswith("<?xml")

    def test_values_one_ulp_apart_render(self, tmp_path):
        # the tick step falls below the spacing of floats near 0.5; the
        # tick loop once stopped advancing and grew without bound
        path = tmp_path / "plot.svg"
        write_plot(series_of([(0.0, 0.5, None), (1.0, np.nextafter(0.5, 1.0), None)]), path)
        assert path.read_text().startswith("<?xml")


class TestManifest:
    def test_content_and_key_order(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(
            path,
            config_text="num_spins: 2\n",
            seed=7,
            shots=100,
            mode="real-time",
            observable="energy",
            output_files=["results.csv", "plot.svg"],
            version="1.0",
        )
        data = json.loads(path.read_text())
        assert data["seed"] == 7
        assert data["shots"] == 100
        assert data["output_files"] == ["plot.svg", "results.csv"]
        assert len(data["config_sha256"]) == 64
        assert list(data) == sorted(data)

    def test_byte_identical_across_calls(self, tmp_path):
        kwargs = dict(
            config_text="num_spins: 2\n",
            seed=None,
            shots=0,
            mode="imaginary-time",
            observable="energy",
            output_files=["results.csv"],
            version="1.0",
        )
        write_manifest(tmp_path / "a.json", **kwargs)
        write_manifest(tmp_path / "b.json", **kwargs)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
