"""Command-line interface smoke tests and exit-code contract."""
from __future__ import annotations

import csv
import json
from dataclasses import replace

import pytest
from click.testing import CliRunner

from qtrellis.cli import main
from qtrellis.trellis import deserialize, serialize


@pytest.fixture()
def runner():
    return CliRunner()


def test_profile_text(runner):
    result = runner.invoke(main, ["profile", "--code", "five_one_three"])
    assert result.exit_code == 0
    assert "total vertices: 42" in result.output
    assert "total edges: 104" in result.output


def test_profile_csv_split(runner):
    result = runner.invoke(
        main,
        ["profile", "--code", "rotated_surface", "--distance", "3", "--split", "x", "--format", "csv"],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(result.output.splitlines()[:11]))
    assert len(rows) == 10
    assert sum(int(r["vertices"]) for r in rows) == 22


def test_build_census_decode_round_trip(runner, tmp_path):
    out = tmp_path / "steane.trellis"
    result = runner.invoke(main, ["build", "--code", "steane", "--out", str(out)])
    assert result.exit_code == 0
    assert out.exists()

    result = runner.invoke(main, ["census", "--trellis", str(out)])
    assert result.exit_code == 0
    assert "identity |E| - |V| + 1: ok" in result.output

    result = runner.invoke(
        main,
        [
            "decode", "--trellis", str(out), "--code", "steane",
            "--syndrome", "0,0,1,0,0,0", "--channel", "depolarizing:0.1",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert set(doc) == {"correction", "weight", "classification"}
    assert doc["classification"] == "success"


def test_simulate_then_fit(runner, tmp_path):
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "rotated_surface", "--distance", "3",
            "--channel", "dephasing-z", "--p-min", "0.08", "--p-max", "0.12",
            "--p-step", "0.02", "--samples", "5000", "--seed", "4",
            "--decoder", "css", "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert rows[0]["code"].startswith("rotated_surface")
    assert rows[0]["distance"] == "3"
    assert list(rows[0]) == [
        "code", "distance", "decoder", "channel", "p_phys", "samples",
        "failures", "rate_cond", "rate_uncond", "ci_lo", "ci_hi", "seed",
    ]
    # a single-distance file cannot support a threshold fit
    result = runner.invoke(main, ["fit", "--in", str(out), "--dmin", "3"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "p_min, p_max, p_step",
    [("0.05", "0.1", "0"), ("0.05", "0.1", "-0.01"), ("0.1", "0.05", "0.01")],
)
def test_simulate_rejects_an_empty_grid(runner, tmp_path, p_min, p_max, p_step):
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "steane", "--channel", "depolarizing",
            f"--p-min={p_min}", f"--p-max={p_max}", f"--p-step={p_step}",
            "--samples", "100", "--out", str(out),
        ],
    )
    assert result.exit_code == 2
    assert "error: --p-" in result.output
    assert not out.exists()


@pytest.mark.parametrize("build_args", [["--split", "x"], ["--order", "ORDER"]])
def test_decode_rejects_a_trellis_of_another_group(runner, tmp_path, build_args):
    """Decoding Steane on its X-check part or on a renumbered trellis is a format error."""
    order = tmp_path / "order.txt"
    order.write_text("7 6 5 4 3 2 1\n")
    out = tmp_path / "other.trellis"
    args = [str(order) if a == "ORDER" else a for a in build_args]
    assert runner.invoke(main, ["build", "--code", "steane", "--out", str(out), *args]).exit_code == 0
    result = runner.invoke(
        main,
        [
            "decode", "--trellis", str(out), "--code", "steane",
            "--syndrome", "0,0,1,0,0,0", "--channel", "depolarizing:0.1",
        ],
    )
    assert result.exit_code == 4
    assert "error: trellis 'full'" in result.output


def test_fit_rejects_a_csv_without_results_columns(runner, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("p_phys,failures\n0.1,3\n")
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 4
    assert "missing results column(s) distance" in result.output


@pytest.mark.parametrize("row", ["3,0.1,10", "3,0.1,10,abc,0.1,0.1,0.0,0.2"])
def test_fit_rejects_a_malformed_results_row(runner, tmp_path, row):
    """A short row or a non-numeric field is a format error that names its line."""
    path = tmp_path / "bad.csv"
    header = "distance,p_phys,samples,failures,rate_cond,rate_uncond,ci_lo,ci_hi"
    path.write_text(f"{header}\n3,0.1,10,1,0.1,0.1,0.0,0.4\n{row}\n")
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 4
    assert "line 3" in result.output


def test_exit_code_validation_error(runner):
    result = runner.invoke(main, ["profile", "--code", "color_666", "--distance", "4"])
    assert result.exit_code == 2


def test_exit_code_capacity(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "build", "--code", "rotated_surface", "--distance", "5",
            "--out", str(tmp_path / "t.bin"), "--max-edges", "10",
        ],
    )
    assert result.exit_code == 3


def test_exit_code_io_error(runner):
    result = runner.invoke(main, ["census", "--trellis", "/nonexistent/file.bin"])
    assert result.exit_code == 4
    result = runner.invoke(main, ["profile", "--code", "/nonexistent/code.txt"])
    assert result.exit_code == 4


def _decode_corrupted(runner, tmp_path, corrupt):
    """Build the Steane trellis, store ``corrupt`` of it and decode from the file."""
    out = tmp_path / "steane.trellis"
    assert runner.invoke(main, ["build", "--code", "steane", "--out", str(out)]).exit_code == 0
    out.write_bytes(serialize(corrupt(deserialize(out.read_bytes()))))
    return runner.invoke(
        main,
        [
            "decode", "--trellis", str(out), "--code", "steane",
            "--syndrome", "0,0,1,0,0,0", "--channel", "depolarizing:0.1",
        ],
    )


def test_exit_code_corrupted_trellis(runner, tmp_path):
    """A stored trellis with a source index outside its layer is a format error."""

    def corrupt(t):
        source = t.sections[3].source.copy()
        source[0] = 10**6
        sections = list(t.sections)
        sections[3] = replace(sections[3], source=source)
        return replace(t, sections=tuple(sections))

    result = _decode_corrupted(runner, tmp_path, corrupt)
    assert result.exit_code == 4
    assert "source index" in result.output


def test_exit_code_trellis_profile_mismatch(runner, tmp_path):
    """A stored profile whose dim_past steps down is a format error."""

    def corrupt(t):
        past = list(t.profile.dim_past)
        past[3] += 1
        return replace(t, profile=replace(t.profile, dim_past=tuple(past)))

    result = _decode_corrupted(runner, tmp_path, corrupt)
    assert result.exit_code == 4
    assert "dim_past" in result.output


def test_exit_code_label_map_not_a_prefix_mask(runner, tmp_path):
    """A v1 file whose first stored depth map is not the empty prefix of the last is a format error."""
    out = tmp_path / "steane.trellis"
    assert runner.invoke(main, ["build", "--code", "steane", "--out", str(out)]).exit_code == 0
    blob = out.read_bytes()
    t = deserialize(blob)
    size = 2 * t.label_matrix.size  # int16 entries per stored map
    start = len(blob) - (t.n + 1) * size
    out.write_bytes(blob[:start] + blob[-size:] + blob[start + size :])
    result = runner.invoke(main, ["census", "--trellis", str(out)])
    assert result.exit_code == 4
    assert "label map 0" in result.output
