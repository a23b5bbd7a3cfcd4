"""Command-line interface smoke tests and exit-code contract."""
from __future__ import annotations

import csv
import json
import re
import struct
import time
from dataclasses import replace

import pytest
from click.testing import CliRunner

from qtrellis import code as code_mod
from qtrellis.cli import main
from qtrellis.decode import MODES
from qtrellis.trellis import build, deserialize, serialize

from conftest import with_edge_entry


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


def test_decoder_choices_are_the_modes():
    (option,) = [opt for opt in main.commands["simulate"].params if opt.name == "decoder"]
    assert list(option.type.choices) == list(MODES)


def test_build_reports_its_build_and_serialize_seconds(runner, tmp_path):
    result = runner.invoke(main, ["build", "--code", "five_one_three", "--out", str(tmp_path / "t")])
    assert result.exit_code == 0
    (line,) = result.output.splitlines()
    assert re.fullmatch(r"wrote \d+ bytes: \|V\| = 42, \|E\| = 104; build \d+\.\d{3} s, serialize \d+\.\d{3} s", line)


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
    result = runner.invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 2
    assert "at least three distances" in result.output


def test_simulate_css_dephasing_on_a_p5_code_file(runner, tmp_path):
    """A p = 5 CSS code under Z dephasing at 0.2: its unexcited axis's marginal rounds past 1, and is clamped."""
    code = tmp_path / "p5.qcode"
    code.write_text("5 4 2\nSYMPLECTIC\n1,1,1,1,0,0,0,0\n0,0,0,0,1,1,1,2\n")
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", str(code), "--decoder", "css", "--channel", "dephasing-z",
            "--p-min", "0.2", "--p-max", "0.2", "--p-step", "0.1", "--samples", "200", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    (row,) = csv.DictReader(out.open())
    assert (row["distance"], row["decoder"], row["channel"], row["samples"]) == ("", "css", "dephasing_z", "200")


def test_simulate_accepts_every_channel_kind(runner, tmp_path):
    """The choices are the channel kinds ChannelSpec accepts, dephasing-x included."""
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "steane", "--channel", "dephasing-x", "--p-min", "0.1",
            "--p-max", "0.1", "--p-step", "0.1", "--samples", "200", "--decoder", "css",
            "--out", str(out),
        ],
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(out.open()))
    assert [row["channel"] for row in rows] == ["dephasing_x"]


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


def test_simulate_refuses_an_absurd_grid_before_building(runner, tmp_path):
    """A grid of 4.9e15 points is a resource cap (exit 3), not a failed allocation."""
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "simulate", "--code", "steane", "--channel", "depolarizing",
            "--p-min", "0.01", "--p-max", "0.5", "--p-step", "1e-16",
            "--samples", "100", "--out", str(out),
        ],
    )
    assert result.exit_code == 3
    assert "more than 10000 points" in result.output
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
    assert "missing results column(s) code, distance" in result.output


@pytest.mark.parametrize("row", ["3,0.1,10", "3,0.1,10,abc,0.1,0.1,0.0,0.2"])
def test_fit_rejects_a_malformed_results_row(runner, tmp_path, row):
    """A short row or a non-numeric field is a format error that names its line."""
    path = tmp_path / "bad.csv"
    header = "distance,p_phys,samples,failures,rate_cond,rate_uncond,ci_lo,ci_hi,code,decoder,channel"
    path.write_text(f"{header}\n3,0.1,10,1,0.1,0.1,0.0,0.4,c,css,dephasing_z\n{row}\n")
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 4
    assert "line 3" in result.output


_ANSATZ_HEADER = [
    "distance", "p_phys", "samples", "failures", "rate_cond", "rate_uncond", "ci_lo", "ci_hi",
    "code", "decoder", "channel",
]


def _ansatz_csv(path, p_th):
    """Results whose rate_uncond follows the scaling ansatz (nu = 1.5) at d = 3, 5, 7.

    rate_cond is rate_uncond over the probability of a nontrivial error on
    the d x d surface code, as ``simulate`` writes it.
    """
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_ANSATZ_HEADER)
        for d in (3, 5, 7):
            for i in range(9):
                p = 0.085 + 0.00375 * i
                x = (p - p_th) * d ** (1 / 1.5)
                uncond = 0.30 + 1.8 * x + 4.0 * x * x
                cond = uncond / (1.0 - (1.0 - p) ** (d * d))
                writer.writerow(
                    [d, p, 100000, int(cond * 100000), cond, uncond, cond - 0.003, cond + 0.003,
                     f"rotated_surface_{d}", "css", "dephasing_z"]
                )


def test_fit_reads_the_unconditional_rate(runner, tmp_path):
    path = tmp_path / "results.csv"
    _ansatz_csv(path, 0.10)
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["p_th"] - 0.10) <= 1e-3
    assert doc["distances"] == [3, 5, 7]


def test_fit_refuses_a_threshold_on_the_edge_of_the_grid(runner, tmp_path):
    path = tmp_path / "results.csv"
    _ansatz_csv(path, 0.13)
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 2
    assert "p_th = 0.115 sits on the upper edge" in result.output


@pytest.mark.parametrize("column, label", [("channel", "depolarizing"), ("decoder", "full"), ("code", "other")])
def test_fit_refuses_a_csv_that_mixes_studies(runner, tmp_path, column, label):
    """A copy of every row relabelled, with rate_uncond doubled, is a second study."""
    path = tmp_path / "results.csv"
    _ansatz_csv(path, 0.10)
    rows = list(csv.DictReader(path.open()))
    with path.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_ANSATZ_HEADER)
        for row in rows:
            writer.writerow({**row, column: label, "rate_uncond": 2 * float(row["rate_uncond"])})
    result = runner.invoke(main, ["fit", "--in", str(path)])
    assert result.exit_code == 2
    assert "mixes" in result.output


def test_exit_code_validation_error(runner):
    result = runner.invoke(main, ["profile", "--code", "color_666", "--distance", "4"])
    assert result.exit_code == 2


def test_distance_with_a_code_that_takes_none_exits_2(runner, tmp_path):
    """A fixed built-in or a code file takes no distance: exit 2 rather than ignore it."""
    path = tmp_path / "steane.qcode"
    path.write_text(code_mod.write_code_file(code_mod.builtin("steane")))
    for name, message in (("steane", "steane takes no distance"), (str(path), "--distance applies only")):
        result = runner.invoke(main, ["profile", "--code", name, "--distance", "5"])
        assert result.exit_code == 2
        assert message in result.output


def test_absurd_family_distance_exits_2_before_construction(runner):
    """A family distance over the qubit cap is refused from its formula, not by building it."""
    for name in ("rotated_surface", "color_666", "color_488"):
        start = time.perf_counter()
        result = runner.invoke(main, ["profile", "--code", name, "--distance", "1000001"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"over {code_mod.MAX_BUILTIN_QUBITS}" in result.output


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


def test_census_of_a_trellis_that_fails_validation_exits_4(runner, tmp_path):
    """One in-range source of section 5 rewritten: the file loads, census refuses it."""
    t = build(code_mod.builtin("steane"))
    out = tmp_path / "steane.trellis"
    out.write_bytes(with_edge_entry(t, 4, "source", 0, int(t.sections[4].source[0]) ^ 1))
    result = runner.invoke(main, ["census", "--trellis", str(out)])
    assert result.exit_code == 4
    assert "section 5:" in result.output and "identity" not in result.output


def test_decode_of_a_trellis_that_fails_validation_exits_4(runner, tmp_path):
    """The census test's file, re-checksummed after the rewrite: decode validates what it loads."""
    t = build(code_mod.builtin("steane"))
    out = tmp_path / "steane.trellis"
    out.write_bytes(with_edge_entry(t, 4, "source", 0, int(t.sections[4].source[0]) ^ 1))
    result = runner.invoke(
        main,
        [
            "decode", "--trellis", str(out), "--code", "steane",
            "--syndrome", "0,0,1,0,0,0", "--channel", "depolarizing:0.1",
        ],
    )
    assert result.exit_code == 4
    assert "section 5:" in result.output and "correction" not in result.output


def test_exit_code_trellis_profile_mismatch(runner, tmp_path):
    """A stored profile whose dim_past steps down is a format error."""

    def corrupt(t):
        past = list(t.profile.dim_past)
        past[3] += 1
        return replace(t, profile=replace(t.profile, dim_past=tuple(past)))

    result = _decode_corrupted(runner, tmp_path, corrupt)
    assert result.exit_code == 4
    assert "dim_past" in result.output


def test_v1_trellis_file_exits_4_with_a_rebuild_hint(runner, tmp_path):
    """Format v1 is no longer read: census and decode of a v1 file are format errors."""
    out = tmp_path / "steane_v1.trellis"
    # the v1 header of a Steane normalizer trellis: (version, labels flag, p, n, m, dim)
    out.write_bytes(b"QTRLS" + struct.pack("<HBHIIH", 1, 1, 2, 7, 6, 8))
    for args in (
        ["census", "--trellis", str(out)],
        [
            "decode", "--trellis", str(out), "--code", "steane",
            "--syndrome", "0,0,1,0,0,0", "--channel", "depolarizing:0.1",
        ],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert "version 1" in result.output and "qtrellis build" in result.output
