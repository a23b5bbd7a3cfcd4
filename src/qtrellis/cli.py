"""Command-line front end: profile, build, census, decode, simulate, fit.

Exit codes: 0 success, 2 validation error (including an empty ``simulate``
grid), 3 resource cap exceeded, 4 I/O or format error (including a trellis
of a group other than the code's, and a ``fit`` input without the results
columns or with a malformed row).
"""
from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np

from . import code as code_mod
from . import sim as sim_mod
from . import trellis as trellis_mod
from .code import CodeError
from .decode import decode as decode_syndrome
from .decode import weights_from_channel
from .pauli import format_pauli
from .decode import DecodeError
from .sim import SimError
from .trellis import CapacityError, TrellisError

# the columns of a results CSV that ``fit`` reads
_FIT_COLUMNS = ("distance", "p_phys", "samples", "failures", "rate_cond", "rate_uncond", "ci_lo", "ci_hi")


def _fail(exit_code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(exit_code)


def _guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapacityError as exc:
            _fail(3, str(exc))
        except (TrellisError, OSError, json.JSONDecodeError) as exc:
            _fail(4, str(exc))
        except (CodeError, DecodeError, SimError, ValueError) as exc:
            _fail(2, str(exc))

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


def _load_code(name: str, distance: int | None, order_file: str | None):
    if name in code_mod.BUILTIN_NAMES:
        c = code_mod.builtin(name, distance)
    else:
        with open(name, encoding="utf-8") as handle:
            c = code_mod.parse_code_file(handle.read())
    if order_file is not None:
        with open(order_file, encoding="utf-8") as handle:
            order = [int(tok) for tok in handle.read().replace(",", " ").split()]
        c = code_mod.permute(c, order)
    return c


def _parse_channel(text: str) -> sim_mod.ChannelSpec:
    kind, _, rate = text.partition(":")
    kind = kind.replace("-", "_")
    if not rate:
        raise SimError(f"channel spec {text!r} needs the form kind:rate")
    return sim_mod.ChannelSpec(kind, float(rate))


def _build_source(c, split: str):
    if split == "full":
        return c
    x_part, z_part = code_mod.css_split(c)
    return x_part if split == "x" else z_part


@click.group()
def main():
    """Trellis decoding toolkit for qudit stabilizer codes."""


@main.command(name="profile")
@click.option("--code", "code_name", required=True)
@click.option("--distance", type=int, default=None)
@click.option("--split", type=click.Choice(["full", "x", "z"]), default="full")
@click.option("--order", "order_file", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
@_guard
def profile_cmd(code_name, distance, split, order_file, fmt):
    """Per-depth trellis dimensions and totals, without building."""
    c = _load_code(code_name, distance, order_file)
    source = _build_source(c, split)
    tof = source.normalizer_tof() if split == "full" else source.tof()
    prof = code_mod.profile(tof)
    rows = []
    for i in range(prof.n + 1):
        rows.append(
            {
                "depth": i,
                "dim_past": prof.dim_past[i],
                "dim_future": prof.dim_future[i],
                "vertices": prof.v_count[i],
                "edges": prof.e_count[i - 1] if i else "",
                "deg_in": prof.deg_in[i - 1] if i else "",
                "deg_out": prof.deg_out[i - 1] if i < prof.n else "",
            }
        )
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    else:
        header = f"{'i':>4} {'past':>5} {'future':>7} {'|V|':>12} {'|E|':>12} {'in':>6} {'out':>6}"
        click.echo(header)
        for row in rows:
            click.echo(
                f"{row['depth']:>4} {row['dim_past']:>5} {row['dim_future']:>7} "
                f"{row['vertices']:>12} {str(row['edges']):>12} "
                f"{str(row['deg_in']):>6} {str(row['deg_out']):>6}"
            )
    click.echo(f"total vertices: {prof.total_vertices}")
    click.echo(f"total edges: {prof.total_edges}")


@main.command(name="build")
@click.option("--code", "code_name", required=True)
@click.option("--distance", type=int, default=None)
@click.option("--split", type=click.Choice(["full", "x", "z"]), default="full")
@click.option("--order", "order_file", default=None)
@click.option("--out", "out_file", required=True)
@click.option("--drop-labels", is_flag=True, default=False)
@click.option("--max-edges", type=int, default=10**8)
@_guard
def build_cmd(code_name, distance, split, order_file, out_file, drop_labels, max_edges):
    """Build a trellis and write it to a file."""
    c = _load_code(code_name, distance, order_file)
    t = trellis_mod.build(_build_source(c, split), max_edges=max_edges)
    blob = trellis_mod.serialize(t, include_labels=not drop_labels)
    with open(out_file, "wb") as handle:
        handle.write(blob)
    click.echo(f"wrote {len(blob)} bytes: |V| = {t.total_vertices}, |E| = {t.total_edges}")


@main.command(name="census")
@click.option("--trellis", "trellis_file", required=True)
@_guard
def census_cmd(trellis_file):
    """Edge-configuration counts of a stored trellis."""
    with open(trellis_file, "rb") as handle:
        t = trellis_mod.deserialize(handle.read())
    cen = trellis_mod.census(t)
    for cfg in sorted(cen.counts):
        click.echo(f"configuration (starts={cfg[0]}, ends={cfg[1]}, overlap={cfg[2]}): {cen.counts[cfg]}")
    click.echo(f"expansions: {cen.expansions}")
    click.echo(f"mergers: {cen.mergers}")
    ok = cen.mergers == t.total_edges - t.total_vertices + 1
    click.echo(f"identity |E| - |V| + 1: {'ok' if ok else 'VIOLATED'}")


@main.command(name="decode")
@click.option("--trellis", "trellis_file", required=True)
@click.option("--code", "code_name", required=True)
@click.option("--distance", type=int, default=None)
@click.option("--syndrome", required=True)
@click.option("--channel", "channel_text", required=True)
@_guard
def decode_cmd(trellis_file, code_name, distance, syndrome, channel_text):
    """Decode one syndrome; prints correction, weight and classification."""
    c = _load_code(code_name, distance, None)
    with open(trellis_file, "rb") as handle:
        t = trellis_mod.deserialize(handle.read())
    s = np.array([int(tok) for tok in syndrome.replace(",", " ").split()], dtype=np.int64)
    channel = _parse_channel(channel_text)
    weights = weights_from_channel(channel, c.n, p=c.p)
    outcome = decode_syndrome(c, t, s, weights)
    click.echo(
        json.dumps(
            {
                "correction": format_pauli(outcome.correction),
                "weight": outcome.path_weight,
                "classification": outcome.classification,
            }
        )
    )


@main.command(name="simulate")
@click.option("--code", "code_name", required=True)
@click.option("--distance", type=int, default=None)
@click.option("--channel", "channel_kind", type=click.Choice(["depolarizing", "dephasing-z"]), required=True)
@click.option("--p-min", type=float, required=True)
@click.option("--p-max", type=float, required=True)
@click.option("--p-step", type=float, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--decoder", type=click.Choice(["full", "css", "block"]), default="full")
@click.option("--out", "out_file", required=True)
@click.option("--max-edges", type=int, default=10**8)
@_guard
def simulate_cmd(
    code_name, distance, channel_kind, p_min, p_max, p_step, samples, seed, decoder, out_file, max_edges
):
    """Monte Carlo logical failure rates over a physical-rate grid."""
    if not p_step > 0:
        raise SimError(f"--p-step {p_step} must be positive")
    if p_min > p_max:
        raise SimError(f"--p-min {p_min} exceeds --p-max {p_max}")
    c = _load_code(code_name, distance, None)
    kind = channel_kind.replace("-", "_")
    grid = np.arange(p_min, p_max + p_step / 2, p_step)
    trellises = sim_mod.build_trellises(c, decoder, max_edges=max_edges)
    points = sim_mod.run_montecarlo(c, trellises, kind, grid, samples, seed, decoder=decoder)
    with open(out_file, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "code", "distance", "decoder", "channel", "p_phys", "samples",
                "failures", "rate_cond", "rate_uncond", "ci_lo", "ci_hi", "seed",
            ]
        )
        for pt in points:
            writer.writerow(
                [
                    c.name or code_name, c.distance if c.distance is not None else "",
                    decoder, kind, f"{pt.p_phys:.10g}", pt.samples, pt.failures,
                    f"{pt.rate_cond:.10g}", f"{pt.rate_uncond:.10g}",
                    f"{pt.ci_lo:.10g}", f"{pt.ci_hi:.10g}", seed,
                ]
            )
    click.echo(f"wrote {len(points)} points to {out_file}")


@main.command(name="fit")
@click.option("--in", "in_file", required=True)
@click.option("--dmin", type=int, default=9)
@_guard
def fit_cmd(in_file, dmin):
    """Threshold fit from a results CSV; prints JSON."""
    datasets: dict[int, list[sim_mod.DataPoint]] = {}
    with open(in_file, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [col for col in _FIT_COLUMNS if col not in (reader.fieldnames or ())]
        if missing:
            _fail(4, f"{in_file}: missing results column(s) {', '.join(missing)}")
        for row in reader:
            try:
                d = int(row["distance"])
                pt = sim_mod.DataPoint(
                    float(row["p_phys"]), int(row["samples"]), int(row["failures"]),
                    float(row["rate_cond"]), float(row["rate_uncond"]),
                    float(row["ci_lo"]), float(row["ci_hi"]),
                )
            except (TypeError, ValueError):
                # a short row leaves fields None, a non-number fails to parse
                _fail(4, f"{in_file}: line {reader.line_num}: a results field is missing or not a number")
            datasets.setdefault(d, []).append(pt)
    fit = sim_mod.fit_threshold(datasets, dmin=dmin)
    click.echo(
        json.dumps(
            {
                "p_th": fit.p_th, "nu": fit.nu, "A": fit.A, "B": fit.B, "C": fit.C,
                "residual": fit.residual, "distances": list(fit.distances),
                "small_distance_caveat": fit.small_distance_caveat,
            }
        )
    )


if __name__ == "__main__":
    main()
