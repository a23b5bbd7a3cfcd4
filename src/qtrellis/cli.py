"""Command-line front end: profile, build, census, decode, simulate, fit.

Exit codes: 0 success, 2 validation error (including a ``--distance``
given with a fixed built-in code or a code file, or one whose family code
has more than ``code.MAX_BUILTIN_QUBITS`` qubits; a decoder mode not in
``decode.MODES``, refused with DecodeError; an empty ``simulate`` grid; a
``fit`` input with fewer than three distances, fewer than four points at
one distance, more than one decoder or channel, or more than one code at
one distance; and a ``fit`` whose threshold or exponent lands on an edge
of its search box), 3 resource cap exceeded (including a ``simulate``
grid of more than 10,000 points), 4 I/O or format error
(including a trellis of a group other than the code's, a trellis file of a
format version other than 3, to be rebuilt with ``build``, a trellis file
that fails its checksum or, for ``census`` and ``decode``, ``validate``, and
a ``fit`` input without a column of ``_RESULTS_COLUMNS`` other than
``seed``, or with a malformed row).
"""
from __future__ import annotations

import csv
import json
import sys
import time
import typing

import click
import numpy as np

from . import code as code_mod
from . import sim as sim_mod
from . import trellis as trellis_mod
from .code import CodeError
from .decode import MODES, DecodeError, mode_sources, weights_from_channel
from .decode import decode as decode_syndrome
from .pauli import format_pauli
from .sim import SimError
from .trellis import CapacityError, TrellisError

# the most points a ``simulate`` grid may have; every documented grid has under 20
_MAX_GRID_POINTS = 10_000

# a results CSV row: the study, one DataPoint, and the seed; ``fit`` reads all but the seed
_POINT_TYPES = typing.get_type_hints(sim_mod.DataPoint)
_RESULTS_COLUMNS = ("code", "distance", "decoder", "channel", *_POINT_TYPES, "seed")


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
    elif distance is not None:
        raise CodeError("--distance applies only to a built-in code family")
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


# the trellises built from the code itself, by key; block's is a Steane part
_SPLITS = [*MODES["full"], *MODES["css"]]


def _build_source(c, split: str):
    mode = next(mode for mode, axes in MODES.items() if split in axes)
    return mode_sources(c, mode)[split]


@click.group()
def main():
    """Trellis decoding toolkit for qudit stabilizer codes."""


@main.command(name="profile")
@click.option("--code", "code_name", required=True)
@click.option("--distance", type=int, default=None)
@click.option("--split", type=click.Choice(_SPLITS), default="full")
@click.option("--order", "order_file", default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
@_guard
def profile_cmd(code_name, distance, split, order_file, fmt):
    """Per-depth trellis dimensions and totals, without building."""
    c = _load_code(code_name, distance, order_file)
    _, _, prof = trellis_mod._resolve(_build_source(c, split))
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
@click.option("--split", type=click.Choice(_SPLITS), default="full")
@click.option("--order", "order_file", default=None)
@click.option("--out", "out_file", required=True)
@click.option("--max-edges", type=int, default=trellis_mod.MAX_EDGES)
@_guard
def build_cmd(code_name, distance, split, order_file, out_file, max_edges):
    """Build a trellis, write it in format version 3, and print its size and build and serialize seconds."""
    c = _load_code(code_name, distance, order_file)
    t0 = time.perf_counter()
    t = trellis_mod.build(_build_source(c, split), max_edges=max_edges)
    t1 = time.perf_counter()
    blob = trellis_mod.serialize(t)
    t2 = time.perf_counter()
    with open(out_file, "wb") as handle:
        handle.write(blob)
    sizes = f"wrote {len(blob)} bytes: |V| = {t.total_vertices}, |E| = {t.total_edges}"
    click.echo(f"{sizes}; build {t1 - t0:.3f} s, serialize {t2 - t1:.3f} s")


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
    # census raises TrellisError on the first violation validate reports,
    # and on a valid trellis both counts equal |E| - |V| + 1
    click.echo("identity |E| - |V| + 1: ok")


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
    # a stream with a recomputed checksum may still break the trellis structure
    errors = trellis_mod.validate(t)
    if errors:
        raise TrellisError(errors[0])
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
@click.option("--channel", "channel_kind", required=True,
              type=click.Choice([kind.replace("_", "-") for kind in sim_mod.CHANNEL_KINDS]))
@click.option("--p-min", type=float, required=True)
@click.option("--p-max", type=float, required=True)
@click.option("--p-step", type=float, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--decoder", type=click.Choice(list(MODES)), default="full")
@click.option("--out", "out_file", required=True)
@click.option("--max-edges", type=int, default=trellis_mod.MAX_EDGES)
@_guard
def simulate_cmd(
    code_name, distance, channel_kind, p_min, p_max, p_step, samples, seed, decoder, out_file, max_edges
):
    """Monte Carlo logical failure rates over a physical-rate grid."""
    if not p_step > 0:
        raise SimError(f"--p-step {p_step} must be positive")
    if p_min > p_max:
        raise SimError(f"--p-min {p_min} exceeds --p-max {p_max}")
    # count before np.arange allocates; the negation also refuses inf and nan
    if not (p_max - p_min) / p_step + 0.5 <= _MAX_GRID_POINTS:
        _fail(3, f"--p-step {p_step} gives a grid of more than {_MAX_GRID_POINTS} points")
    c = _load_code(code_name, distance, None)
    kind = channel_kind.replace("-", "_")
    grid = np.arange(p_min, p_max + p_step / 2, p_step)
    trellises = sim_mod.build_trellises(c, decoder, max_edges=max_edges)
    points = sim_mod.run_montecarlo(c, trellises, kind, grid, samples, seed, decoder=decoder)
    study = [c.name or code_name, c.distance if c.distance is not None else "", decoder, kind]
    with open(out_file, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RESULTS_COLUMNS)
        for pt in points:
            fields = (getattr(pt, name) for name in _POINT_TYPES)
            writer.writerow([*study, *(f"{v:.10g}" if isinstance(v, float) else v for v in fields), seed])
    click.echo(f"wrote {len(points)} points to {out_file}")


@main.command(name="fit")
@click.option("--in", "in_file", required=True)
@_guard
def fit_cmd(in_file):
    """Threshold fit of ``rate_uncond`` over every distance in a results CSV; prints JSON."""
    datasets: dict[int, list[sim_mod.DataPoint]] = {}
    codes: dict[int, set[str]] = {}
    studies: set[tuple[str, str]] = set()
    with open(in_file, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [col for col in _RESULTS_COLUMNS[:-1] if col not in (reader.fieldnames or ())]
        if missing:
            _fail(4, f"{in_file}: missing results column(s) {', '.join(missing)}")
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("short row")
                d = int(row["distance"])
                pt = sim_mod.DataPoint(*(kind(row[name]) for name, kind in _POINT_TYPES.items()))
            except ValueError:
                _fail(4, f"{in_file}: line {reader.line_num}: a results field is missing or not a number")
            datasets.setdefault(d, []).append(pt)
            codes.setdefault(d, set()).add(row["code"])
            studies.add((row["decoder"], row["channel"]))
    # one fit describes one study: a decoder and a channel, one code per distance
    if len(studies) > 1:
        raise SimError(f"{in_file} mixes studies: (decoder, channel) = {', '.join(map(str, sorted(studies)))}")
    for d, names in sorted(codes.items()):
        if len(names) > 1:
            raise SimError(f"{in_file} mixes codes at distance {d}: {', '.join(sorted(names))}")
    fit = sim_mod.fit_threshold(datasets)
    click.echo(
        json.dumps(
            {
                "p_th": fit.p_th, "nu": fit.nu, "A": fit.A, "B": fit.B, "C": fit.C,
                "residual": fit.residual, "distances": list(fit.distances),
            }
        )
    )


if __name__ == "__main__":
    main()
