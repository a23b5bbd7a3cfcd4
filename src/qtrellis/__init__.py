"""Minimum-weight trellis decoding for prime-dimensional qudit stabilizer codes."""
from __future__ import annotations

from .pauli import PauliString, parse_pauli, format_pauli
from .code import StabilizerCode, new_code, builtin, parse_code_file, write_code_file
from .trellis import Trellis, build, census, validate, serialize, deserialize
from .decode import (
    weights_from_channel,
    pure_error,
    viterbi,
    decode,
    css_decode,
    block_decode,
    classify_residual,
)
from .sim import ChannelSpec, sample_error, exact_rate, run_montecarlo, fit_threshold

__all__ = [
    "PauliString",
    "parse_pauli",
    "format_pauli",
    "StabilizerCode",
    "new_code",
    "builtin",
    "parse_code_file",
    "write_code_file",
    "Trellis",
    "build",
    "census",
    "validate",
    "serialize",
    "deserialize",
    "weights_from_channel",
    "pure_error",
    "viterbi",
    "decode",
    "css_decode",
    "block_decode",
    "classify_residual",
    "ChannelSpec",
    "sample_error",
    "exact_rate",
    "run_montecarlo",
    "fit_threshold",
]
