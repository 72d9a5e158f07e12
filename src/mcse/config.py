"""Line-oriented `key = value` configuration files.

Blank lines and lines starting with # are ignored. Each subcommand that
takes --config has its own table of the keys it reads; values are parsed
by the key's type, and a key outside the table is an error that names
it, so typos and keys meant for another subcommand fail loudly instead of
silently doing nothing. So does a key of the table that the `baseline`
method, or `--model` in place of a fresh model, would ignore (MODE_KEYS),
a key read only under a value of another key (READ_WITH), and a key given
twice, whose first value would be ignored.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path


class ConfigError(ValueError):
    pass


# subcommand -> {key: converter}, exactly the keys that subcommand reads
KEYS = {
    "simulate": {
        "num_utterances": int,
        "seconds": float,
        "seed": int,
        "snr_db_min": float,
        "snr_db_max": float,
        "absorption": float,
        "max_image_order": int,
        "room_x": float,
        "room_y": float,
        "room_z": float,
    },
    "train": {
        "batch_size": int,
        "lr": float,
        "lr_halving_interval": int,
        "weight_decay": float,
        "max_iters": int,
        "seed": int,
        "stage": str,
        "width_scale": Fraction,
    },
    "baseline": {
        "wpe_taps": int,
        "wpe_delay": int,
        "wpe_iterations": int,
        "mvdr_mode": str,
        "mvdr_forgetting": float,
        "width_scale": Fraction,
    },
}


# "subcommand mode" -> the part of the subcommand's table that mode reads
MODE_KEYS = {
    "train --model": set(KEYS["train"]) - {"width_scale"},
    "baseline ds": set(),
    "baseline wpe": {"wpe_taps", "wpe_delay", "wpe_iterations"},
    "baseline mvdr": {"mvdr_mode", "mvdr_forgetting"},
    "baseline filtersum": {"width_scale"},
    "baseline filtersum --model": set(),
}


# key -> (other key, value): read only when the other key has that value;
# block-mode MVDR has no forgetting factor, and block is the default mode
READ_WITH = {"mvdr_forgetting": ("mvdr_mode", "frame")}


def parse_config_text(text: str, command: str, source: str = "<config>") -> dict:
    """command is a subcommand, or a MODE_KEYS mode of one."""
    keys = KEYS[command.split()[0]]
    read = MODE_KEYS.get(command, keys)
    out = {}
    line_of = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in read:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key {key!r} for {command}")
        if key in line_of:
            raise ConfigError(
                f"{source}:{lineno}: configuration key {key!r} is already set on line {line_of[key]}")
        try:
            out[key] = keys[key](value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        line_of[key] = lineno
    for key, (other, value) in READ_WITH.items():
        if key in out and out.get(other) != value:
            raise ConfigError(
                f"{source}:{line_of[key]}: configuration key {key!r} is read only with "
                f"{other} = {value}")
    return out


def load_config(path, command: str) -> dict:
    path = Path(path)
    return parse_config_text(path.read_text(), command, source=str(path))
