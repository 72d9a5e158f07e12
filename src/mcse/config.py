"""Line-oriented `key = value` configuration files.

Blank lines and lines starting with # are ignored. Values are parsed by
the expected type of the key; unknown keys are an error that names the
key, so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path


class ConfigError(ValueError):
    pass


def _parse_bool(v: str) -> bool:
    lv = v.lower()
    if lv in ("1", "true", "yes", "on"):
        return True
    if lv in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_fraction(v: str) -> Fraction:
    return Fraction(v)


# key -> converter; one flat namespace shared by all subcommands
KNOWN_KEYS = {
    # training
    "batch_size": int,
    "lr": float,
    "lr_halving_interval": int,
    "weight_decay": float,
    "max_iters": int,
    "seed": int,
    "stage": str,
    # model
    "width_scale": _parse_fraction,
    "freq_bins": int,
    "p_channels": int,
    # dataset / scene
    "num_utterances": int,
    "seconds": float,
    "snr_db_min": float,
    "snr_db_max": float,
    "absorption": float,
    "max_image_order": int,
    "room_x": float,
    "room_y": float,
    "room_z": float,
    "sample_rate": int,
    # baselines
    "wpe_taps": int,
    "wpe_delay": int,
    "wpe_iterations": int,
    "mvdr_mode": str,
    "mvdr_forgetting": float,
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown configuration key {key!r}")
        conv = KNOWN_KEYS[key]
        try:
            out[key] = conv(value) if conv is not _parse_bool else _parse_bool(value)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path) -> dict:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))
