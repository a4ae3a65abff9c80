"""Plain-text key=value configuration files.

One assignment per line, ``#`` starts a comment, blank lines ignored.
Values stay strings until a typed getter pulls them out; unknown keys are
the caller's job to reject (the CLI does, against its schema).
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["parse_config_text", "load_config", "format_config"]


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key in {raw!r}")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ValueError(f"{path}: cannot read config file ({err})") from err
    try:
        return parse_config_text(text)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def format_config(cfg: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(cfg.items()))


def get_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key}: expected a boolean, got {raw!r}")


def get_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as err:
        raise ValueError(f"{key}: expected an integer, got {raw!r}") from err


def get_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as err:
        raise ValueError(f"{key}: expected a number, got {raw!r}") from err

