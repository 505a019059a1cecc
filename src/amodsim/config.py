"""Run configuration: YAML schema, normalization, and fingerprints.

A parsed config is its normalized document: each section is read through one
table of `key: (reader, default)`, and every default is echoed back, so a
stored copy of the document fully describes the run. Two hashes derive from
it: `config_hash` over everything, and `demand_fingerprint` over everything
except the dispatch and output sections. Runs are comparable only when their
demand fingerprints match (same inputs, same seeds; only the dispatcher may
differ).

Seeds are mandatory where randomness exists; nothing falls back to the clock.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import yaml

from .demand import DEFAULT_CAPACITY, DEFAULT_PARTY_PROBS, PATIENCE_MAX_S, PATIENCE_MIN_S
from .dispatch import DispatchConfig
from .engine import DEFAULT_SNAP_RADIUS_M
from .fleet import Strategy
from .road import DEFAULT_WALK_SIGMA, DEFAULT_WALK_STEP_S

STRATEGY_NAMES = tuple(s.value for s in Strategy)
_DISPATCH = DispatchConfig()

REQUIRED = object()  # a default: the key must be given
OMITTED = object()  # a default: the key is echoed only when given

# A reader turns a given value into its normalized form, or raises a
# ConfigError naming `where`, the key's dotted path. A table in a reader's
# place reads a nested section.
Reader = Callable[[Any, str], Any]


class ConfigError(ValueError):
    pass


def _section(raw: Any, table: dict, where: str) -> dict:
    """The normalized form of one section: each key of `table` read by its
    reader, or given its default. A null value counts as absent. `where` is
    the section's dotted path, "" at the root."""
    label = where or "config root"
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: expected a mapping")
    # A misspelt key would otherwise leave its default in force without a word.
    unknown = sorted(map(str, set(raw) - set(table)))
    if unknown:
        raise ConfigError(f"{label}: unknown {'keys' if where else 'sections'} {unknown}")
    doc = {}
    for key, (read, default) in table.items():
        value = default if raw.get(key) is None else raw[key]
        if value is REQUIRED:
            raise ConfigError(f"{label}: missing required key {key!r}")
        path = f"{where}.{key}" if where else key
        if isinstance(read, dict):
            doc[key] = _section(value, read, path)
        elif value is not OMITTED:  # a default of None is echoed as it is
            doc[key] = None if value is None else read(value, path)
    return doc


def _num(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _intval(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _signed(read: Reader, zero_ok: bool) -> Reader:
    """`read`, then a check that the value is positive, or at least 0."""
    def check(value: Any, where: str) -> Any:
        x = read(value, where)
        if x < 0 or (x == 0 and not zero_ok):
            raise ConfigError(f"{where} must be {'>= 0' if zero_ok else 'positive'}, got {x}")
        return x
    return check


_positive, _nonneg = _signed(_num, False), _signed(_num, True)
_positive_int, _nonneg_int = _signed(_intval, False), _signed(_intval, True)


def _str(value: Any, where: str) -> str:
    return str(value)


def _numbers(shape: str, size: int | None = None) -> Reader:
    """A list of finite numbers: `size` of them, or any number but none."""
    def read(value: Any, where: str) -> list[float]:
        if not (isinstance(value, list) and (len(value) == size if size else value)):
            raise ConfigError(f"{where}: expected {shape}")
        return [_num(v, where) for v in value]
    return read


def _bbox(value: Any, where: str) -> list[float]:
    box = _numbers("[lon_min, lat_min, lon_max, lat_max]", 4)(value, where)
    lon_min, lat_min, lon_max, lat_max = box
    if lon_min >= lon_max or lat_min >= lat_max:
        raise ConfigError(f"{where}: expected lon_min < lon_max and lat_min < lat_max, "
                          f"got {box}")
    return box


def _choice(names: tuple[str, ...]) -> Reader:
    def read(value: Any, where: str) -> str:
        if value not in names:
            raise ConfigError(f"{where}: expected one of {names}, got {value!r}")
        return value
    return read


def _schedule(value: Any, where: str) -> list[list[float]]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of [start_s, multiplier]")
    return [_numbers("[start_s, multiplier]", 2)(entry, f"{where}[{i}]")
            for i, entry in enumerate(value)]


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true/false, got {value!r}")
    return value


NETWORK = {
    "nodes": (_str, REQUIRED),
    "edges": (_str, REQUIRED),
    "speed_limit_mps": (_positive, 25.0),
}
GENERATE = {
    "rate_per_hour": (_nonneg, REQUIRED),
    "duration_s": (_positive, REQUIRED),
    "party_probs": (_numbers("a non-empty list"), list(DEFAULT_PARTY_PROBS)),
    "patience_range": (_numbers("[lo, hi]", 2), [PATIENCE_MIN_S, PATIENCE_MAX_S]),
    "region": (_choice(("zones", "bbox")), "zones"),  # where generated points are drawn
}
DEMAND_SEED = {"seed": (_intval, REQUIRED)}
DEMAND_FILE = {
    **DEMAND_SEED,
    "file": (_str, REQUIRED),
    "capacity": (_positive_int, DEFAULT_CAPACITY),  # the largest party a row may carry
    "bbox": (_bbox, OMITTED),
}
DEMAND_GENERATED = {**DEMAND_SEED, "generate": (GENERATE, REQUIRED)}
FLEET = {
    "size": (_nonneg_int, REQUIRED),
    "seed": (_intval, REQUIRED),
    "capacity": (_positive_int, DEFAULT_CAPACITY),
}
TRAFFIC = {
    "schedule": (_schedule, []),
    "walk_seed": (_intval, None),  # no walk unless given
    "walk_step_s": (_positive, DEFAULT_WALK_STEP_S),
    "walk_sigma": (_nonneg, DEFAULT_WALK_SIGMA),
}
DISPATCH = {
    "strategy": (lambda v, where: _choice(STRATEGY_NAMES)(str(v).upper(), where),  # any case
                 _DISPATCH.strategy.value),
    "eat": (_bool, _DISPATCH.eat_enabled),
    "oss_reassign_threshold_s": (_nonneg, _DISPATCH.oss_reassign_threshold_s),
}
SIM = {
    "snap_radius_m": (_positive, DEFAULT_SNAP_RADIUS_M),
    "metric_period_s": (_positive, 600.0),
}


def _demand(value: Any, where: str) -> dict:
    """A trip file or generated demand, each with its own table."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    if ("file" in value) == ("generate" in value):
        raise ConfigError(f"{where}: exactly one of 'file' or 'generate' is required")
    if "file" in value:
        return _section(value, DEMAND_FILE, where)
    file_only = sorted(value.keys() & DEMAND_FILE.keys() - DEMAND_GENERATED.keys())
    if file_only:
        raise ConfigError(f"{where}: {file_only} apply to a trip file only, not to 'generate'")
    return _section(value, DEMAND_GENERATED, where)


ROOT = {
    "network": (NETWORK, REQUIRED),
    "zones": (_str, REQUIRED),
    "demand": (_demand, REQUIRED),
    "fleet": (FLEET, REQUIRED),
    "traffic": (TRAFFIC, {}),
    "dispatch": (DISPATCH, {}),
    "sim": (SIM, {}),
    "out": (_str, REQUIRED),
}


@dataclass
class RunConfig:
    """A parsed config: its normalized document, every default filled in,
    and the directory its relative paths start from."""
    doc: dict
    base_dir: str = "."

    def path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(self.base_dir, p))

    def dispatch_config(self) -> DispatchConfig:
        d = self.doc["dispatch"]
        return DispatchConfig(strategy=Strategy(d["strategy"]), eat_enabled=d["eat"],
                              oss_reassign_threshold_s=d["oss_reassign_threshold_s"])

    def cell(self, strategy: Strategy, eat: bool, out: str) -> "RunConfig":
        """This config with another dispatcher and output: one matrix cell."""
        dispatch = {**self.doc["dispatch"], "strategy": strategy.value, "eat": eat}
        return RunConfig({**self.doc, "dispatch": dispatch, "out": out}, self.base_dir)

    def config_hash(self) -> str:
        return _digest(self.doc)

    def demand_fingerprint(self) -> str:
        return _digest({k: v for k, v in self.doc.items() if k not in ("dispatch", "out")})


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def parse_config(raw: Any, base_dir: str = ".") -> RunConfig:
    doc = _section(raw, ROOT, "")
    # Walk keys without a walk would be read and then ignored.
    given = raw.get("traffic") or {}
    walk_only = [k for k in ("walk_sigma", "walk_step_s") if given.get(k) is not None]
    if walk_only and doc["traffic"]["walk_seed"] is None:
        raise ConfigError(f"traffic: {walk_only} apply to a walk only, and need 'walk_seed'")
    # A party larger than every vehicle could only ever be rejected no-vehicle.
    demand, capacity = doc["demand"], doc["fleet"]["capacity"]
    if "generate" in demand:
        probs = demand["generate"]["party_probs"]
        largest = max((i + 1 for i, p in enumerate(probs) if p > 0), default=1)
        if largest > capacity:
            raise ConfigError(f"demand.generate.party_probs gives parties of {largest}, "
                              f"more than fleet.capacity {capacity}")
    elif demand["capacity"] > capacity:
        raise ConfigError(f"demand.capacity {demand['capacity']} is more than "
                          f"fleet.capacity {capacity}")
    return RunConfig(doc, base_dir)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    try:
        return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def apply_seed_override(cfg: RunConfig, seed: int) -> None:
    """Re-seed all random streams from one base value.

    Streams keep distinct offsets so they never collapse onto each other:
    demand takes the base, fleet base+1, the traffic walk base+2 (only if the
    config enabled a walk).
    """
    cfg.doc["demand"]["seed"] = seed
    cfg.doc["fleet"]["seed"] = seed + 1
    if cfg.doc["traffic"]["walk_seed"] is not None:
        cfg.doc["traffic"]["walk_seed"] = seed + 2
