"""Run configuration: YAML schema, normalization, and fingerprints.

Every default is echoed back into the normalized form, so a stored copy of
the normalized config fully describes the run. Two hashes derive from that
form: `config_hash` over everything, and `demand_fingerprint` over everything
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
from typing import Any

import yaml

from .demand import DEFAULT_PARTY_PROBS, PATIENCE_MAX_S, PATIENCE_MIN_S
from .dispatch import DispatchConfig
from .engine import DEFAULT_SNAP_RADIUS_M
from .fleet import DEFAULT_CAPACITY, Strategy

STRATEGY_NAMES = tuple(s.value for s in Strategy)
DEFAULT_SPEED_LIMIT_MPS = 25.0
DEFAULT_METRIC_PERIOD_S = 600.0


class ConfigError(ValueError):
    pass


def _need(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _known(section: dict, keys: set[str], where: str) -> None:
    """Reject a key no setting reads: a misspelt key would otherwise leave
    its default in force without a word."""
    unknown = sorted(map(str, set(section) - keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


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


@dataclass
class DemandSpec:
    # exactly one of file / generate
    file: str | None = None
    seed: int = 0
    capacity: int = DEFAULT_CAPACITY
    bbox: tuple[float, float, float, float] | None = None
    rate_per_hour: float | None = None
    duration_s: float | None = None
    party_probs: tuple[float, ...] = DEFAULT_PARTY_PROBS
    patience_range: tuple[float, float] = (PATIENCE_MIN_S, PATIENCE_MAX_S)
    region: str = "zones"  # generator sampling region: zones | bbox

    @property
    def generated(self) -> bool:
        return self.file is None


@dataclass
class RunConfig:
    nodes_path: str
    edges_path: str
    speed_limit_mps: float
    zones_path: str
    demand: DemandSpec
    fleet_size: int
    fleet_seed: int
    fleet_capacity: int
    traffic_schedule: tuple[tuple[float, float], ...]
    traffic_walk_seed: int | None
    traffic_walk_step_s: float
    traffic_walk_sigma: float
    strategy: Strategy
    eat_enabled: bool
    oss_reassign_threshold_s: float
    snap_radius_m: float
    metric_period_s: float
    out_dir: str
    base_dir: str = "."

    def path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(self.base_dir, p))

    def dispatch_config(self) -> DispatchConfig:
        return DispatchConfig(strategy=self.strategy, eat_enabled=self.eat_enabled,
                              oss_reassign_threshold_s=self.oss_reassign_threshold_s)

    def normalized(self) -> dict:
        """Canonical nested dict with every default made explicit."""
        demand: dict[str, Any] = {"seed": self.demand.seed}
        if self.demand.generated:
            demand["generate"] = {
                "rate_per_hour": self.demand.rate_per_hour,
                "duration_s": self.demand.duration_s,
                "party_probs": list(self.demand.party_probs),
                "patience_range": list(self.demand.patience_range),
                "region": self.demand.region,
            }
        else:
            demand["file"] = self.demand.file
            demand["capacity"] = self.demand.capacity
            if self.demand.bbox is not None:
                demand["bbox"] = list(self.demand.bbox)
        return {
            "network": {
                "nodes": self.nodes_path,
                "edges": self.edges_path,
                "speed_limit_mps": self.speed_limit_mps,
            },
            "zones": self.zones_path,
            "demand": demand,
            "fleet": {
                "size": self.fleet_size,
                "seed": self.fleet_seed,
                "capacity": self.fleet_capacity,
            },
            "traffic": {
                "schedule": [list(e) for e in self.traffic_schedule],
                "walk_seed": self.traffic_walk_seed,
                "walk_step_s": self.traffic_walk_step_s,
                "walk_sigma": self.traffic_walk_sigma,
            },
            "dispatch": {
                "strategy": self.strategy.value,
                "eat": self.eat_enabled,
                "oss_reassign_threshold_s": self.oss_reassign_threshold_s,
            },
            "sim": {
                "snap_radius_m": self.snap_radius_m,
                "metric_period_s": self.metric_period_s,
            },
            "out": self.out_dir,
        }

    def config_hash(self) -> str:
        return _digest(self.normalized())

    def demand_fingerprint(self) -> str:
        trimmed = self.normalized()
        del trimmed["dispatch"]
        del trimmed["out"]
        return _digest(trimmed)


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _parse_demand(section: Any) -> DemandSpec:
    if not isinstance(section, dict):
        raise ConfigError("demand: expected a mapping")
    spec = DemandSpec(seed=_intval(_need(section, "seed", "demand"), "demand.seed"))
    _known(section, {"seed", "file", "generate", "capacity", "bbox"}, "demand")
    has_file = "file" in section
    has_gen = "generate" in section
    if has_file == has_gen:
        raise ConfigError("demand: exactly one of 'file' or 'generate' is required")
    file_only = sorted({"capacity", "bbox"} & set(section))
    if has_gen and file_only:
        raise ConfigError(f"demand: {file_only} apply to a trip file only, not to 'generate'")
    if has_file:
        spec.file = str(section["file"])
        spec.capacity = _intval(section.get("capacity", DEFAULT_CAPACITY), "demand.capacity")
        if spec.capacity < 1:
            raise ConfigError(f"demand.capacity must be >= 1, got {spec.capacity}")
        if "bbox" in section:
            box = section["bbox"]
            if not (isinstance(box, list) and len(box) == 4):
                raise ConfigError("demand.bbox: expected [lon_min, lat_min, lon_max, lat_max]")
            spec.bbox = tuple(_num(v, "demand.bbox") for v in box)
            lon_min, lat_min, lon_max, lat_max = spec.bbox
            if lon_min >= lon_max or lat_min >= lat_max:
                raise ConfigError(f"demand.bbox: expected lon_min < lon_max and lat_min < lat_max, "
                                  f"got {list(spec.bbox)}")
        return spec
    gen = section["generate"]
    if not isinstance(gen, dict):
        raise ConfigError("demand.generate: expected a mapping")
    _known(gen, {"rate_per_hour", "duration_s", "party_probs", "patience_range", "region"},
           "demand.generate")
    spec.rate_per_hour = _num(_need(gen, "rate_per_hour", "demand.generate"),
                              "demand.generate.rate_per_hour")
    spec.duration_s = _num(_need(gen, "duration_s", "demand.generate"),
                           "demand.generate.duration_s")
    if spec.rate_per_hour < 0 or spec.duration_s <= 0:
        raise ConfigError("demand.generate: rate must be >= 0 and duration positive")
    if "party_probs" in gen:
        probs = gen["party_probs"]
        if not isinstance(probs, list) or not probs:
            raise ConfigError("demand.generate.party_probs: expected a non-empty list")
        spec.party_probs = tuple(_num(p, "demand.generate.party_probs") for p in probs)
    if "patience_range" in gen:
        pr = gen["patience_range"]
        if not (isinstance(pr, list) and len(pr) == 2):
            raise ConfigError("demand.generate.patience_range: expected [lo, hi]")
        spec.patience_range = (_num(pr[0], "patience_range"), _num(pr[1], "patience_range"))
    region = gen.get("region", "zones")
    if region not in ("zones", "bbox"):
        raise ConfigError(f"demand.generate.region: expected zones or bbox, got {region!r}")
    spec.region = region
    return spec


def parse_config(doc: Any, base_dir: str = ".") -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a mapping")
    unknown = set(doc) - {"network", "zones", "demand", "fleet", "traffic",
                          "dispatch", "sim", "out"}
    if unknown:
        raise ConfigError(f"config root: unknown sections {sorted(map(str, unknown))}")

    net = _need(doc, "network", "config")
    if not isinstance(net, dict):
        raise ConfigError("network: expected a mapping")
    _known(net, {"nodes", "edges", "speed_limit_mps"}, "network")
    nodes_path = str(_need(net, "nodes", "network"))
    edges_path = str(_need(net, "edges", "network"))
    speed_limit = _num(net.get("speed_limit_mps", DEFAULT_SPEED_LIMIT_MPS),
                       "network.speed_limit_mps")
    if speed_limit <= 0:
        raise ConfigError(f"network.speed_limit_mps must be positive, got {speed_limit}")

    zones_path = str(_need(doc, "zones", "config"))
    demand = _parse_demand(_need(doc, "demand", "config"))

    fl = _need(doc, "fleet", "config")
    if not isinstance(fl, dict):
        raise ConfigError("fleet: expected a mapping")
    _known(fl, {"size", "seed", "capacity"}, "fleet")
    fleet_size = _intval(_need(fl, "size", "fleet"), "fleet.size")
    fleet_seed = _intval(_need(fl, "seed", "fleet"), "fleet.seed")
    fleet_capacity = _intval(fl.get("capacity", DEFAULT_CAPACITY), "fleet.capacity")
    if fleet_size < 0:
        raise ConfigError(f"fleet.size must be >= 0, got {fleet_size}")
    if fleet_capacity < 1:
        raise ConfigError(f"fleet.capacity must be >= 1, got {fleet_capacity}")
    # A party larger than every vehicle could only ever be rejected no-vehicle.
    if demand.generated:
        largest = max((i + 1 for i, p in enumerate(demand.party_probs) if p > 0), default=1)
        if largest > fleet_capacity:
            raise ConfigError(f"demand.generate.party_probs gives parties of {largest}, "
                              f"more than fleet.capacity {fleet_capacity}")
    elif demand.capacity > fleet_capacity:
        raise ConfigError(f"demand.capacity {demand.capacity} is more than "
                          f"fleet.capacity {fleet_capacity}")

    tr = doc.get("traffic") or {}
    if not isinstance(tr, dict):
        raise ConfigError("traffic: expected a mapping")
    _known(tr, {"schedule", "walk_seed", "walk_step_s", "walk_sigma"}, "traffic")
    schedule = []
    for i, entry in enumerate(tr.get("schedule") or []):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError(f"traffic.schedule[{i}]: expected [start_s, multiplier]")
        schedule.append((_num(entry[0], f"traffic.schedule[{i}]"),
                         _num(entry[1], f"traffic.schedule[{i}]")))
    walk_seed = tr.get("walk_seed")
    if walk_seed is not None:
        walk_seed = _intval(walk_seed, "traffic.walk_seed")
    walk_step = _num(tr.get("walk_step_s", 600.0), "traffic.walk_step_s")
    walk_sigma = _num(tr.get("walk_sigma", 0.1), "traffic.walk_sigma")
    if walk_step <= 0:
        raise ConfigError(f"traffic.walk_step_s must be positive, got {walk_step}")
    if walk_sigma < 0:
        raise ConfigError(f"traffic.walk_sigma must be >= 0, got {walk_sigma}")

    dp = doc.get("dispatch") or {}
    if not isinstance(dp, dict):
        raise ConfigError("dispatch: expected a mapping")
    _known(dp, {"strategy", "eat", "oss_reassign_threshold_s"}, "dispatch")
    strategy_name = str(dp.get("strategy", "NSS")).upper()
    if strategy_name not in STRATEGY_NAMES:
        raise ConfigError(f"dispatch.strategy: expected one of {STRATEGY_NAMES}, "
                          f"got {strategy_name!r}")
    eat = dp.get("eat", True)
    if not isinstance(eat, bool):
        raise ConfigError(f"dispatch.eat: expected true/false, got {eat!r}")
    threshold = _num(dp.get("oss_reassign_threshold_s", 60.0),
                     "dispatch.oss_reassign_threshold_s")
    if threshold < 0:
        raise ConfigError(f"dispatch.oss_reassign_threshold_s must be >= 0, got {threshold}")

    sim = doc.get("sim") or {}
    if not isinstance(sim, dict):
        raise ConfigError("sim: expected a mapping")
    _known(sim, {"snap_radius_m", "metric_period_s"}, "sim")
    snap = _num(sim.get("snap_radius_m", DEFAULT_SNAP_RADIUS_M), "sim.snap_radius_m")
    period = _num(sim.get("metric_period_s", DEFAULT_METRIC_PERIOD_S), "sim.metric_period_s")
    if snap <= 0 or period <= 0:
        raise ConfigError("sim: snap_radius_m and metric_period_s must be positive")

    out_dir = str(_need(doc, "out", "config"))

    return RunConfig(
        nodes_path=nodes_path, edges_path=edges_path, speed_limit_mps=speed_limit,
        zones_path=zones_path, demand=demand,
        fleet_size=fleet_size, fleet_seed=fleet_seed, fleet_capacity=fleet_capacity,
        traffic_schedule=tuple(schedule), traffic_walk_seed=walk_seed,
        traffic_walk_step_s=walk_step, traffic_walk_sigma=walk_sigma,
        strategy=Strategy(strategy_name), eat_enabled=eat,
        oss_reassign_threshold_s=threshold,
        snap_radius_m=snap, metric_period_s=period,
        out_dir=out_dir, base_dir=base_dir,
    )


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
    cfg.demand.seed = seed
    cfg.fleet_seed = seed + 1
    if cfg.traffic_walk_seed is not None:
        cfg.traffic_walk_seed = seed + 2
