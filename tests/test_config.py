"""The normalized config document and the two hashes taken over it.

The config hash heads every event log and the demand fingerprint decides
which runs `compare` accepts as a pair, so their values are pinned here for
configs that together set every key, through the command line's own
`--out` and `--seed-override` handling; and every key the schema tables
accept must move them.
"""

import copy

import pytest
import yaml

from amodsim import cli, config

MINIMAL = {
    "network": {"nodes": "nodes.txt", "edges": "edges.txt"},
    "zones": "zones.geojson",
    "demand": {"seed": 7, "generate": {"rate_per_hour": 40.0, "duration_s": 1800.0}},
    "fleet": {"size": 3, "seed": 11},
    "out": "out",
}

GENERATED = {
    "network": {"nodes": "net/nodes.txt", "edges": "net/edges.txt", "speed_limit_mps": 12.5},
    "zones": "net/zones.geojson",
    "demand": {"seed": 21, "generate": {"rate_per_hour": 90.0, "duration_s": 5400.0,
                                        "party_probs": [0.5, 0.25, 0.25],
                                        "patience_range": [120.0, 900.0],
                                        "region": "bbox"}},
    "fleet": {"size": 17, "seed": 22, "capacity": 3},
    "traffic": {"schedule": [[0.0, 1.0], [1800.0, 1.4], [3600.0, 0.75]],
                "walk_seed": 23, "walk_step_s": 450.0, "walk_sigma": 0.2},
    "dispatch": {"strategy": "OSS", "eat": False, "oss_reassign_threshold_s": 30.0},
    "sim": {"snap_radius_m": 750.0, "metric_period_s": 900.0},
    "out": "runs/full",
}

TRIP_FILE = {
    "network": {"nodes": "nodes.txt", "edges": "edges.txt", "speed_limit_mps": 11.176},
    "zones": "zones.geojson",
    "demand": {"seed": 5, "file": "trips.csv", "capacity": 2,
               "bbox": [-74.1, 40.6, -73.8, 40.9]},
    "fleet": {"size": 40, "seed": 6},
    "dispatch": {"strategy": "sss"},
    "out": "runs/file",
}

PINNED = [
    ("minimal", MINIMAL, (),
     "e8493d92ba1401195ddb0f17b17b8308f2c4f88e241ff23cc70420d2ddb391eb",
     "201d26f75f95d292ebbe383f170ed81f351b073e72725c0acfbb876f2841761a"),
    ("generated", GENERATED, (),
     "cf0c34d21adaaab30e4baae31b7727df9f636b59c1566f602939889cdef589bd",
     "41276202d794efe518f1fd605b3c209c1f3dbc1092261230ad9d3146b0adc031"),
    ("trip-file", TRIP_FILE, (),
     "1c279fd3580de2262b7143a2e3b05b881fde33c202fd4c892e638476d54f8584",
     "ba7be9ee351bc264d8a62985fc21912f1715c614b2fa79011fe54299f3af1afb"),
    ("out-and-seed", GENERATED, ("--out", "/amodsim/pinned", "--seed-override", "40"),
     "b2b3aa001911f7a2592d3275f5a56f8a2a7794f4abfc81d9ecc7d3282d6301a5",
     "682b9fb27b4dfab4b1bd4f1eb13f183aca92614bd6bee433829939abc26dee60"),
    ("seed-without-walk", TRIP_FILE, ("--seed-override", "40"),
     "596f7416fe4de4466390ec3233e2a9ee58168cdfd7fceb81e294e52657653323",
     "02d2f3877ca07f497460108cf1e2a901880e3a59366bad2e00e7be1e04366752"),
]


def parsed_by_the_cli(tmp_path, monkeypatch, doc, flags=()):
    """The config `amodsim run` would run, after its command-line overrides."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda cfg: seen.append(cfg) or 0)
    assert cli.main(["run", "--config", str(path), *flags]) == 0
    return seen[0]


@pytest.mark.parametrize("doc, flags, config_hash, demand_fingerprint",
                         [pytest.param(*case[1:], id=case[0]) for case in PINNED])
def test_hashes_are_pinned(tmp_path, monkeypatch, doc, flags, config_hash,
                           demand_fingerprint):
    cfg = parsed_by_the_cli(tmp_path, monkeypatch, doc, flags)
    assert (cfg.config_hash(), cfg.demand_fingerprint()) == (config_hash, demand_fingerprint)


# A valid value, other than the default and other than the bases', for every
# key the schema tables accept.
OTHER_VALUES = {
    ("network", "nodes"): "other-nodes.txt",
    ("network", "edges"): "other-edges.txt",
    ("network", "speed_limit_mps"): 13.0,
    ("zones",): "other.geojson",
    ("demand", "seed"): 8,
    ("demand", "file"): "other.csv",
    ("demand", "capacity"): 3,
    ("demand", "bbox"): [-74.0, 40.5, -73.5, 41.0],
    ("demand", "generate", "rate_per_hour"): 41.0,
    ("demand", "generate", "duration_s"): 1700.0,
    ("demand", "generate", "party_probs"): [0.6, 0.4],
    ("demand", "generate", "patience_range"): [60.0, 1800.0],
    ("demand", "generate", "region"): "bbox",
    ("fleet", "size"): 4,
    ("fleet", "seed"): 12,
    ("fleet", "capacity"): 5,
    ("traffic", "schedule"): [[600.0, 1.2]],
    ("traffic", "walk_seed"): 5,
    ("traffic", "walk_step_s"): 300.0,
    ("traffic", "walk_sigma"): 0.2,
    ("dispatch", "strategy"): "SSS",
    ("dispatch", "eat"): False,
    ("dispatch", "oss_reassign_threshold_s"): 30.0,
    ("sim", "snap_radius_m"): 500.0,
    ("sim", "metric_period_s"): 300.0,
    ("out",): "elsewhere",
}

BASES = (
    {**MINIMAL, "traffic": {"walk_seed": 3}},
    {**MINIMAL, "demand": {"seed": 7, "file": "trips.csv"}},
)


def schema_paths(table, prefix=()):
    """Every key a schema table accepts, as a path into the document."""
    for key, (read, _) in table.items():
        path = prefix + (key,)
        if isinstance(read, dict):
            yield from schema_paths(read, path)
        elif read is config._demand:
            for mode in (config.DEMAND_FILE, config.DEMAND_GENERATED):
                yield from schema_paths(mode, path)
        else:
            yield path


def test_every_accepted_key_is_echoed_into_the_hashes():
    """A key read but not echoed would leave two different runs with one hash."""
    assert set(schema_paths(config.ROOT)) == set(OTHER_VALUES)
    for path, value in OTHER_VALUES.items():
        accepted = 0
        for base in BASES:
            doc = copy.deepcopy(base)
            section = doc
            for key in path[:-1]:
                section = section.setdefault(key, {})
            section[path[-1]] = value
            try:
                changed = config.parse_config(doc)
            except config.ConfigError:
                continue  # the key does not apply to this base
            accepted += 1
            original = config.parse_config(copy.deepcopy(base))
            assert changed.config_hash() != original.config_hash(), path
            demand_side = path[0] not in ("dispatch", "out")
            assert (changed.demand_fingerprint() != original.demand_fingerprint()) \
                == demand_side, path
        assert accepted, f"{path}: no base accepts {value!r}"


def test_a_null_value_counts_as_absent():
    nulls = copy.deepcopy(BASES[1])
    nulls["network"]["speed_limit_mps"] = None
    nulls["demand"].update(capacity=None, bbox=None)
    nulls.update(traffic=None, dispatch={"strategy": None}, sim=None)
    assert config.parse_config(nulls).doc == config.parse_config(BASES[1]).doc
    nulls["fleet"]["size"] = None
    with pytest.raises(config.ConfigError, match="fleet: missing required key 'size'"):
        config.parse_config(nulls)
