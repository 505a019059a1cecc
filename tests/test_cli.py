"""End-to-end runs of the command-line entry points."""

import codecs
import copy
import json
import os
import random
import re
import shutil

import pytest
import yaml

from amodsim import cli, engine
from amodsim.engine import SimulationError
from scenario_tools import (GOLDEN_EDGE_LEN_M, GOLDEN_SPACING_DEG, GRID_SPEED_LIMIT_MPS,
                            GRID_SPEED_MPS, box_feature, write_golden_inputs)

BASE_DOC = {
    "network": {"nodes": "nodes.txt", "edges": "edges.txt",
                "speed_limit_mps": GRID_SPEED_LIMIT_MPS},
    "zones": "zones.geojson",
    "demand": {"seed": 7, "generate": {"rate_per_hour": 40.0, "duration_s": 1800.0}},
    "fleet": {"size": 3, "seed": 11},
    "dispatch": {"strategy": "NSS", "eat": True},
    "out": "out",
}

RUN_FILES = ("call_records.txt", "event_log.txt", "summary.txt",
             "periodic.txt", "adjacency_final.txt", "metadata.json")


def setup_dir(dirpath, doc=None, name="config.yaml"):
    write_golden_inputs(str(dirpath))
    cfg_path = os.path.join(str(dirpath), name)
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(doc if doc is not None else BASE_DOC, fh)
    return cfg_path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def load_meta(run_dir):
    with open(os.path.join(run_dir, "metadata.json")) as fh:
        return json.load(fh)


def stderr_only(capsys):
    """What a command wrote to stderr, once checked that no error line went
    to stdout."""
    cap = capsys.readouterr()
    assert not any(line.startswith("error") for line in cap.out.splitlines()), cap.out
    return cap.err


def test_validate_ok(tmp_path, capsys):
    cfg = setup_dir(tmp_path)
    assert cli.main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok network: 9 nodes, 24 edges" in out
    assert "ok zones: 4 zones, 4 adjacent pairs" in out
    assert re.search(r"ok demand: generated \d+ requests", out)
    assert "warning" not in out and "error" not in out


def test_validate_warns_of_split_network_and_stray_requests(tmp_path, capsys):
    d = GOLDEN_SPACING_DEG
    doc = copy.deepcopy(BASE_DOC)
    doc["demand"] = {"seed": 1, "file": "trips.csv", "bbox": [-0.1, -0.1, 0.1, 0.1]}
    doc["sim"] = {"snap_radius_m": 300.0}
    cfg = setup_dir(tmp_path, doc)
    # node 9 is reached by a one-way street only: a component of its own
    with open(os.path.join(str(tmp_path), "nodes.txt"), "a") as fh:
        fh.write(f"9 {2 * d!r} {3 * d!r}\n")
    with open(os.path.join(str(tmp_path), "edges.txt"), "a") as fh:
        fh.write(f"8 9 {GOLDEN_EDGE_LEN_M} {GRID_SPEED_MPS}\n")
    with open(os.path.join(str(tmp_path), "trips.csv"), "w") as fh:
        fh.write("medallion,pickup time,dropoff time,passenger count,"
                 "pickup log,pickup lat,dropoff log,dropoff lat\n"
                 f"m0,2013-01-05 12:00:00,2013-01-05 12:20:00,1,{d!r},0.0,{d!r},{d!r}\n"
                 # east of every zone, and 800 m from the nearest node
                 f"m1,2013-01-05 12:01:00,2013-01-05 12:20:00,1,{4 * d!r},0.0,{d!r},{d!r}\n")
    assert cli.main(["validate", "--config", cfg]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("warning")]
    assert warnings == [
        "warning network: 2 strongly connected components; some trips may be unroutable",
        "warning zones: 1 of 2 pickups outside all zones (nearest-centroid fallback applies)",
        "warning network: 1 requests beyond the 300.0 m snap radius "
        "(will be rejected as unroutable)",
    ]


def test_validate_reads_inputs_that_start_with_a_byte_order_mark(tmp_path, capsys):
    """Excel and many Windows tools start a UTF-8 file with a byte-order
    mark. Each input file may carry one and reads as it would without. The
    config, marked first, read one before the input loaders did."""
    d = GOLDEN_SPACING_DEG
    doc = copy.deepcopy(BASE_DOC)
    doc["demand"] = {"seed": 1, "file": "trips.csv", "bbox": [-0.1, -0.1, 0.1, 0.1]}
    cfg = setup_dir(tmp_path, doc)
    with open(os.path.join(str(tmp_path), "trips.csv"), "w") as fh:
        fh.write("medallion,pickup time,dropoff time,passenger count,"
                 "pickup log,pickup lat,dropoff log,dropoff lat\n"
                 f"m0,2013-01-05 12:00:00,2013-01-05 12:20:00,1,{d!r},0.0,{d!r},{d!r}\n")
    assert cli.main(["validate", "--config", cfg]) == 0
    plain = capsys.readouterr().out
    assert "ok demand: rows_read 1, rows_kept 1" in plain
    for name in ("config.yaml", "nodes.txt", "edges.txt", "zones.geojson", "trips.csv"):
        path = os.path.join(str(tmp_path), name)
        text = read(path)
        with open(path, "wb") as fh:
            fh.write(codecs.BOM_UTF8 + text)
        assert cli.main(["validate", "--config", cfg]) == 0, name
        assert capsys.readouterr().out == plain


def test_run_counts_agree_with_validate_and_the_event_log(tmp_path, capsys):
    # Two zones, the bottom and the top row of nodes, with the middle row
    # between them: pickups drawn over their box fall in the gap, and a call
    # whose vehicle is found only across it links the two zones.
    d = GOLDEN_SPACING_DEG
    doc = copy.deepcopy(BASE_DOC)
    doc["demand"]["generate"]["region"] = "bbox"
    cfg = setup_dir(tmp_path, doc)
    with open(os.path.join(str(tmp_path), "zones.geojson"), "w") as fh:
        json.dump({"type": "FeatureCollection", "features": [
            box_feature("bottom", -0.5 * d, 0.5 * d, -0.5 * d, 2.5 * d),
            box_feature("top", 1.5 * d, 2.5 * d, -0.5 * d, 2.5 * d)]}, fh)
    assert cli.main(["validate", "--config", cfg]) == 0
    stray = re.search(r"warning zones: (\d+) of \d+ pickups outside all zones",
                      capsys.readouterr().out)
    assert cli.main(["run", "--config", cfg]) == 0
    out = os.path.join(str(tmp_path), "out")
    counts = load_meta(out)["counts"]
    with open(os.path.join(out, "event_log.txt")) as fh:
        links = sum(1 for line in fh if line.split()[-1] == "adj=1")
    assert counts["zone_fallback_calls"] == int(stray.group(1)) > 0
    assert counts["adjacency_revision"] == links > 0


def test_validate_missing_input_file(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)
    doc["network"]["nodes"] = "absent.txt"
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "error network.nodes: no such file" in stderr_only(capsys)


def break_unknown_section(doc):
    doc["surplus"] = {"x": 1}


def break_demand_modes(doc):
    doc["demand"] = {"seed": 1, "file": "a.csv",
                     "generate": {"rate_per_hour": 1.0, "duration_s": 1.0}}


def break_strategy(doc):
    doc["dispatch"]["strategy"] = "XYZ"


def break_fleet_size(doc):
    doc["fleet"]["size"] = -2


def break_file_party_capacity(doc):
    doc["demand"] = {"seed": 1, "file": "trips.csv", "capacity": 4}
    doc["fleet"]["capacity"] = 3


def break_generated_party_capacity(doc):
    doc["demand"]["generate"]["party_probs"] = [0.5, 0.3, 0.0, 0.2]
    doc["fleet"]["capacity"] = 3


def break_bbox_inverted(doc):
    doc["demand"] = {"seed": 1, "file": "trips.csv", "bbox": [-73, 41, -74, 40]}


def break_snap_radius_nan(doc):
    doc["sim"] = {"snap_radius_m": float("nan")}


def break_threshold_nan(doc):
    doc["dispatch"]["oss_reassign_threshold_s"] = float("nan")


def break_speed_limit_inf(doc):
    doc["network"]["speed_limit_mps"] = float("inf")


def break_walk_step_zero(doc):
    doc["traffic"] = {"walk_seed": 3, "walk_step_s": 0}


def break_walk_sigma_negative(doc):
    doc["traffic"] = {"walk_seed": 3, "walk_sigma": -0.1}


def break_walk_step_without_seed(doc):
    doc["traffic"] = {"walk_step_s": 60.0}


def break_walk_sigma_without_seed(doc):
    doc["traffic"] = {"schedule": [[0.0, 1.2]], "walk_sigma": 0.5}


def break_zero_rate_party_probs(doc):
    doc["demand"]["generate"].update(rate_per_hour=0, party_probs=[-1, 2])


def break_zero_rate_patience(doc):
    doc["demand"]["generate"].update(rate_per_hour=0, patience_range=[5000, 10])


def break_fleet_key(doc):
    doc["fleet"]["capasity"] = 4


def break_dispatch_key(doc):
    doc["dispatch"]["oss_threshold_s"] = 30.0


def break_sim_key(doc):
    doc["sim"] = {"snap_radius": 500.0}


def break_traffic_key(doc):
    doc["traffic"] = {"walk_seed": 3, "walk_steps": 300.0}


def break_network_key(doc):
    doc["network"]["speed_limit"] = 10.0


def break_generate_key(doc):
    doc["demand"]["generate"]["duration"] = 60.0


def break_generated_bbox(doc):
    doc["demand"]["bbox"] = [-74, 40, -73, 41]


def break_generated_capacity(doc):
    doc["demand"]["capacity"] = 2


@pytest.mark.parametrize("mutate, message", [pytest.param(m, msg, id=m.__name__) for m, msg in (
    (break_unknown_section, "unknown sections"),
    (break_demand_modes, "exactly one of"),
    (break_strategy, "dispatch.strategy"),
    (break_fleet_size, "fleet.size"),
    (break_file_party_capacity, "demand.capacity 4 is more than fleet.capacity 3"),
    (break_generated_party_capacity,
     "demand.generate.party_probs gives parties of 4, more than fleet.capacity 3"),
    (break_bbox_inverted, "demand.bbox: expected lon_min < lon_max and lat_min < lat_max"),
    (break_snap_radius_nan, "sim.snap_radius_m: expected a finite number, got nan"),
    (break_threshold_nan,
     "dispatch.oss_reassign_threshold_s: expected a finite number, got nan"),
    (break_speed_limit_inf, "network.speed_limit_mps: expected a finite number, got inf"),
    (break_walk_step_zero, "traffic.walk_step_s must be positive, got 0.0"),
    (break_walk_sigma_negative, "traffic.walk_sigma must be >= 0, got -0.1"),
    (break_walk_step_without_seed,
     "traffic: ['walk_step_s'] apply to a walk only, and need 'walk_seed'"),
    (break_walk_sigma_without_seed,
     "traffic: ['walk_sigma'] apply to a walk only, and need 'walk_seed'"),
    (break_zero_rate_party_probs, "party_probs must be a distribution, got (-1.0, 2.0)"),
    (break_zero_rate_patience, "patience range (5000.0, 10.0) outside"),
    (break_fleet_key, "fleet: unknown keys ['capasity']"),
    (break_dispatch_key, "dispatch: unknown keys ['oss_threshold_s']"),
    (break_sim_key, "sim: unknown keys ['snap_radius']"),
    (break_traffic_key, "traffic: unknown keys ['walk_steps']"),
    (break_network_key, "network: unknown keys ['speed_limit']"),
    (break_generate_key, "demand.generate: unknown keys ['duration']"),
    (break_generated_bbox, "demand: ['bbox'] apply to a trip file only, not to 'generate'"),
    (break_generated_capacity,
     "demand: ['capacity'] apply to a trip file only, not to 'generate'"),
)])
def test_validate_rejects_bad_config(tmp_path, capsys, mutate, message):
    doc = copy.deepcopy(BASE_DOC)
    mutate(doc)
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error ") and message in err


def test_validate_names_unknown_keys_of_any_type(tmp_path, capsys):
    cfg = setup_dir(tmp_path)
    with open(cfg, "a") as fh:
        fh.write("1: {}\nsurplus: {}\n")
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "config root: unknown sections ['1', 'surplus']" in stderr_only(capsys)
    cfg = setup_dir(tmp_path)
    with open(cfg) as fh:
        text = fh.read()
    with open(cfg, "w") as fh:
        fh.write(text.replace("fleet:\n", "fleet:\n  2: 3\n  extra: 1\n"))
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "fleet: unknown keys ['2', 'extra']" in stderr_only(capsys)


def test_validate_rejects_malformed_zones(tmp_path, capsys):
    cfg = setup_dir(tmp_path)
    with open(os.path.join(str(tmp_path), "zones.geojson"), "w") as fh:
        json.dump({"type": "FeatureCollection", "features": [1]}, fh)
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "feature 0:" in stderr_only(capsys)


def test_validate_unreadable_yaml(tmp_path, capsys):
    write_golden_inputs(str(tmp_path))
    cfg = os.path.join(str(tmp_path), "config.yaml")
    with open(cfg, "w") as fh:
        fh.write("network: [unclosed\n")
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "not valid YAML" in capsys.readouterr().err


def test_run_outputs(tmp_path, capsys):
    cfg = setup_dir(tmp_path)
    assert cli.main(["run", "--config", cfg]) == 0
    out_dir = os.path.join(str(tmp_path), "out")
    for name in RUN_FILES:
        assert os.path.exists(os.path.join(out_dir, name)), name
    assert not os.path.exists(os.path.join(out_dir, "cleaning_report.txt"))

    line = capsys.readouterr().out.strip()
    m = re.fullmatch(r"run (.+): calls=(\d+) served=(\d+) r_ts=([\d.]+|NA) "
                     r"t_apw_min=([\d.]+|NA)", line)
    assert m and m.group(1) == out_dir

    meta = load_meta(out_dir)
    counts = meta["counts"]
    assert counts["requests"] == int(m.group(2))
    assert counts["picked_up"] == int(m.group(3))
    assert counts["picked_up"] + counts["abandoned"] + \
        sum(counts["rejected"].values()) == counts["requests"]
    assert meta["epoch"] is None
    assert meta["config"]["dispatch"] == {"strategy": "NSS", "eat": True,
                                          "oss_reassign_threshold_s": 60.0}

    records = read(os.path.join(out_dir, "call_records.txt")).decode().splitlines()
    assert len(records) == counts["requests"]
    log = read(os.path.join(out_dir, "event_log.txt")).decode().splitlines()
    assert log[0] == f"# amodsim {meta['config_hash']}"
    for pair in read(os.path.join(out_dir, "adjacency_final.txt")).decode().split():
        int(pair)


def test_run_is_byte_stable_across_copies(tmp_path):
    cfg_a = setup_dir(tmp_path / "a")
    cfg_b = setup_dir(tmp_path / "b")
    assert cli.main(["run", "--config", cfg_a]) == 0
    assert cli.main(["run", "--config", cfg_b]) == 0
    dir_a = os.path.join(str(tmp_path), "a", "out")
    dir_b = os.path.join(str(tmp_path), "b", "out")
    for name in RUN_FILES:
        assert read(os.path.join(dir_a, name)) == read(os.path.join(dir_b, name)), name


def test_run_out_override(tmp_path):
    cfg = setup_dir(tmp_path)
    custom = str(tmp_path / "elsewhere")
    assert cli.main(["run", "--config", cfg, "--out", custom]) == 0
    assert os.path.exists(os.path.join(custom, "metadata.json"))
    assert not os.path.exists(os.path.join(str(tmp_path), "out"))
    assert load_meta(custom)["config"]["out"] == custom


def test_seed_override_matches_explicit_seeds(tmp_path):
    """--seed-override N equals writing demand.seed=N, fleet.seed=N+1."""
    cfg_a = setup_dir(tmp_path / "a")
    doc = copy.deepcopy(BASE_DOC)
    doc["demand"]["seed"] = 123
    doc["fleet"]["seed"] = 124
    cfg_b = setup_dir(tmp_path / "b", doc)
    assert cli.main(["run", "--config", cfg_a, "--seed-override", "123"]) == 0
    assert cli.main(["run", "--config", cfg_b]) == 0
    dir_a = os.path.join(str(tmp_path), "a", "out")
    dir_b = os.path.join(str(tmp_path), "b", "out")
    assert read(os.path.join(dir_a, "event_log.txt")) == \
        read(os.path.join(dir_b, "event_log.txt"))
    assert read(os.path.join(dir_a, "call_records.txt")) == \
        read(os.path.join(dir_b, "call_records.txt"))

    cfg_c = setup_dir(tmp_path / "c")
    assert cli.main(["run", "--config", cfg_c]) == 0
    assert read(os.path.join(str(tmp_path), "c", "out", "call_records.txt")) != \
        read(os.path.join(dir_a, "call_records.txt"))


def test_run_engine_failure_exits_2(tmp_path, capsys, monkeypatch):
    cfg = setup_dir(tmp_path)

    def explode(*args, **kwargs):
        raise SimulationError("boom")

    monkeypatch.setattr(cli, "run", explode)
    assert cli.main(["run", "--config", cfg]) == 2
    assert "error boom" in stderr_only(capsys)


def run_pair(tmp_path):
    """One run with expansion, one without, same demand."""
    base = copy.deepcopy(BASE_DOC)
    base["out"] = "with"
    cfg = setup_dir(tmp_path, base, name="with.yaml")
    assert cli.main(["run", "--config", cfg]) == 0
    off = copy.deepcopy(BASE_DOC)
    off["dispatch"]["eat"] = False
    off["out"] = "without"
    cfg = setup_dir(tmp_path, off, name="without.yaml")
    assert cli.main(["run", "--config", cfg]) == 0
    return (os.path.join(str(tmp_path), "with"),
            os.path.join(str(tmp_path), "without"))


def test_compare_orients_on_expansion(tmp_path, capsys):
    dir_with, dir_without = run_pair(tmp_path)
    capsys.readouterr()
    assert cli.main(["compare", dir_without, dir_with]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the expansion run leads regardless of argument order
    assert lines[0] == f"with-expansion    NSS-EAT: {dir_with}"
    assert lines[1] == f"without-expansion NSS: {dir_without}"
    assert lines[2].split()[0] == "window"
    assert lines[3].split()[0] == "whole-run"

    assert cli.main(["compare", dir_with, dir_without]) == 0
    again = capsys.readouterr().out.splitlines()
    assert again == lines


def test_compare_rejects_different_demand(tmp_path, capsys):
    dir_with, _ = run_pair(tmp_path)
    other = copy.deepcopy(BASE_DOC)
    other["demand"]["seed"] = 99
    other["out"] = "reseeded"
    cfg = setup_dir(tmp_path, other, name="reseeded.yaml")
    assert cli.main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    code = cli.main(["compare", dir_with, os.path.join(str(tmp_path), "reseeded")])
    assert code == 3
    assert "not comparable" in stderr_only(capsys)


def test_compare_missing_run_dir(tmp_path, capsys):
    dir_with, _ = run_pair(tmp_path)
    assert cli.main(["compare", dir_with, os.path.join(str(tmp_path), "nope")]) == 1


def test_matrix_sweep_resume_and_plots(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)
    doc["out"] = "sweep"
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS,SSS"]) == 0
    out = capsys.readouterr().out
    root = os.path.join(str(tmp_path), "sweep")
    cells = ["nss-eat", "nss-base", "sss-eat", "sss-base"]
    for cell in cells:
        assert os.path.exists(os.path.join(root, cell, "metadata.json"))
    assert len(re.findall(r"^run ", out, re.M)) == 4
    assert "skip" not in out

    report = read(os.path.join(root, "combined_report.txt")).decode().splitlines()
    assert report[0].split()[0] == "window"
    assert [r.split()[0] for r in report[1:]] == ["NSS", "SSS"]
    for fname in ("plot_wait_daily.tsv", "plot_rate_daily.tsv"):
        table = read(os.path.join(root, fname)).decode().splitlines()
        assert table[0] == "\t".join(["day", *cells])
        assert len(table) >= 2
        assert table[1].split("\t")[0] == "0"

    # a finished sweep is all skips
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS,SSS"]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^skip .*: already complete$", out, re.M)) == 4
    assert not re.search(r"^run ", out, re.M)

    # a cell whose stored hash no longer matches is redone, alone
    with open(os.path.join(root, "nss-eat", "metadata.json"), "w") as fh:
        fh.write("{}\n")
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS,SSS"]) == 0
    out = capsys.readouterr().out
    assert len(re.findall(r"^run ", out, re.M)) == 1
    assert len(re.findall(r"^skip ", out, re.M)) == 3
    assert load_meta(os.path.join(root, "nss-eat"))["config_hash"]


def test_compare_names_the_file_and_line_of_a_bad_record(tmp_path, capsys):
    dir_with, dir_without = run_pair(tmp_path)
    broken = os.path.join(str(tmp_path), "broken")
    shutil.copytree(dir_without, broken)
    path = os.path.join(broken, "call_records.txt")
    with open(path) as fh:
        lines = fh.readlines()
    lines[2] = "garbage line\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert cli.main(["compare", dir_with, broken]) == 1
    assert stderr_only(capsys) == f"error {path}:3: bad call record line 'garbage line'\n"


def test_compare_names_metadata_of_the_wrong_shape(tmp_path, capsys):
    dir_with, dir_without = run_pair(tmp_path)
    meta_path = os.path.join(dir_without, "metadata.json")
    for text in ("{}\n", "[]\n", '{"config": 1}\n'):
        with open(meta_path, "w") as fh:
            fh.write(text)
        capsys.readouterr()
        assert cli.main(["compare", dir_with, dir_without]) == 1
        assert f"error {meta_path}: not the metadata of a finished run" in stderr_only(capsys)


def test_matrix_reruns_bad_metadata_and_names_bad_records(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)
    doc["out"] = "sweep"
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS"]) == 0
    cell = os.path.join(str(tmp_path), "sweep", "nss-base")
    with open(os.path.join(cell, "metadata.json"), "w") as fh:
        fh.write("[]\n")
    capsys.readouterr()
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^(run|skip) .*?(nss-\w+)", out, re.M) == [("skip", "nss-eat"),
                                                                 ("run", "nss-base")]
    assert load_meta(cell)["config_hash"]

    # a cell whose records cannot be read is named, and left out of the reports
    records = os.path.join(cell, "call_records.txt")
    with open(records) as fh:
        garbage_line = len(fh.readlines()) + 1
    with open(records, "a") as fh:
        fh.write("garbage\n")
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS"]) == 0
    assert f"error cell nss-base left out of the reports: {records}:{garbage_line}: " \
        "bad call record line 'garbage'" in stderr_only(capsys)


def test_matrix_rejects_unknown_strategy(tmp_path, capsys):
    cfg = setup_dir(tmp_path)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS,XXX"]) == 1
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("strategies, message", [("NSS,nss", "repeated ['NSS']"),
                                                 (",", "empty list")])
def test_matrix_rejects_strategy_list(tmp_path, capsys, strategies, message):
    doc = copy.deepcopy(BASE_DOC)
    doc["out"] = "sweep"
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["matrix", "--config", cfg, "--strategies", strategies]) == 1
    assert stderr_only(capsys) == f"error --strategies: {message}\n"
    assert not os.path.exists(os.path.join(str(tmp_path), "sweep"))


def test_matrix_whose_cells_all_fail_writes_no_report(tmp_path, capsys):
    doc = copy.deepcopy(BASE_DOC)
    doc["out"] = "sweep"
    doc["demand"] = {"seed": 1, "file": "absent.csv"}
    cfg = setup_dir(tmp_path, doc)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS"]) == 2
    cap = capsys.readouterr()
    assert re.findall(r"^cell (\S+) failed with exit 1$", cap.out, re.M) == \
        ["nss-eat", "nss-base"]
    assert len(re.findall(r"^error ", cap.err, re.M)) == 1  # the cells share one cause
    assert "left out of the reports" not in cap.err
    assert os.listdir(os.path.join(str(tmp_path), "sweep")) == []


def patchy_city(dirpath):
    """The golden grid with a one-way spur from node 8 to node 9, a strongly
    connected component of its own outside every zone, and a trip file
    with unparseable, unsnappable and cross-component rows. Returns the
    matrix config's document."""
    write_golden_inputs(str(dirpath))
    d = GOLDEN_SPACING_DEG
    with open(os.path.join(str(dirpath), "nodes.txt"), "a") as fh:
        fh.write(f"9 {2 * d!r} {3 * d!r}\n")
    with open(os.path.join(str(dirpath), "edges.txt"), "a") as fh:
        fh.write(f"8 9 {GOLDEN_EDGE_LEN_M} {GRID_SPEED_MPS}\n")
    points = [(r * d, c * d) for r in range(3) for c in range(3)] + [(2 * d, 3 * d)]
    points.append((0.5 * d, 0.5 * d))  # a grid cell's middle, beyond the snap radius
    rng = random.Random(5)
    rows = ["medallion,pickup time,dropoff time,passenger count,"
            "pickup log,pickup lat,dropoff log,dropoff lat",
            "m,2013-01-07 08:00:30,2013-01-07 08:10:00,x,0.0,0.0,0.0,0.0"]
    for k in range(60):
        a, b = rng.sample(range(len(points)), 2)
        t = 60 * k + rng.randrange(60)
        (plat, plon), (dlat, dlon) = points[a], points[b]
        rows.append(f"m,2013-01-07 08:{t // 60:02d}:{t % 60:02d},"
                    f"2013-01-07 09:{t // 60:02d}:{t % 60:02d},1,"
                    f"{plon!r},{plat!r},{dlon!r},{dlat!r}")
    with open(os.path.join(str(dirpath), "trips.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    doc = copy.deepcopy(BASE_DOC)
    doc.update(demand={"seed": 5, "file": "trips.csv", "bbox": [-0.01, -0.01, 0.02, 0.02]},
               fleet={"size": 4, "seed": 11}, sim={"snap_radius_m": 200.0},
               traffic={"schedule": [[900.0, 0.5], [2400.0, 1.25]], "walk_seed": 3,
                        "walk_step_s": 600.0, "walk_sigma": 0.1},
               out="sweep")
    return doc


def tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, f), root): read(os.path.join(d, f))
            for d, _, files in os.walk(root) for f in files}


def lone_runs(tmp_path, doc, names, capsys):
    """Each named cell of doc's matrix run alone by `run`, into the cell's
    own directory: its files, and its stdout lines."""
    files, lines = {}, []
    for name in names:
        strategy, variant = name.split("-")
        cell = copy.deepcopy(doc)
        cell["dispatch"] = {"strategy": strategy.upper(), "eat": variant == "eat"}
        cell["out"] = os.path.join(doc["out"], name)
        cfg = os.path.join(str(tmp_path), f"{name}.yaml")
        with open(cfg, "w") as fh:
            yaml.safe_dump(cell, fh)
        assert cli.main(["run", "--config", cfg]) == 0
        files[name] = tree(os.path.join(str(tmp_path), cell["out"]))
        lines += capsys.readouterr().out.splitlines()
    return files, lines


def test_matrix_cells_equal_lone_runs(tmp_path, capsys):
    doc = patchy_city(tmp_path)
    cfg = os.path.join(str(tmp_path), "config.yaml")
    with open(cfg, "w") as fh:
        yaml.safe_dump(doc, fh)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS,SSS,OSS"]) == 0
    out = capsys.readouterr().out.splitlines()
    root = os.path.join(str(tmp_path), "sweep")
    names = [f"{s}-{v}" for s in ("nss", "sss", "oss") for v in ("eat", "base")]
    matrix = {name: tree(os.path.join(root, name)) for name in names}
    shutil.rmtree(root)

    lone, lines = lone_runs(tmp_path, doc, names, capsys)
    assert [line for line in out if line.startswith("run ")] == lines
    for name in names:
        assert sorted(matrix[name]) == sorted([*RUN_FILES, "cleaning_report.txt"])
        assert matrix[name] == lone[name], name
    counts = json.loads(lone["nss-eat"]["metadata.json"])["counts"]
    assert counts["snap_failures"] > 0 and counts["rejected"]["unroutable"] > counts["snap_failures"]


def test_a_failing_cell_fails_alone(tmp_path, capsys, monkeypatch):
    doc = copy.deepcopy(BASE_DOC)
    doc["out"] = "sweep"
    cfg = setup_dir(tmp_path, doc)
    dispatch = engine.dispatch

    def fail_expansion(call, arrival, fleet, sched, node_zone, dispatch_cfg):
        if dispatch_cfg.eat_enabled:
            raise SimulationError("boom")
        return dispatch(call, arrival, fleet, sched, node_zone, dispatch_cfg)

    monkeypatch.setattr(engine, "dispatch", fail_expansion)
    assert cli.main(["matrix", "--config", cfg, "--strategies", "NSS"]) == 2
    cap = capsys.readouterr()
    assert re.findall(r"^(run|cell) .*?(nss-\w+)", cap.out, re.M) == [("cell", "nss-eat"),
                                                                    ("run", "nss-base")]
    assert "cell nss-eat failed with exit 2" in cap.out and "error boom" in cap.err
    root = os.path.join(str(tmp_path), "sweep")
    assert not os.path.exists(os.path.join(root, "nss-eat"))
    assert not os.path.exists(os.path.join(root, "combined_report.txt"))
    base = tree(os.path.join(root, "nss-base"))

    monkeypatch.undo()
    shutil.rmtree(root)
    lone, _ = lone_runs(tmp_path, doc, ["nss-base"], capsys)
    assert base == lone["nss-base"]


def test_run_from_trip_file(tmp_path, capsys):
    s = 400.0 / 111194.92664455873
    rows = [
        "medallion,pickup time,dropoff time,passenger count,"
        "pickup log,pickup lat,dropoff log,dropoff lat",
        # out of bounds, earlier than every kept row: must not set the epoch
        f"m0,2013-01-05 11:00:00,2013-01-05 11:30:00,1,50.0,{s!r},{2 * s!r},{2 * s!r}",
        f"m1,2013-01-05 12:00:00,2013-01-05 12:20:00,1,{s!r},{s!r},{2 * s!r},{2 * s!r}",
        f"m2,2013-01-05 12:05:00,2013-01-05 12:25:00,2,{2 * s!r},{s!r},{2 * s!r},{2 * s!r}",
    ]
    with open(os.path.join(str(tmp_path), "trips.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    doc = copy.deepcopy(BASE_DOC)
    doc["demand"] = {"seed": 5, "file": "trips.csv",
                     "bbox": [-0.01, -0.01, 0.01, 0.01]}
    cfg = setup_dir(tmp_path, doc)

    assert cli.main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "warning demand: 1 of 3 rows rejected" in out

    assert cli.main(["run", "--config", cfg]) == 0
    out_dir = os.path.join(str(tmp_path), "out")
    meta = load_meta(out_dir)
    assert meta["epoch"] == "2013-01-05 12:00:00"
    assert meta["counts"]["requests"] == 2
    report = read(os.path.join(out_dir, "cleaning_report.txt")).decode()
    assert "out-of-bounds" in report
