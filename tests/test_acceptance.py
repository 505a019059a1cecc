"""Acceptance suite: eight criteria, one verdict line each.

Each test measures its own runtime against the pinned budget and registers a
single PASS/FAIL line through acceptance_report; the conftest hook prints the
block after the run.
"""

import math
import random
from time import perf_counter

import reference_results as ref
from acceptance_report import record
from amodsim.demand import TripRequest, generate_demand
from amodsim.dispatch import Arrival, DispatchConfig, dispatch
from amodsim.fleet import (
    Fleet,
    Strategy,
    Vehicle,
    assign,
    candidate_pool,
    pick_up,
)
from amodsim.metrics import aggregate, improvement_pcts, whole_run
from amodsim.road import RouteQuery, TrafficState, route_astar
from amodsim.zones import AdjacencySchedule, Zone, ZoneMap, initial_adjacency
from scenario_tools import (
    DYADIC_MULTIPLIERS,
    GOLDEN_RECORD_LINES,
    GOLDEN_SPACING_DEG,
    box_polygon,
    copy_schedule,
    dijkstra_times,
    estimate_eta,
    golden_city,
    golden_fleet,
    golden_requests,
    grid_network,
    random_network,
    replay_check,
    run_one,
    run_pass,
    sign_test_p,
    tile_zones,
)

D = GOLDEN_SPACING_DEG
STRATEGIES = (Strategy.NSS, Strategy.SSS, Strategy.OSS)
SIGN_TEST_ALPHA = 0.05


# -- criterion 1: improvement-sheet arithmetic ----------------------------


def _adjacent_digit_swaps(value):
    """Every number reached from value (at two decimals) by swapping two
    adjacent digits; the decimal point stays where it is."""
    text = f"{value:.2f}"
    digits = [k for k, ch in enumerate(text) if ch.isdigit()]
    swaps = set()
    for a, b in zip(digits, digits[1:]):
        chars = list(text)
        chars[a], chars[b] = chars[b], chars[a]
        swaps.add(float("".join(chars)))
    swaps.discard(value)
    return swaps


def _errata_evidence():
    """(corrections, faults) for ref.ERRATA. Each erratum must carry its own
    evidence, so that none can hide a fault in the formula: a lost input is a
    copy of the next month's value in the same column, a correction undoes
    one adjacent-digit transposition, and together they touch exactly the
    cells pinned as not derivable from the verbatim sheet."""
    corrections, faults = [], []
    for (month, s, sheet, column), fixed in ref.ERRATA.items():
        i = ref.MONTHS.index(month)
        c = ref.COLUMNS.index(column)
        table = ref.SHEETS[sheet][s]
        transcribed = table[i][c]
        name = f"{month}/{s}/{sheet}/{column}"
        if fixed is None:
            # the next row must be a month: the year row is no copy source
            if i + 2 >= len(ref.MONTHS) or transcribed != table[i + 1][c]:
                faults.append(f"{name} marked lost but {transcribed} is no "
                              f"copy of the next month")
        elif fixed in _adjacent_digit_swaps(transcribed):
            corrections.append(f"{name} {transcribed}->{fixed}")
        else:
            faults.append(f"{name} {transcribed}->{fixed} is no "
                          f"adjacent-digit swap")
    touched = {key[:3] for key in ref.ERRATA}
    if touched != set(ref.PINNED_RECOMPUTED):
        faults.append(f"errata touch {sorted(touched)}, not the pinned cells "
                      f"{sorted(ref.PINNED_RECOMPUTED)}")
    return corrections, faults


def test_criterion_1_improvement_sheet_reproduction():
    t0 = perf_counter()
    # the three headline cells must reproduce exactly at 2 decimals
    assert round(improvement_pcts(6.27, 8.14, None, None)[0], 2) == 29.82
    assert round(improvement_pcts(None, None, 89.59, 83.22)[1], 2) == 7.65
    assert round(improvement_pcts(5.67, 8.49, None, None)[0], 2) == 49.74

    deviations, unchecked = [], []
    checked = 0
    for s in ref.STRATEGIES:
        for i, month in enumerate(ref.MONTHS):
            (w_wait, wo_wait), (w_rate, wo_rate) = ref.corrected_pairs(s, i)
            calc = improvement_pcts(w_wait, wo_wait, w_rate, wo_rate)
            stated = ref.IMPROVE_PCT[s][i]
            for kind, got, want in zip(("time", "rate"), calc, stated):
                if got is None:
                    unchecked.append(f"{month}/{s}/{kind}")
                    continue
                checked += 1
                if abs(got - want) > ref.TOLERANCE_PP:
                    deviations.append(f"{month}/{s}/{kind} stated {want} "
                                      f"recomputed {got:.2f}")
    corrections, faults = _errata_evidence()
    dt = perf_counter() - t0

    ok = not deviations and not faults and dt < 1.0
    detail = (f"{checked - len(deviations)}/{checked} checkable cells within "
              f"{ref.TOLERANCE_PP} pp of their own with/without columns; "
              f"{len(unchecked)} unchecked, inputs lost: {', '.join(unchecked)}; "
              f"corrected: {', '.join(corrections)}")
    if deviations:
        detail += ("; stated values not derivable from the inputs: "
                   + "; ".join(deviations))
    if faults:
        detail += "; errata without evidence: " + "; ".join(faults)
    detail += f" [{dt:.2f}s, budget 1s]"
    assert record(1, "improvement sheet arithmetic", ok, detail), detail


# -- criterion 2: A* against Dijkstra -------------------------------------


def test_criterion_2_routing_oracle_equivalence():
    t0 = perf_counter()
    rng = random.Random(20240202)
    n_graphs, n_pairs, mismatches = 0, 0, 0
    for _ in range(500):
        n = rng.randint(2, 200)
        net = random_network(rng, n, extra_edges=rng.randint(0, n))
        n_graphs += 1
        src = rng.choice(sorted(net.nodes))
        mult = rng.choice(DYADIC_MULTIPLIERS)
        traffic = TrafficState([(0.0, mult)])
        oracle = dijkstra_times(net, src, mult)
        targets = rng.sample(sorted(net.nodes), k=min(12, len(net.nodes)))
        for dst in targets:
            n_pairs += 1
            route = route_astar(net, src, dst, 0.0, traffic)
            if dst not in oracle:
                mismatches += route is not None
            elif route is None or route.total_time_s != oracle[dst]:
                mismatches += 1
    dt = perf_counter() - t0

    ok = mismatches == 0 and n_graphs >= 500 and dt < 30.0
    detail = (f"{n_graphs} graphs (2..200 nodes), {n_pairs} point queries, "
              f"{mismatches} mismatches at zero tolerance [{dt:.1f}s, budget 30s]")
    assert record(2, "A* equals Dijkstra exactly", ok, detail), detail


# -- criteria 3 and 4: dispatch against oracles ---------------------------


def random_city(rng, adjacency):
    """Grid city with box zones; adjacency 'full' or 'random'."""
    rows, cols = rng.randint(3, 6), rng.randint(3, 6)
    net = grid_network(rows, cols)
    zones = tile_zones(rows, cols, rng.randint(2, 3), rng.randint(2, 3), D)
    zm = ZoneMap(zones)
    ids = [z.id for z in zones]
    sched = AdjacencySchedule(ids)
    for i in ids:
        for j in ids:
            if i < j and (adjacency == "full" or rng.random() < 0.35):
                sched.add_neighbor(i, j)
    node_zone = {nid: zm.locate(net.nodes[nid]) for nid in net.nodes}
    return net, zm, sched, node_zone


def random_fleet(rng, net, now_s):
    nodes = sorted(net.nodes)
    vehicles = []
    for vid in range(rng.randint(1, 8)):
        v = Vehicle(vid, rng.choice(nodes))
        draw = rng.random()
        if draw >= 0.55:
            a = rng.choice(nodes)
            b = rng.choice([n for n in nodes if n != a])
            job = TripRequest(900 + vid, now_s, net.nodes[a],
                              net.nodes[b], 1, 3600.0)
            assign(v, job, route_astar(net, v.node, a, now_s),
                   RouteQuery(net, a, b, now_s), now_s)
            pick_up(v, job.id, now_s)
            if draw > 0.90:
                c = rng.choice([n for n in nodes if n != b])
                follow = TripRequest(950 + vid, now_s,
                                     net.nodes[b], net.nodes[c], 1, 3600.0)
                assign(v, follow, route_astar(net, b, b, now_s),
                       RouteQuery(net, b, c, now_s), now_s)
        vehicles.append(v)
    return Fleet(vehicles)


def random_call(rng, net, now_s):
    nodes = sorted(net.nodes)
    pickup = rng.choice(nodes)
    dropoff = rng.choice([n for n in nodes if n != pickup])
    return TripRequest(0, now_s, net.nodes[pickup],
                       net.nodes[dropoff], 1, 1800.0), pickup, dropoff


def random_traffic(rng):
    if rng.random() < 0.5:
        return None
    return TrafficState([(0.0, rng.choice(DYADIC_MULTIPLIERS))])


def test_criterion_3_expansion_matches_global_argmin():
    t0 = perf_counter()
    rng = random.Random(20240303)
    n_instances, n_checks, disagreements = 0, 0, 0
    while n_instances < 200:
        net, zm, sched, node_zone = random_city(rng, "full")
        fleet = random_fleet(rng, net, 0.0)
        call, pickup, dropoff = random_call(rng, net, 0.0)
        traffic = random_traffic(rng)
        n_instances += 1
        for strategy in STRATEGIES:
            n_checks += 1
            best_id, best_eta = None, math.inf
            for v in candidate_pool(fleet, strategy, call.party_size):
                eta = estimate_eta(v, pickup, net, traffic, 0.0)
                if eta is not None and eta < best_eta:
                    best_id, best_eta = v.id, eta
            cfg = DispatchConfig(strategy=strategy, eat_enabled=True)
            d = dispatch(call, Arrival(call, pickup, dropoff, zm, net, traffic), fleet, sched,
                         node_zone, cfg)
            if d.vehicle_id != best_id or d.adjacency_updated:
                disagreements += 1
    dt = perf_counter() - t0

    ok = disagreements == 0 and dt < 60.0
    detail = (f"{n_instances} fully-connected instances x 3 strategies "
              f"({n_checks} dispatches) against an exhaustive candidate scan, "
              f"{disagreements} disagreements [{dt:.1f}s, budget 60s]")
    assert record(3, "expansion dispatch equals global argmin-ETA", ok, detail), detail


def chain_city():
    """Three zones in a row, linked 0-1 and 1-2 only."""
    net = grid_network(1, 5)
    ranges = ((0, 0), (1, 3), (4, 4))
    zones = [Zone(k, box_polygon(-0.5 * D, 0.5 * D, (lo - 0.5) * D, (hi + 0.5) * D))
             for k, (lo, hi) in enumerate(ranges)]
    zm = ZoneMap(zones)
    sched = AdjacencySchedule([0, 1, 2])
    sched.add_neighbor(0, 1)
    sched.add_neighbor(1, 2)
    node_zone = {nid: next(k for k, (lo, hi) in enumerate(ranges)
                           if lo <= nid <= hi) for nid in net.nodes}
    return net, zm, sched, node_zone


def test_criterion_4_expansion_dominates_baseline():
    t0 = perf_counter()
    rng = random.Random(20240404)
    n_instances, base_assigned, eat_assigned, violations = 0, 0, 0, 0
    while n_instances < 200:
        net, zm, sched, node_zone = random_city(rng, "random")
        fleet = random_fleet(rng, net, 0.0)
        call, pickup, dropoff = random_call(rng, net, 0.0)
        traffic = random_traffic(rng)
        n_instances += 1
        for strategy in STRATEGIES:
            arrival = Arrival(call, pickup, dropoff, zm, net, traffic)
            base = dispatch(call, arrival, fleet, sched, node_zone,
                            DispatchConfig(strategy=strategy, eat_enabled=False))
            eat = dispatch(call, arrival, fleet, copy_schedule(sched), node_zone,
                           DispatchConfig(strategy=strategy, eat_enabled=True))
            base_assigned += base.assigned
            eat_assigned += eat.assigned
            if base.assigned and not eat.assigned:
                violations += 1

    # constructed chain: the only vehicle is two rings away from the call
    net, zm, sched, node_zone = chain_city()
    fleet = Fleet([Vehicle(0, 4)])
    call = TripRequest(0, 0.0, net.nodes[0], net.nodes[2], 1, 1800.0)
    arrival = Arrival(call, 0, 2, zm, net, None)
    base = dispatch(call, arrival, fleet, sched, node_zone, DispatchConfig(eat_enabled=False))
    eat = dispatch(call, arrival, fleet, copy_schedule(sched), node_zone,
                   DispatchConfig(eat_enabled=True))
    chain_ok = (not base.assigned and base.reject_reason == "no-vehicle"
                and eat.assigned and eat.vehicle_id == 0)
    dt = perf_counter() - t0

    ok = violations == 0 and chain_ok
    detail = (f"{n_instances} arbitrary-adjacency instances x 3 strategies: "
              f"baseline assigned {base_assigned}, expansion assigned "
              f"{eat_assigned}, {violations} dominance violations; 3-zone chain "
              f"baseline={'Assign' if base.assigned else 'Reject'} "
              f"expansion={'Assign' if eat.assigned else 'Reject'} [{dt:.1f}s]")
    assert record(4, "baseline assignment implies expansion assignment", ok,
                  detail), detail


# -- criterion 5: directional desk-scale experiment -----------------------

CITY_ROWS = 20
CITY_ZONE_SPLIT = 3
FLEET_SIZE = 30
DEMAND_RATE_PER_H = 80.0
DEMAND_DURATION_S = 5400.0
PATIENCE_RANGE = (60.0, 1800.0)
TRAFFIC_STEPS = ((1800.0, 1.25), (3600.0, 0.8))
REPLICATIONS = 30


def desk_city_zones():
    return ZoneMap(tile_zones(CITY_ROWS, CITY_ROWS, CITY_ZONE_SPLIT,
                              CITY_ZONE_SPLIT, D))


def desk_pass(net, requests, fleet_seed):
    """One replication: every strategy with and without expansion, run in
    one pass from one fleet seed; (mean wait, served rate) by (strategy, eat)."""
    zm = desk_city_zones()
    keys = [(s, eat) for s in STRATEGIES for eat in (True, False)]
    cells = [(Fleet.place_uniform(net, FLEET_SIZE, fleet_seed), initial_adjacency(zm),
              DispatchConfig(strategy=s, eat_enabled=eat)) for s, eat in keys]
    results = run_pass(list(requests), cells, net, zm, TrafficState(list(TRAFFIC_STEPS)))
    wholes = [whole_run(result.records) for result in results]
    return {key: (whole.t_apw_s, whole.r_ts) for key, whole in zip(keys, wholes)}


def test_criterion_5_directional_desk_experiment():
    t0 = perf_counter()
    net = grid_network(CITY_ROWS, CITY_ROWS)
    pairs = {s: {"wait": [], "rate": []} for s in STRATEGIES}
    for k in range(REPLICATIONS):
        zm = desk_city_zones()
        requests = generate_demand(DEMAND_RATE_PER_H, DEMAND_DURATION_S, zm.bbox(),
                                   zone_map=zm, seed=1000 + k,
                                   patience_range=PATIENCE_RANGE)
        cells = desk_pass(net, requests, 2000 + k)
        for s in STRATEGIES:
            with_eat, without = cells[s, True], cells[s, False]
            pairs[s]["wait"].append((with_eat[0], without[0]))
            pairs[s]["rate"].append((with_eat[1], without[1]))
    dt = perf_counter() - t0

    ok = dt < 600.0
    parts = []
    for s in STRATEGIES:
        w = pairs[s]["wait"]
        r = pairs[s]["rate"]
        mean_w_eat = sum(a for a, _ in w) / len(w)
        mean_w_base = sum(b for _, b in w) / len(w)
        mean_r_eat = sum(a for a, _ in r) / len(r)
        mean_r_base = sum(b for _, b in r) / len(r)
        w_wins = sum(1 for a, b in w if a < b)
        w_trials = sum(1 for a, b in w if a != b)
        r_wins = sum(1 for a, b in r if a > b)
        r_trials = sum(1 for a, b in r if a != b)
        p_wait = sign_test_p(w_wins, w_trials) if w_trials else 1.0
        p_rate = sign_test_p(r_wins, r_trials) if r_trials else 1.0
        ok = ok and mean_w_eat <= mean_w_base and mean_r_eat >= mean_r_base \
            and p_wait <= SIGN_TEST_ALPHA and p_rate <= SIGN_TEST_ALPHA
        parts.append(f"{s.value} wait {mean_w_eat:.0f}s<= {mean_w_base:.0f}s "
                     f"({w_wins}/{w_trials}, p={p_wait:.2g}), rate "
                     f"{mean_r_eat:.3f}>={mean_r_base:.3f} "
                     f"({r_wins}/{r_trials}, p={p_rate:.2g})")
    detail = (f"{REPLICATIONS} matched replications, {CITY_ROWS}x{CITY_ROWS} grid, "
              f"{CITY_ZONE_SPLIT * CITY_ZONE_SPLIT} zones, {FLEET_SIZE} vehicles: "
              + "; ".join(parts) + f" [{dt:.0f}s, budget 600s]")
    assert record(5, "expansion improves both metrics directionally", ok,
                  detail), detail


# -- criterion 6: determinism ----------------------------------------------


def determinism_run():
    net = grid_network(CITY_ROWS, CITY_ROWS)
    zm = desk_city_zones()
    sched = initial_adjacency(zm)
    requests = generate_demand(DEMAND_RATE_PER_H, 3600.0, zm.bbox(), zone_map=zm,
                               seed=71, patience_range=PATIENCE_RANGE)
    fleet = Fleet.place_uniform(net, FLEET_SIZE, 72)
    traffic = TrafficState.build([(600.0, 1.25)], walk_seed=73,
                                 walk_step_s=300.0, walk_sigma=0.1,
                                 horizon_s=3600.0)
    cfg = DispatchConfig(strategy=Strategy.SSS, eat_enabled=True)
    return run_one(requests, fleet, net, zm, sched, traffic, cfg)


def test_criterion_6_seeded_runs_are_byte_identical():
    t0 = perf_counter()
    a = determinism_run()
    b = determinism_run()
    records_equal = "\n".join(a.record_lines()).encode() == \
        "\n".join(b.record_lines()).encode()
    log_equal = a.event_log == b.event_log
    replay = replay_check(a.event_log, b.event_log)
    dt = perf_counter() - t0

    ok = records_equal and log_equal and replay.ok and not replay.diffs
    detail = (f"two runs of one seeded config: {len(a.records)} call records "
              f"byte-identical={records_equal}, {len(a.event_log)} log lines "
              f"identical={log_equal}, replay_check ok={replay.ok} [{dt:.1f}s]")
    assert record(6, "seeded rerun is byte-identical", ok, detail), detail


# -- criterion 7: metrics invariants ---------------------------------------


def test_criterion_7_metrics_invariants():
    t0 = perf_counter()
    net = grid_network(6, 6)
    traffic_steps = [(21600.0, 0.5), (86400.0, 2.0), (172800.0, 1.0)]
    n_runs, n_records = 0, 0
    for i in range(100):
        zm = ZoneMap(tile_zones(6, 6, 2, 2, D))
        sched = initial_adjacency(zm)
        strategy = STRATEGIES[i % 3]
        eat = (i // 3) % 2 == 0
        requests = generate_demand(3.0, 216000.0, zm.bbox(), zone_map=zm, seed=5000 + i)
        fleet = Fleet.place_uniform(net, 6, seed=6000 + i)
        cfg = DispatchConfig(strategy=strategy, eat_enabled=eat)
        result = run_one(list(requests), fleet, net, zm, sched,
                         TrafficState(traffic_steps), cfg)
        n_runs += 1
        n_records += len(result.records)

        # conservation: exactly one record per request
        assert len(result.records) == len(requests)
        assert sorted(r.request_id for r in result.records) == \
            [q.id for q in requests]

        by_id = {q.id: q for q in requests}
        for rec in result.records:
            if rec.outcome == "PICKED_UP":
                wait = rec.pickup_time_s - rec.request_time_s
                assert 0.0 <= wait <= by_id[rec.request_id].patience_s

        whole = whole_run(result.records)
        days = aggregate(result.records)
        if whole.r_ts is not None:
            assert 0.0 <= whole.r_ts <= 1.0
        for day in days:
            if day.r_ts is not None:
                assert 0.0 <= day.r_ts <= 1.0
        # partition additivity, exact
        assert sum(day.n_calls for day in days) == whole.n_calls
        assert sum(day.n_success for day in days) == whole.n_success
        assert math.fsum(day.sum_wait_s for day in days) == whole.sum_wait_s
    dt = perf_counter() - t0

    ok = n_runs == 100 and dt < 300.0
    detail = (f"{n_runs} seeded runs ({n_records} call records): conservation, "
              f"wait<=patience, r_ts bounds, exact daily/whole-run additivity "
              f"all held [{dt:.1f}s, budget 300s]")
    assert record(7, "metrics invariants over 100 seeded runs", ok, detail), detail


# -- criterion 8: golden scenario ------------------------------------------


def test_criterion_8_golden_scenario_regression():
    t0 = perf_counter()
    net, zm, sched = golden_city()
    cfg = DispatchConfig(strategy=Strategy.NSS, eat_enabled=True)
    result = run_one(golden_requests(), golden_fleet(), net, zm, sched, None, cfg)
    lines = tuple(result.record_lines())
    dt = perf_counter() - t0

    ok = lines == GOLDEN_RECORD_LINES
    n_match = sum(1 for got, want in zip(lines, GOLDEN_RECORD_LINES)
                  if got == want)
    detail = (f"{n_match}/{len(GOLDEN_RECORD_LINES)} stored record lines "
              f"reproduced exactly [{dt:.2f}s]")
    assert record(8, "golden scenario regression", ok, detail), detail
