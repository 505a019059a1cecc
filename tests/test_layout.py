"""Layout guards: each fact has one owner.

fleet.py is the only module that changes vehicle state, records a vehicle's
status changes, reads a vehicle's queued job or writes the fleet's index of
the vehicles that may take a job; inside it, one function writes a
vehicle's status. engine.py writes a request's CallRecord in one
method, when the request ends. road.py computes every edge time, in one
method, because routes and searches are exact only while they all read the
same floats. The package searches a route in three places: a trip query,
road.RouteQuery; a ranked vehicle's pickup leg, which passes the ranking's
own reverse search to bound and prune the route search; and OSS's re-route
of an incumbent's leg. A dropped search, or a route search added elsewhere,
slows the program and moves no output, so nothing else would see it.
"""

import ast
import os

import amodsim

VEHICLE_FIELDS = {"plan", "queued", "node", "transitions"}


def _targets(node: ast.AST) -> list[tuple[ast.expr, ast.expr | None]]:
    """(target, assigned value or None) for every target an assignment writes."""
    if isinstance(node, ast.Assign):
        pairs = [(t, node.value) for t in node.targets]
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pairs = [(node.target, node.value)]
    else:
        return []
    out = []
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            values = [None] * len(target.elts)
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(values):
                values = value.elts
            pairs.extend(zip(target.elts, values))
        else:
            out.append((target, value))
    return out


def _is_status_member(value: ast.expr | None) -> bool:
    return isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) \
        and value.value.id == "VehicleStatus"


def _names_other_field(call: ast.Call) -> bool:
    """setattr with a literal name that is none of the vehicle's state fields."""
    name = call.args[1] if len(call.args) > 1 else None
    return isinstance(name, ast.Constant) and name.value not in VEHICLE_FIELDS | {"status"}


def vehicle_state_writes(source: str) -> list[str]:
    """Lines of source that write a vehicle's plan, queued job, node or status."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for target, value in _targets(node):
            if isinstance(target, ast.Attribute) and (
                    target.attr in VEHICLE_FIELDS or _is_status_member(value)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "setattr" and not _names_other_field(node):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def transition_appends(source: str) -> list[str]:
    """Lines of source that add to some object's transitions list."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("append", "extend", "insert") \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "transitions":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def queued_reads(source: str) -> list[str]:
    """Lines of source that read a vehicle's queued job."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "queued" \
                and isinstance(node.ctx, ast.Load):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "queued":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


# Fleet's index, its idle counts and its on-trip vehicles' zone spans.
# Vehicle.fleet, the back reference, is left out: other modules name their
# own fleets `fleet`.
INDEX_FIELDS = {"idle_at", "on_trip", "_idle_counts", "_idle_moves", "_zoned_by",
                "_trips_by", "_trip_zone"}
MUTATORS = {"__setitem__", "__delitem__", "add", "append", "clear", "discard", "extend",
            "insert", "pop", "popitem", "remove", "setdefault", "update"}
# Functions that write the heap they are given first.
HEAP_WRITERS = {"heapify", "heappop", "heappush", "heappushpop", "heapreplace"}


def _reaches_index(node: ast.expr) -> bool:
    """Whether node is an index field, or an item or attribute of one."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in INDEX_FIELDS:
            return True
        node = node.value
    return False


def index_writes(source: str) -> list[str]:
    """Lines of source that write the fleet's index: an assignment to or a
    deletion of an index field or an item of one, a call of a mutating
    method on one or of a heapq function on one, or a setattr or delattr of
    one by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        targets = [t for t, _ in _targets(node)]
        if isinstance(node, ast.Delete):
            targets = node.targets
        hit = any(_reaches_index(t) for t in targets)
        if isinstance(node, ast.Call):
            func = node.func
            hit = isinstance(func, ast.Attribute) and func.attr in MUTATORS \
                and _reaches_index(func.value) \
                or isinstance(func, ast.Name) and func.id in ("setattr", "delattr") \
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in INDEX_FIELDS \
                or getattr(func, "attr", getattr(func, "id", None)) in HEAP_WRITERS \
                and len(node.args) > 0 and _reaches_index(node.args[0])
        if hit:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def owned_hits(source: str, hit) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every node of source that hit(node) accepts."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def call_record_builds(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every CallRecord(...) call in source."""
    return owned_hits(source, lambda node: isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "CallRecord")


def status_writes(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every assignment to some object's status."""
    return owned_hits(source, lambda node: any(
        isinstance(target, ast.Attribute) and target.attr == "status"
        for target, _ in _targets(node)))


def _mentions_speed(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and "speed" in n.id
               or isinstance(n, ast.Attribute) and "speed" in n.attr for n in ast.walk(node))


def edge_time_divisions(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every division by a speed or by a
    product with one: the shape of an edge time, length / (speed * mult)."""
    return owned_hits(source, lambda node: isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.Div) and _mentions_speed(node.right))


def route_searches(source: str) -> list[tuple[str | None, str | None]]:
    """(enclosing function, `search` argument or None) of every route_astar
    call in source; `search` may be passed by keyword or sixth."""
    calls: list[ast.Call] = []

    def hit(node: ast.AST) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "route_astar":
            calls.append(node)
            return True
        return False

    def search_arg(call: ast.Call) -> str | None:
        args = call.args[5:6] + [kw.value for kw in call.keywords if kw.arg == "search"]
        return ast.unparse(args[0]) if args else None

    owners = owned_hits(source, hit)
    return [(owner, search_arg(call)) for (owner, _), call in zip(owners, calls)]


def src_modules():
    """(file name, source) of every module of the package."""
    src_dir = os.path.dirname(amodsim.__file__)
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
                yield name, fh.read()


def offenders(find) -> dict[str, list[str]]:
    """find's hits in every module but fleet.py."""
    return {name: hits for name, source in src_modules()
            if name != "fleet.py" and (hits := find(source))}


def test_only_fleet_writes_vehicle_state():
    assert offenders(vehicle_state_writes) == {}


def test_only_fleet_records_transitions():
    assert offenders(transition_appends) == {}


def test_one_fleet_function_writes_vehicle_status():
    owners = {owner for owner, _ in status_writes(dict(src_modules())["fleet.py"])}
    assert owners == {"__init__", "_set_status"}  # Vehicle.__init__ sets the first status


def test_only_fleet_reads_queued_jobs():
    assert offenders(queued_reads) == {}


def test_only_fleet_writes_the_idle_index():
    assert offenders(index_writes) == {}


def test_index_guard_sees_a_write_planted_elsewhere():
    modules = dict(src_modules())
    modules["dispatch.py"] += ("\n\ndef take(fleet, node, v):\n    fleet.idle_at[node].remove(v)\n"
                               "    fleet._trip_zone.pop(v.id)\n")
    last = modules["dispatch.py"].count("\n")
    assert index_writes(modules["dispatch.py"]) == [
        "line %d: fleet.idle_at[node].remove(v)" % (last - 1),
        "line %d: fleet._trip_zone.pop(v.id)" % last]
    for line in ("fleet.idle_at[3] = {}", "self._fleet.on_trip[n] = v", "f.on_trip = {}",
                 "fleet.idle_at.setdefault(n, []).append(v)", "fleet.idle_at[n].pop()",
                 "del self.on_trip[v.id]", "fleet.on_trip.clear()", "x._idle_moves[k] = 0",
                 "setattr(fleet, 'idle_at', {})", "a, fleet.on_trip[1] = 1, v",
                 "fleet._trip_zone[v.id] = (z, lo, hi)", "del f._trip_zone[n]",
                 "heapq.heappush(fleet.idle_at[n], v)", "heappop(self.idle_at[n])",
                 "fleet._trips_by = zones"):
        assert index_writes(line), line
    for line in ("here = fleet.idle_at.get(node)", "idle_at[n] = 1", "self.fleet = fleet",
                 "n = len(fleet.on_trip)", "waiting.pop(node, ())", "x = fleet.on_trip[n]",
                 "setattr(v, 'fleet', f)", "heapq.heappush(heap, item)",
                 "zone = fleet._trip_zone[v.id][0]"):
        assert not index_writes(line), line


def test_engine_writes_call_records_in_one_method():
    source = dict(src_modules())["engine.py"]
    builds = [owner for owner, _ in call_record_builds(source) if owner != "parse_record_line"]
    assert builds == ["end"]


def edge_time_owners(modules: dict[str, str]) -> dict[str, set[str | None]]:
    """The functions of each module that compute an edge time."""
    return {name: {owner for owner, _ in hits} for name, source in modules.items()
            if (hits := edge_time_divisions(source))}


def test_only_road_computes_edge_times():
    assert edge_time_owners(dict(src_modules())) == {"road.py": {"edge_times"}}


def route_search_owners(modules: dict[str, str]) -> dict[str, list[tuple[str | None, str | None]]]:
    """The route searches of each module that makes one, as route_searches
    lists them, sorted."""
    return {name: sorted(hits, key=str) for name, source in modules.items()
            if (hits := route_searches(source))}


def test_dispatch_bounds_every_route_search_but_a_new_trip():
    """A trip is searched by its query alone (`RouteQuery.route`); dispatch
    searches only a vehicle's pickup leg, ranked (`_EtaRanking.leg`) or the
    incumbent's that OSS re-routes (`oss_reschedule`), never a trip."""
    owners = {name: {owner for owner, _ in hits}
              for name, hits in route_search_owners(dict(src_modules())).items()}
    assert owners == {"dispatch.py": {"leg", "oss_reschedule"}, "road.py": {"route"}}


def test_ranked_pickup_legs_are_pruned_by_the_ranking_search():
    """A ranked vehicle's leg (`_EtaRanking.leg`) passes the search that
    ranked it; only OSS's re-route of the incumbent's leg, bounded by its
    own great-circle and landmark bounds, passes none."""
    assert route_search_owners(dict(src_modules()))["dispatch.py"] == [
        ("leg", "search"), ("oss_reschedule", None)]


def test_bound_guard_sees_a_dropped_bound():
    """The guard sees a ranked leg that drops its search, the bound it is
    given, and a route search planted in another function."""
    modules = dict(src_modules())
    want = route_search_owners(modules)
    dropped = dict(modules, **{"dispatch.py": modules["dispatch.py"].replace(
        ",\n                               search=search)", ")")})
    assert route_search_owners(dropped)["dispatch.py"] == [("leg", None),
                                                           ("oss_reschedule", None)]
    planted = dict(modules, **{"engine.py": modules["engine.py"] + (
        "\n\ndef trip(net, a, b, t):\n    return road.route_astar(net, a, b, t)\n")})
    assert route_search_owners(planted) == {**want, "engine.py": [("trip", None)]}


def test_pickup_leg_guard_sees_a_dropped_search():
    source = ("def leg(self, net, a, b, t, tr):\n"
              "    road.route_astar(net, a, b, t, tr, search=self.search)\n"
              "    road.route_astar(net, b, dropoff_node, t, tr)\n"
              "    return route_astar(net, a, b, t, tr, s)\n")
    assert route_searches(source) == [("leg", "self.search"), ("leg", None), ("leg", "s")]


def test_edge_time_guard_sees_a_division_planted_elsewhere():
    modules = dict(src_modules())
    modules["dispatch.py"] += "\n\ndef leg_time(e, mult):\n    return e.length / (e.speed * mult)\n"
    assert edge_time_owners(modules)["dispatch.py"] == {"leg_time"}
    for line in ("hop = length / (speed * mult)", "t = length / speed",
                 "t = d / (mult * v.speed_mps)", "t = d / (speed[k] * mult)"):
        assert edge_time_divisions(line), line
    for line in ("denom = net.speed_limit_mps * m", "b = dist / denom", "x = a / (b * c)",
                 "speed = length / 2.0"):
        assert not edge_time_divisions(line), line


def test_guard_sees_each_kind_of_write():
    for line in ("v.plan = None", "v.queued = plan", "self.fleet.vehicle(1).node = 3",
                 "v.status = VehicleStatus.IDLE", "v.plan, v.queued = v.queued, None",
                 "a.x, a.status = 1, VehicleStatus.ON_TRIP", "v.node += 1",
                 "setattr(v, 'status', s)", "setattr(v, name, s)",
                 "self.transitions: list[Transition] = []", "v.transitions += more"):
        assert vehicle_state_writes(line), line
    for line in ("st.status = RequestStatus.ASSIGNED", "node = v.node", "plan = v.plan",
                 "v.status is VehicleStatus.IDLE", "setattr(owner, 'run', probe)"):
        assert not vehicle_state_writes(line), line


def test_transition_guard_sees_each_kind_of_append():
    for line in ("self.transitions.append(Transition(self.now, v.id, src, v.status))",
                 "fleet.vehicle(1).transitions.append(t)", "v.transitions.extend(trace)"):
        assert transition_appends(line), line
    for line in ("transitions.append(t)", "trace.append(t)", "n = len(v.transitions)"):
        assert not transition_appends(line), line


def test_status_guard_sees_each_owner():
    source = "def f(v, s):\n    v.status = s\n\ndef g(v):\n    v.a, v.status = 1, s\n"
    assert status_writes(source) == [("f", 2), ("g", 5)]
    assert status_writes("v.status is s\nst = v.status\n") == []


def test_queued_guard_sees_each_kind_of_read():
    for line in ("v.queued is None", "last = v.queued or v.plan", "f(fleet.vehicle(1).queued)",
                 "getattr(v, 'queued')"):
        assert queued_reads(line), line
    for line in ("v.queued = None", "queued = 1", "v.queue", "getattr(v, 'plan')"):
        assert not queued_reads(line), line


# The end of the run loop before records were written as requests ended: one
# CallRecord per outcome, built from state kept to the end.
EARLIER_RUN_END = """
class _Simulation:
    def run(self):
        records = []
        for r in self.requests:
            st = self.states[r.id]
            if st.status is RequestStatus.COMPLETED:
                records.append(CallRecord(r.id, r.request_time_s, OUTCOME_PICKED_UP,
                                          st.pickup_time_s, st.dropoff_time_s, st.vehicle_id))
            elif st.status is RequestStatus.REJECTED:
                records.append(CallRecord(r.id, r.request_time_s, OUTCOME_REJECTED,
                                          reject_reason=st.reject_reason))
            elif st.status is RequestStatus.ABANDONED:
                records.append(CallRecord(r.id, r.request_time_s, OUTCOME_ABANDONED,
                                          abandon_time_s=st.abandon_time_s))
"""


def test_call_record_guard_sees_builds_outside_the_one_method():
    assert [owner for owner, _ in call_record_builds(EARLIER_RUN_END)] == ["run"] * 3
    assert call_record_builds("rec = CallRecord(1, 0.0, 'REJECTED')") == [(None, 1)]
    nested = "def end(self):\n    def late():\n        return CallRecord(1)\n"
    assert call_record_builds(nested) == [("late", 3)]
