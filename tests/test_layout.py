"""Layout guard: fleet.py is the only module that changes vehicle state."""

import ast
import os

import amodsim

VEHICLE_FIELDS = {"plan", "queued", "node"}


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


def test_only_fleet_writes_vehicle_state():
    src_dir = os.path.dirname(amodsim.__file__)
    offenders = {}
    for name in sorted(os.listdir(src_dir)):
        if not name.endswith(".py") or name == "fleet.py":
            continue
        with open(os.path.join(src_dir, name), encoding="utf-8") as fh:
            writes = vehicle_state_writes(fh.read())
        if writes:
            offenders[name] = writes
    assert offenders == {}


def test_guard_sees_each_kind_of_write():
    for line in ("v.plan = None", "v.queued = plan", "self.fleet.vehicle(1).node = 3",
                 "v.status = VehicleStatus.IDLE", "v.plan, v.queued = v.queued, None",
                 "a.x, a.status = 1, VehicleStatus.ON_TRIP", "v.node += 1",
                 "setattr(v, 'status', s)", "setattr(v, name, s)"):
        assert vehicle_state_writes(line), line
    for line in ("st.status = RequestStatus.ASSIGNED", "node = v.node", "plan = v.plan",
                 "v.status is VehicleStatus.IDLE", "setattr(owner, 'run', probe)"):
        assert not vehicle_state_writes(line), line
