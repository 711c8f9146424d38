"""Every UPPER_CASE module-level name of the package is assigned in one
module only, so each tolerance and limit has one home and one value."""

import ast
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "minksub"
UPPER = re.compile(r"_?[A-Z][A-Z0-9_]*")


def assigned_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from assigned_names(elt)
    elif isinstance(target, ast.Starred):
        yield from assigned_names(target.value)


def module_constants(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.update(name for name in assigned_names(target)
                         if UPPER.fullmatch(name))
    return names


def test_each_constant_name_is_assigned_in_one_module():
    homes = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for name in module_constants(path):
            homes[name].append(path.name)
    assert "RANK_TOL" in homes and "EIG_TOL" in homes
    shared = {name: mods for name, mods in homes.items() if len(mods) > 1}
    assert not shared, f"assigned in more than one module: {shared}"
