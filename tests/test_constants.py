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


def pencil_names(path):
    """The names a module takes from pencil.py: attributes of the module
    imported as a whole, and names imported from it."""
    tree = ast.parse(path.read_text())
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "pencil":
                    aliases.add(alias.asname or alias.name)
                elif (node.module or "").split(".")[-1] == "pencil":
                    names.add(alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name.endswith(".pencil") and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return aliases, names


def test_invariants_takes_no_counting_internals_from_pencil():
    # every inertia count, threshold and certificate of the point type
    # lives in pencil.py; invariants.py only dispatches to it
    aliases, names = pencil_names(SRC / "invariants.py")
    assert aliases and "pencil_type" in names
    counting = {"EIG_TOL", "COUNT_MARGIN", "SCREEN_MIN_MEMBERS"}
    assert not {n for n in names if n.startswith("_") or n in counting}
