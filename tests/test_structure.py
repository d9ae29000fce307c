"""Module boundaries: no wavecorr module reaches into another's private names,
every name a module exports exists, and the README lists every config key."""

import ast
import importlib
import re
from pathlib import Path

from wavecorr import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wavecorr"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """`file:line name` for every private name taken from another wavecorr module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.split(".")[0] != "wavecorr":
                continue
            for alias in node.names:
                if _is_private(alias.name) or any(map(_is_private, source.split("."))):
                    found.append(f"{path.name}:{node.lineno} {source}.{alias.name}")
                elif not source or source == "wavecorr":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wavecorr" and any(
                        map(_is_private, alias.name.split("."))):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_private_names_across_modules():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    found = [use for path in files for use in private_uses(path)]
    assert found == []


def test_checker_sees_function_level_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import solver as s\n"
                     "def f():\n"
                     "    from .picard import _helper\n"
                     "    return s._transform\n", encoding="utf-8")
    found = private_uses(probe)
    assert [use.split(" ")[1] for use in found] == ["picard._helper", "s._transform"]


def test_every_exported_name_resolves():
    # tools that walk `__all__` (the benchmark's tracer among them) call
    # getattr for each entry, so a stale name would crash them
    stale = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"wavecorr.{path.stem}")
        assert module.__all__, path.name
        stale += [f"{path.stem}.{name}" for name in module.__all__
                  if not hasattr(module, name)]
    assert stale == []


def test_readme_lists_every_config_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"with dotted\s+keys — (.*?) — and any key", readme, re.S)
    assert listing is not None
    assert re.findall(r"`([^`]+)`", listing.group(1)) == list(cli.KEYS)
