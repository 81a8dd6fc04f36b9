"""The public namespace: every exported name resolves, none repeats, and the
README's removed names stay removed."""

import importlib
import pkgutil
import re
from pathlib import Path

import graphlift

README = Path(__file__).resolve().parent.parent / "README.md"


def removed_names() -> list[str]:
    """The backticked names before each "Removed public names" bullet's first
    colon, leaving out the module names in parentheses."""
    lines = README.read_text().split("Removed public names:\n", 1)[1].splitlines()
    bullets = []
    for line in lines[1:]:  # a blank line follows the heading
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
        else:
            break
    names = []
    for bullet in bullets:
        head = re.sub(r"\([^)]*\)", "", bullet.split(":", 1)[0])
        names += re.findall(r"`([^`]+)`", head)
    return names


def test_every_export_resolves_once():
    names = graphlift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphlift, name)]
    assert not missing


def test_removed_names_are_gone():
    names = removed_names()
    assert "power_graph" in names and "PythagoreanModule.offsets" in names
    submodules = [importlib.import_module(f"graphlift.{m.name}")
                  for m in pkgutil.iter_modules(graphlift.__path__)]
    for name in names:
        if "." in name:
            owner, attr = name.split(".")
            cls = getattr(graphlift, owner)
            assert not hasattr(cls, attr), name
            assert attr not in getattr(cls, "__dataclass_fields__", {}), name
        else:
            assert name not in graphlift.__all__, name
            assert not any(hasattr(module, name) for module in submodules), name
