"""The public namespace: every exported name resolves, and none repeats."""

import graphlift


def test_every_export_resolves_once():
    names = graphlift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(graphlift, name)]
    assert not missing
