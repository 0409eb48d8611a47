"""Public surface of the package."""

import moqa


def test_all_names_resolve_once():
    names = moqa.__all__
    assert len(names) == len(set(names)), "duplicate names in moqa.__all__"
    assert [name for name in names if not hasattr(moqa, name)] == []
