"""The package namespace: every exported name resolves."""

import hardyops


def test_all_names_resolve():
    assert sorted(set(hardyops.__all__)) == sorted(hardyops.__all__)
    missing = [name for name in hardyops.__all__ if not hasattr(hardyops, name)]
    assert missing == []
