"""The package's public surface."""

import hypermil


def test_every_exported_name_resolves():
    missing = [name for name in hypermil.__all__ if not hasattr(hypermil, name)]
    assert missing == []
    assert len(set(hypermil.__all__)) == len(hypermil.__all__)
