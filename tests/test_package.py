"""The package's public name list."""

import robustcut


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from robustcut import *", namespace)  # raises on a name that is gone
    assert len(set(robustcut.__all__)) == len(robustcut.__all__)
    assert all(name in namespace for name in robustcut.__all__)
