from __future__ import annotations

import forcing_lab


def test_public_names_resolve_once():
    names = forcing_lab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forcing_lab, name)]
    assert missing == []
