import opemu


def test_all_names_resolve_once():
    # a deleted symbol left in __all__ only breaks `from opemu import *`
    missing = [name for name in opemu.__all__ if not hasattr(opemu, name)]
    assert missing == []
    assert len(set(opemu.__all__)) == len(opemu.__all__)
