import opemu


def test_all_names_resolve_once():
    # a deleted symbol left in __all__ only breaks `from opemu import *`
    missing = [name for name in opemu.__all__ if not hasattr(opemu, name)]
    assert missing == []
    assert len(set(opemu.__all__)) == len(opemu.__all__)


def test_exports_map_to_defining_module():
    # a name mapped to a module that only re-imports it still resolves, so
    # only its __module__ shows the map is wrong
    wrong = [(name, module) for module, names in opemu._EXPORTS.items() for name in names
             if getattr(opemu, name).__module__ != f"opemu.{module}"]
    assert wrong == []
