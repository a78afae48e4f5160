import types

import hodgecert


def test_all_names_every_public_name_once():
    """__init__ re-exports each module's __all__; every public name appears once."""
    public = {
        name
        for name, value in vars(hodgecert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(hodgecert.__all__) == len(set(hodgecert.__all__))
    assert set(hodgecert.__all__) == public | {"__version__"}
