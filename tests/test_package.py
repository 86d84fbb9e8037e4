import types

import weakiv
from weakiv import data, distributions, errors, estimators, fstats, grouped_sim, weak_test


def test_package_exports_exactly_its_modules_public_names():
    """The package namespace holds every name in its modules' __all__ and no
    other public name, so a name removed from or added to one list shows."""
    modules = (data, distributions, errors, estimators, fstats, grouped_sim, weak_test)
    listed = [name for mod in modules for name in mod.__all__]
    public = {
        name for name, value in vars(weakiv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert public == set(listed)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(weakiv, name) is getattr(mod, name)
