import rampwalk


def test_every_exported_name_resolves():
    # a name left in __all__ after its object is gone makes the star import raise
    namespace = {}
    exec("from rampwalk import *", namespace)
    assert sorted(set(rampwalk.__all__)) == sorted(rampwalk.__all__)
    assert all(name in namespace for name in rampwalk.__all__)
