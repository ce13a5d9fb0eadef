import hologate


def test_all_is_sorted_unique_and_every_name_resolves():
    # a stale entry breaks `from hologate import *` with an AttributeError
    names = hologate.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(hologate, name)
    namespace = {}
    exec("from hologate import *", namespace)
    assert set(names) <= namespace.keys()
