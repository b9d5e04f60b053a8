import qaoa_maxcut


def test_star_import_gives_exactly_the_exported_names():
    namespace: dict = {}
    exec("from qaoa_maxcut import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qaoa_maxcut.__all__)
