import divergia


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from divergia import *", namespace)
    assert len(set(divergia.__all__)) == len(divergia.__all__)
    for name in divergia.__all__:
        assert namespace[name] is getattr(divergia, name)
