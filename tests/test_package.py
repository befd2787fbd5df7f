import hbvm
from hbvm import integrator, legendre, problems, spectral, tableau


def test_top_level_exports_every_module_all():
    modules = (legendre, tableau, spectral, integrator, problems)
    assert hbvm.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(hbvm.__all__)) == len(hbvm.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(hbvm, name) is getattr(m, name), name
