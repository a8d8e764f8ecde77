import diffdim


def test_every_exported_name_resolves():
    assert [name for name in diffdim.__all__ if not hasattr(diffdim, name)] == []
