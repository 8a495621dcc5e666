import pairdeutsch


def test_every_exported_name_resolves():
    missing = [name for name in pairdeutsch.__all__ if not hasattr(pairdeutsch, name)]
    assert missing == []
    assert len(set(pairdeutsch.__all__)) == len(pairdeutsch.__all__)
