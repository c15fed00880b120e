import simembed


def test_every_export_resolves():
    missing = [name for name in simembed.__all__
               if not hasattr(simembed, name)]
    assert missing == []
