import thermistor_fem as tf


def test_all_names_resolve_once():
    assert len(tf.__all__) == len(set(tf.__all__))
    missing = [name for name in tf.__all__ if not hasattr(tf, name)]
    assert missing == []
