from rholab.rng import substream


def test_substream_deterministic():
    a = substream(42, "label", 3).integers(0, 1 << 30, size=16)
    b = substream(42, "label", 3).integers(0, 1 << 30, size=16)
    assert (a == b).all()


def test_substream_label_and_counter_independent():
    base = substream(42, "label", 0).integers(0, 1 << 30, size=16)
    other_label = substream(42, "label2", 0).integers(0, 1 << 30, size=16)
    other_counter = substream(42, "label", 1).integers(0, 1 << 30, size=16)
    other_seed = substream(43, "label", 0).integers(0, 1 << 30, size=16)
    assert not (base == other_label).all()
    assert not (base == other_counter).all()
    assert not (base == other_seed).all()

