"""The benchmark's span tracer must keep resolving the functions it wraps."""

from bench import spans
from ringalert import cli, simulator
from ringalert.geo import GeoPoint
from tests.conftest import corridor_config


def _bound():
    return [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS] + [cli.main]


def test_every_target_resolves():
    for owner, attr, name, _ in spans.TARGETS:
        fn = getattr(owner, attr, None)
        assert callable(fn), f"{name}: {getattr(owner, '__name__', owner)}.{attr} is gone"


def test_install_then_uninstall_restores_originals():
    originals = _bound()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _bound()
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(a is o for a, o in zip(_bound(), originals))


def test_window_counter_reads_a_window_sample():
    # sample_windows returns one WindowSample: the counter takes its len and iterates it
    windows = simulator.sample_windows(corridor_config(per=0.9, seed=7), GeoPoint(0, 0),
                                       window_messages=50, n_windows=7)
    assert spans._windows_counts(windows, (), {}) == {"windows": 7, "records": 350}
