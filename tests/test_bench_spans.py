"""The benchmark's span tracer must keep resolving the functions it wraps."""

from bench import spans
from ringalert import cli


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
