"""The benchmark under perfbench/ wraps mixnn functions by name. Each name it
binds must still exist, so renaming or deleting one fails here and not only
in a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patched_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    spans = importlib.import_module("spans")
    patches = bench.Probe().patches() + spans.Tracer().patches()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    with spans.patched(patches):
        for owner, attr, value in originals:
            assert owner.__dict__[attr] is not value, f"{owner.__name__}.{attr} not wrapped"
    for owner, attr, value in originals:
        assert owner.__dict__[attr] is value, f"{owner.__name__}.{attr} not restored"
