"""The traced benchmark finds every program function it wraps."""

import importlib

from perfbench import layers  # perfbench/ is not installed; pyproject puts "." on the path


def _resolve(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_instrument_wraps_every_target_and_uninstall_restores_it():
    targets = [t[:2] for t in layers.TARGETS] + [layers.TRAIN_TARGET[:2]]
    originals = [_resolve(*t) for t in targets]  # AttributeError names a dropped function
    tracer = layers.instrument()
    try:
        wrapped = [_resolve(*t) for t in targets]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [_resolve(*t) for t in targets] == originals
