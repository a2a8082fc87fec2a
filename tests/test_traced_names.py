"""The names the traced benchmark wraps still resolve in the package.

``bench/spans.py`` replaces functions of ``aspectarg`` modules by name, with
``getattr`` and ``setattr``; a removed or renamed function would make a
traced run fail or lose its span.  The file is executed from its source, not
imported, so nothing is written next to it.
"""

import importlib
import runpy
from dataclasses import fields
from pathlib import Path

from aspectarg.semantics import SubModel

SPANS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "spans.py"))


def module(name):
    return importlib.import_module(f"aspectarg.{name}")


def test_every_wrapped_function_resolves():
    modules = {name: module(name) for name in SPANS["MODULES"]}  # as the recorder loads them
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _, _ in SPANS["WRAPPED"]
        if not callable(getattr(modules[mod], fn, None))
    ]
    assert not missing


def test_every_rebound_name_is_the_wrapped_function():
    defined = {fn: getattr(module(mod), fn) for mod, fn, _, _ in SPANS["WRAPPED"]}
    for mod, fn in SPANS["REBOUND"]:
        assert getattr(module(mod), fn, None) is defined[fn], f"{mod}.{fn}"


def test_sub_models_keep_their_model():
    # the extension-candidate counter reads ``sub.model.statements``
    assert "model" in {f.name for f in fields(SubModel)}
