"""Every result the package hands out is a read-only value."""

import dataclasses
import importlib
import inspect
import pkgutil

import cfcomm


def test_every_dataclass_is_frozen():
    """Walks the classes each ``cfcomm`` module defines; none may be a
    dataclass whose fields can be rebound."""
    found = {}
    for info in pkgutil.iter_modules(cfcomm.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"cfcomm.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found[f"{info.name}.{name}"] = cls.__dataclass_params__.frozen
    assert {"optics.PhotonState", "protocol.Bitmap", "spectral.PeakTable"} <= set(found)
    assert [name for name, frozen in found.items() if not frozen] == []
