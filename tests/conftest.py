import json
import os
import sys
from importlib import resources
from pathlib import Path

# make the sibling oracle module importable from any test file
sys.path.insert(0, os.path.dirname(__file__))


def child_env(**overrides: str) -> dict:
    """Environment for a ``python -m cfcomm`` child run from any directory.

    The directory holding the ``cfcomm`` this process imported goes first on
    ``PYTHONPATH``, so the child runs the same package the tests check even
    when the parent found it through a relative entry such as ``src``.
    """
    import cfcomm

    env = dict(os.environ, **overrides)
    root = str(Path(cfcomm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def reference_dict() -> dict:
    """The packaged reference config as parsed JSON, for tests to edit."""
    text = (resources.files("cfcomm") / "data" / "reference-bench.json").read_text()
    return json.loads(text)


def order_two_matches_the_walk(c) -> None:
    """Closed-form order-2 detection probabilities of a circuit against the
    order-2 reference walk of ``oracles``, and their excess over order 1
    against the walk's sum over its two-kick components."""
    import pytest

    import oracles
    from cfcomm.circuit import detection_probs

    walk = oracles.order2_terminal(c)
    p1, p2 = detection_probs(c), detection_probs(c, max_order=2)
    for d in c.detectors:
        assert p2[d] == pytest.approx(oracles.detector_prob(walk, d), rel=1e-13)
        two = oracles.detector_prob(walk, d, (2,))
        assert p2[d] - p1[d] == pytest.approx(two, rel=1e-10, abs=0.0)
