"""Scheme registry: build any scheme from a short name.

Used by the experiment harness, the benchmarks and the examples so that a
scheme can be selected with a string (``"uniform"``, ``"ball"``,
``"theorem2"``, ``"kleinberg"``, ``"matrix-uniform"``) plus keyword options.

Every built-in factory accepts ``oracle=``, the caller's shared distance
provider: the ball and Kleinberg schemes sample from it, the others ignore
it.  ``repro route`` and ``open_session`` always pass it, so factories
registered for use there must accept it too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.base import AugmentationScheme
from repro.core.ball_scheme import BallScheme
from repro.core.kleinberg import DistancePowerScheme
from repro.core.matrix import MatrixScheme, uniform_matrix
from repro.core.matrix_label import Theorem2Scheme
from repro.core.uniform import UniformScheme
from repro.graphs.graph import Graph
from repro.graphs.provider import DistanceProvider

__all__ = ["make_scheme", "available_schemes", "register_scheme"]

_SchemeFactory = Callable[..., AugmentationScheme]

_REGISTRY: Dict[str, _SchemeFactory] = {}


def register_scheme(name: str, factory: _SchemeFactory) -> None:
    """Register a custom scheme factory under *name* (overwrites silently)."""
    _REGISTRY[name.lower()] = factory


def available_schemes() -> List[str]:
    """Sorted list of registered scheme names."""
    return sorted(_REGISTRY)


def make_scheme(name: str, graph: Graph, **kwargs) -> AugmentationScheme:
    """Instantiate the scheme registered under *name* for *graph*.

    Keyword arguments are forwarded to the scheme constructor, e.g.
    ``make_scheme("kleinberg", g, exponent=2.0)`` or
    ``make_scheme("ball", g, seed=7, oracle=provider)``.
    """
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        raise KeyError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        )
    return factory(graph, **kwargs)


# --------------------------------------------------------------------------- #
# Built-in registrations
# --------------------------------------------------------------------------- #

def _ignoring_oracle(build: _SchemeFactory) -> _SchemeFactory:
    """Factory for a scheme that reads no distances: accepts ``oracle=``, drops it."""

    def factory(graph: Graph, *, oracle: Optional[DistanceProvider] = None, **kwargs):
        return build(graph, **kwargs)

    return factory


def _make_kleinberg(graph: Graph, exponent: float = 2.0, **kwargs) -> AugmentationScheme:
    return DistancePowerScheme(graph, exponent, **kwargs)


def _make_matrix_uniform(graph: Graph, **kwargs) -> AugmentationScheme:
    return MatrixScheme(graph, uniform_matrix(graph.num_nodes), **kwargs)


register_scheme("uniform", _ignoring_oracle(UniformScheme))
register_scheme("ball", BallScheme)
register_scheme("theorem2", _ignoring_oracle(Theorem2Scheme))
register_scheme("kleinberg", _make_kleinberg)
register_scheme("distance_power", _make_kleinberg)
register_scheme("matrix-uniform", _ignoring_oracle(_make_matrix_uniform))
