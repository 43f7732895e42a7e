"""repro — reproduction of *Universal augmentation schemes for network navigability:
overcoming the √n-barrier* (Fraigniaud, Gavoille, Kosowski, Lebhar, Lotker, SPAA 2007).

The package implements, from scratch on top of numpy:

* a graph substrate (:mod:`repro.graphs`) with generators, BFS/distance
  machinery and balls,
* tree / path decompositions, the *shape* measure and the pathshape parameter
  introduced by the paper (:mod:`repro.decomposition`),
* every augmentation scheme discussed in the paper — uniform, Kleinberg
  distance-power, matrix-based name-independent schemes, the (M, L) scheme of
  Theorem 2 and the Õ(n^{1/3}) ball scheme of Theorem 4 — plus the adversarial
  constructions of the lower bounds (:mod:`repro.core`),
* a greedy-routing engine with Monte-Carlo estimation of the greedy diameter
  (:mod:`repro.routing`),
* scaling analysis and the per-theorem experiment harness
  (:mod:`repro.analysis`, :mod:`repro.experiments`).

Quickstart
----------

>>> from repro import generators, BallScheme, estimate_greedy_diameter
>>> g = generators.cycle_graph(512)
>>> scheme = BallScheme(g, seed=1)
>>> result = estimate_greedy_diameter(g, scheme, num_pairs=16, trials=8, seed=2)
>>> result.mean < 512
True

Or, for repeated queries against one instance, the session API — it owns
instance acquisition, oracle warmup and kernel-backend selection, and is
what ``repro serve`` runs behind its TCP daemon:

>>> from repro import open_session
>>> with open_session("ring", 512, seed=0, scheme="uniform") as session:
...     outcome = session.route(3, 400)
...     outcome.success
True
"""

from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.builders import GraphBuilder
from repro.graphs.families import GRAPH_FAMILIES, build_family_graph
from repro.graphs.provider import DISTANCE_MODES, DistanceProvider, make_distance_provider
from repro.core.base import AugmentationScheme, AugmentedGraph
from repro.core.uniform import UniformScheme
from repro.core.kleinberg import DistancePowerScheme
from repro.core.matrix import AugmentationMatrix, MatrixScheme
from repro.core.matrix_label import Theorem2Scheme
from repro.core.ball_scheme import BallScheme
from repro.core.registry import make_scheme, available_schemes
from repro.routing.simulator import estimate_greedy_diameter
from repro.routing.greedy import greedy_route
from repro.decomposition.pathshape import estimate_pathshape
from repro.session import RoutingSession, derive_query_seed, open_session

__version__ = "1.1.0"

__all__ = [
    "Graph",
    "GraphBuilder",
    "generators",
    "GRAPH_FAMILIES",
    "build_family_graph",
    "DISTANCE_MODES",
    "DistanceProvider",
    "make_distance_provider",
    "AugmentationScheme",
    "AugmentedGraph",
    "UniformScheme",
    "DistancePowerScheme",
    "AugmentationMatrix",
    "MatrixScheme",
    "Theorem2Scheme",
    "BallScheme",
    "make_scheme",
    "available_schemes",
    "greedy_route",
    "estimate_greedy_diameter",
    "estimate_pathshape",
    "RoutingSession",
    "open_session",
    "derive_query_seed",
    "__version__",
]

