"""Deterministic simulator of knowledge diffusion in weighted organizational networks.

The package follows one pipeline: build a small-world collaboration graph
(netgraph), draw a workforce with partial competences (workforce), diffuse
knowledge resources step by step (diffusion), allocate boosted roles to nodes
ranked by a strategy (roles), and accelerate communities of practice with
energy-guided ties (community). The scenario layer binds it all to seeded,
reproducible experiment configs with CSV/JSON reporting, and cli exposes it
on the command line.
"""

from . import community, diffusion, netgraph, roles, scenario, workforce
from .community import *  # noqa: F401,F403
from .diffusion import *  # noqa: F401,F403
from .netgraph import *  # noqa: F401,F403
from .roles import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .workforce import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (netgraph, workforce, diffusion, roles, community, scenario) for name in module.__all__
]
