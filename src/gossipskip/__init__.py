"""Decentralized composite optimization with skipped multi-gossip rounds.

A desk-scale simulator and diagnostic library for proximal gradient
methods over undirected networks in which the multi-round gossip
exchange is triggered only with probability ``p`` per iteration.
"""

__version__ = "0.1.0"

from .topology import *
from .gossip import *
from .problems import *
from .algorithms import *
from .harness import *
