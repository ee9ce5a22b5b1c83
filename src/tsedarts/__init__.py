"""Desk-scale differentiable architecture search with a training-speed
objective, exact unrolled-hypergradient oracles, and search diagnostics."""

from . import (autodiff, data, diagnostics, optim, oracles, parallel, space,
               supernet)

__all__ = ["autodiff", "data", "diagnostics", "optim", "oracles", "parallel",
           "space", "supernet"]

__version__ = "0.1.0"
