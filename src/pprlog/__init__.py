"""Feature-annotated logic programming with restart-walk inference.

Queries against a rule set plus a fact database are answered by running a
random walk with restart over the SLD proof graph; a residual-push
approximation grounds each query into a bounded subgraph on which both
inference and supervised weight learning operate.
"""

from .facts import FactStore, load_facts
from .graph import GroundedGraph, NumericGraph, deserialize, serialize
from .grounder import (GroundingParams, Prover, approximate_ground,
                       ground_full, pagerank_nibble, start_node)
from .inference import auc, average_precision, extract_answers, power_iterate
from .learner import (SgdConfig, TrainingExample, example_gradient,
                      pair_loss, ppr_gradient, train)
from .parser import Clause, Program, parse_atom, parse_program
from .terms import Atom, Const, Var
from .weights import (EXP, LINEAR, WEIGHT_FNS, ParameterVector, load_params,
                      save_params)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
