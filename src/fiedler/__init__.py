"""Learned distributed estimation of a communication graph's algebraic connectivity.

A message-passing network (linear message transform, GRU state update, MLP
readout) is trained against an exact spectral oracle to predict the second
smallest Laplacian eigenvalue, either per node (local readout) or per graph
(global readout), and a round-synchronous multi-agent simulator runs the local
variant with nothing but neighbor-to-neighbor message exchange.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    GraphArrays,
    GraphGenConfig,
    are_connected,
    generate_connected_graph,
    generate_graph_arrays,
    is_connected,
)
from .spectral import algebraic_connectivities, algebraic_connectivity
from .model import (
    ForwardCache,
    GraphStack,
    GruParams,
    ModelParams,
    ReadoutParams,
    backward_stack,
    build_stack,
    flatten_params,
    forward,
    forward_stack,
    grad_check,
    gru_update,
    init_params,
    initial_state,
    load_params,
    param_count,
    readout_local,
    save_params,
    unflatten_params,
)
from .data import Dataset, generate_dataset, load_dataset, save_dataset
from .training import (
    AdamState,
    EpochRecord,
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    generalization_sweep,
    train,
)
from .simulation import (
    Agent,
    NodeEstimateReport,
    RoundTrace,
    run_simulation,
)
