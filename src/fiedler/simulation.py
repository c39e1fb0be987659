"""Round-synchronous multi-agent execution of a local-readout model.

Every node runs as an independent agent holding its own parameter copy and
hidden state. A round has two phases: all agents send w_msg @ state to each
neighbor, then all agents fold their inbox (summed in ascending sender order;
an empty inbox is the zero vector) into their state via the GRU update. After
the last round each agent reads out its own connectivity estimate. The result
matches the monolithic forward pass to within float reassociation noise,
which is the point: the learned estimator needs only local exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, GraphArrays
from .model import ModelParams, build_stack, gru_update, initial_state, readout_local
from .spectral import algebraic_connectivity


@dataclass
class Agent:
    """One node's private view: id, read-only parameters, state, inbox."""

    node: int
    params: ModelParams
    state: np.ndarray
    inbox: list = field(default_factory=list)  # (sender, payload) pairs


@dataclass
class RoundRecord:
    messages: list            # (sender, receiver, payload) in delivery order
    states: np.ndarray        # post-round agent states, row per node
    dropped: list             # (sender, receiver, payload) not delivered, in send order


@dataclass
class RoundTrace:
    rounds: list

    def message_count(self) -> int:
        return sum(len(r.messages) for r in self.rounds)

    def csv_text(self) -> str:
        """``round,sender,receiver,delivered,m0..m{H-1}``: one row per send, in
        send order (sender, then receiver, ascending), ``delivered`` 1 for a
        delivered message and 0 for a dropped one, which carries the payload
        that was not delivered."""
        hidden = self.rounds[0].states.shape[1]
        lines = ["round,sender,receiver,delivered," + ",".join(f"m{k}" for k in range(hidden))]
        for rnd, record in enumerate(self.rounds, start=1):
            sends = [(sender, receiver, 1, payload) for sender, receiver, payload in record.messages]
            sends += [(sender, receiver, 0, payload) for sender, receiver, payload in record.dropped]
            for sender, receiver, delivered, payload in sorted(sends, key=lambda send: send[:2]):
                payload_text = ",".join(f"{v:.17g}" for v in payload)
                lines.append(f"{rnd},{sender},{receiver},{delivered},{payload_text}")
        return "\n".join(lines) + "\n"


def run_simulation(
    params: ModelParams,
    g: Graph,
    rounds: int,
    drop_edges=(),
    drop_from: int = 1,
) -> tuple[np.ndarray, RoundTrace]:
    """Per-agent estimates after ``rounds`` synchronous message rounds, and the
    trace of every send, delivered or dropped. The edges in ``drop_edges``
    (``(i, j)`` pairs in either order) deliver nothing from round
    ``drop_from`` on."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    dropped = frozenset((min(i, j), max(i, j)) for i, j in drop_edges)
    if not dropped <= g.edges:
        raise ValueError("drop_edges must be a subset of the graph's edges")
    h = params.hidden_size
    start = initial_state(g.n, h)
    agents = [Agent(node=v, params=params, state=start[v].copy()) for v in range(g.n)]
    # each node's row of the adjacency: its neighbours, ascending
    adjacency = build_stack(GraphArrays.of([g])).adjacency
    indptr, indices = adjacency.indptr.tolist(), adjacency.indices.tolist()
    nbrs = [indices[a:b] for a, b in zip(indptr, indptr[1:])]
    trace_rounds = []

    for rnd in range(1, rounds + 1):
        # Send phase: every agent transforms its own state and posts it to
        # each neighbor's inbox. No agent reads any state but its own.
        records, dropped_sends = [], []
        for agent in agents:
            payload = agent.params.w_msg @ agent.state
            for w in nbrs[agent.node]:
                edge = (min(agent.node, w), max(agent.node, w))
                if rnd >= drop_from and edge in dropped:
                    dropped_sends.append((agent.node, w, payload))
                    continue
                agents[w].inbox.append((agent.node, payload))
                records.append((agent.node, w, payload))
        # Update phase: fold the inbox (ascending sender) through the GRU.
        for agent in agents:
            total = np.zeros(h)
            for _, payload in sorted(agent.inbox, key=lambda item: item[0]):
                total += payload
            agent.state = gru_update(
                agent.params, agent.state[None, :], total[None, :]
            )[0]
            agent.inbox.clear()
        trace_rounds.append(
            RoundRecord(
                messages=records,
                states=np.array([agent.state for agent in agents]),
                dropped=dropped_sends,
            )
        )

    estimates = np.array(
        [readout_local(agent.params, agent.state) for agent in agents]
    )
    return estimates, RoundTrace(rounds=trace_rounds)


@dataclass
class NodeEstimateReport:
    """True connectivity plus every agent's estimate and absolute error."""

    true_lambda2: float
    estimates: np.ndarray
    errors: np.ndarray

    @classmethod
    def from_estimates(cls, g: Graph, estimates: np.ndarray) -> "NodeEstimateReport":
        """Compare each agent's estimate on ``g`` to the oracle."""
        truth = algebraic_connectivity(g)
        return cls(true_lambda2=truth, estimates=estimates, errors=np.abs(estimates - truth))

    def text_lines(self) -> list[str]:
        lines = [f"true lambda2 {self.true_lambda2:.6g}"]
        for v, (est, err) in enumerate(zip(self.estimates, self.errors)):
            lines.append(f"node {v} estimate {est:.6g} abs_error {err:.6g}")
        return lines

    def csv_text(self) -> str:
        lines = ["node,estimate,abs_error"]
        lines.append(f"true,{self.true_lambda2:.17g},0")
        for v, (est, err) in enumerate(zip(self.estimates, self.errors)):
            lines.append(f"{v},{est:.17g},{err:.17g}")
        return "\n".join(lines) + "\n"
