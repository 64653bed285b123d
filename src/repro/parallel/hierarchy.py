"""Node-aware collectives: intra-node rings + inter-node trees.

A flat :class:`~repro.comm.collectives.Communicator` over a multi-node
rank set pays the NIC-share cliff on every byte: the topology caps the
collective bandwidth at ``nic / gpus_per_node`` because all ranks of a
node squeeze through one NIC at once. The
:class:`HierarchicalCommunicator` — what every multi-GPU
:class:`~repro.core.trainer.MGGCNTrainer` communicates through — keeps
the bulk of the traffic on the fast intra-node links and sends each
payload over the NIC once per node pair, NCCL-tree style (MixGCN's
node-aware collectives):

* **broadcast** — one rendezvous over all ranks, priced as a tree
  broadcast root -> node leaders over the NICs plus the slowest node's
  pipelined ring leader -> members (:meth:`~HierarchicalCommunicator.
  broadcast_cost`). Being one op, it takes the flat communicator's
  planned path (``plan_broadcast``/``broadcast_replay``) unchanged, and
  books the tree on ``inter_node`` and each multi-GPU node's ring on
  ``intra_node``;
* **allreduce** — ring reduce to each node's leader, tree allreduce
  among the leaders, ring broadcast of the result back down;
* **allgather** — intra-node gather, leader exchange of the node
  aggregates, intra-node broadcast of the remote rows.

The last two keep their phases: each phase is a rendezvous on a
*sub*-communicator (per-node groups and the node-leader group), so phase
timing, fault injection, retries and telemetry link classification all
come from the existing machinery — intra phases account their bytes as
``intra_node``, leader phases as ``inter_node``.

**Numerics.** The functional payload is computed once, in flat rank
order, by the same closure a flat communicator would run — node-aware
collectives are therefore *bit-identical* to flat ones (the real-world
analogue — NCCL ring vs tree reassociation — is a timing model detail
this simulator deliberately does not reproduce). A phased collective
attaches the closure to its inter-node phase, so captured plans
(:mod:`repro.plan`) replay it with the correct data movement.

On a single-node rank set every operation is the flat implementation
unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.collectives import Communicator, Links, allgather_copy
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor
from repro.errors import CommunicationError
from repro.parallel.groups import node_groups
from repro.resilience.policy import RetryPolicy


def _ceil_log2(n: int) -> int:
    """Tree depth of ``n`` leaves (>= 1 for n >= 2)."""
    depth = 0
    span = 1
    while span < n:
        span *= 2
        depth += 1
    return max(depth, 1)


class HierarchicalCommunicator(Communicator):
    """A :class:`Communicator` whose collectives are node-aware.

    Drop-in compatible with the flat communicator (same constructor,
    same public methods, same functional results); only the simulated
    timing and the link-tier accounting differ, and only when the rank
    set actually spans nodes.
    """

    def __init__(
        self,
        ctx,
        ranks: Optional[Sequence[int]] = None,
        bw_derate: float = 1.0,
        collective_overhead: float = 12e-6,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(ctx, ranks, bw_derate, collective_overhead, timeout, retry)
        self.groups: List[List[int]] = node_groups(ctx.machine, self.ranks)
        #: False on single-node rank sets: every op delegates to flat.
        self.is_hierarchical = len(self.groups) > 1
        self._node_comms: Dict[Tuple[int, ...], Communicator] = {}
        self._leader: Optional[Communicator] = None
        #: root -> the broadcast's per-tier ``(fixed, bandwidth)``: the
        #: leader tree's, then each multi-GPU node's ring (see
        #: :meth:`broadcast_cost`).
        self._tier_timing_cache: Dict[
            int, Tuple[Tuple[float, float], Tuple[Tuple[float, float], ...]]
        ] = {}
        if self.is_hierarchical:
            for g in self.groups:
                if len(g) > 1:
                    self._node_comms[tuple(g)] = Communicator(
                        ctx, g, bw_derate, collective_overhead, timeout, retry
                    )

    # -- sub-communicator plumbing ------------------------------------------

    def _leader_comm(self) -> Communicator:
        """The inter-node communicator: each node's first rank."""
        if self._leader is None:
            self._leader = Communicator(
                self.ctx,
                [g[0] for g in self.groups],
                self.bw_derate,
                self.collective_overhead,
                self.timeout,
                self.retry,
            )
        return self._leader

    def _phase_deps(
        self,
        deps_by_rank: Mapping[int, Sequence[Event]],
        phase_ranks: Sequence[int],
        consumed: set,
    ) -> Dict[int, Sequence[Event]]:
        """Caller dependencies for the ranks entering their first phase."""
        deps = {}
        for r in phase_ranks:
            if r in deps_by_rank and r not in consumed:
                deps[r] = deps_by_rank[r]
                consumed.add(r)
        return deps

    # -- per-phase timing terms (mirror the flat formulas per tier) ---------

    def _bcast_terms(
        self, comm: Communicator, root: int, nbytes: int
    ) -> Tuple[float, float]:
        fixed, bw = comm.broadcast_timing(root)
        return fixed, nbytes / bw

    def _reduce_terms(
        self, comm: Communicator, nbytes: int
    ) -> Tuple[float, float]:
        bw = comm.topology.allreduce_bandwidth(comm.ranks) * comm.bw_derate
        volume = (comm.size - 1) / comm.size * nbytes
        latency = (comm.size - 1) * comm.topology.p2p_latency(
            comm.ranks[0], comm.ranks[1]
        )
        return comm.collective_overhead + latency, volume / bw

    def _allreduce_terms(
        self, comm: Communicator, nbytes: int, tree: bool = False
    ) -> Tuple[float, float]:
        bw = comm.topology.allreduce_bandwidth(comm.ranks) * comm.bw_derate
        volume = 2.0 * (comm.size - 1) / comm.size * nbytes
        hops = 2 * (_ceil_log2(comm.size) if tree else comm.size - 1)
        latency = hops * comm.topology.p2p_latency(comm.ranks[0], comm.ranks[1])
        return comm.collective_overhead + latency, volume / bw

    def _gather_terms(
        self, comm: Communicator, nbytes: int
    ) -> Tuple[float, float]:
        bw = comm.topology.collective_bandwidth(comm.ranks) * comm.bw_derate
        volume = (comm.size - 1) / comm.size * nbytes
        latency = (comm.size - 1) * comm.topology.p2p_latency(
            comm.ranks[0], comm.ranks[1]
        )
        return latency, volume / bw

    # -- collectives --------------------------------------------------------

    def broadcast_cost(
        self, root: int, nbytes: int
    ) -> Tuple[float, float, Links]:
        """One rendezvous over all ranks, priced as its two tiers.

        A tree broadcast root -> node leaders over the NICs, then a
        pipelined ring leader -> members inside every node, the slowest
        node setting the pace: ``fixed`` and ``bw_time`` are the leader
        tree's terms plus the slowest node ring's. ``links`` books the
        tree on ``inter_node`` and each multi-GPU node's ring on
        ``intra_node``, every tier carrying the full payload.
        """
        if not self.is_hierarchical:
            return super().broadcast_cost(root, nbytes)
        timing = self._tier_timing_cache.get(root)
        if timing is None:
            # the root stands in for its node's leader (no extra hop)
            leaders = [root if root in g else g[0] for g in self.groups]
            topology = self.topology
            latency = max(
                topology.p2p_latency(root, r) for r in leaders if r != root
            )
            tree = (
                self.collective_overhead + latency * _ceil_log2(len(leaders)),
                topology.broadcast_bandwidth(root, leaders) * self.bw_derate,
            )
            rings = tuple(
                self._node_comms[tuple(g)].broadcast_timing(
                    root if root in g else g[0]
                )
                for g in self.groups
                if len(g) > 1
            )
            timing = self._tier_timing_cache[root] = (tree, rings)
        (fixed, bw), rings = timing
        bw_time = nbytes / bw
        ring_terms = [(ring_fixed, nbytes / ring_bw)
                      for ring_fixed, ring_bw in rings]
        links = (("inter_node", fixed, bw_time, nbytes),) + tuple(
            ("intra_node", ring_fixed, ring_time, nbytes)
            for ring_fixed, ring_time in ring_terms
        )
        ring_fixed, ring_time = max(ring_terms, key=sum, default=(0.0, 0.0))
        return fixed + ring_fixed, bw_time + ring_time, links

    def allreduce_duration(self, nbytes: int) -> float:
        if not self.is_hierarchical or self.size <= 1:
            return super().allreduce_duration(nbytes)
        intra_reduce = 0.0
        intra_bcast = 0.0
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            f, b = self._reduce_terms(sub, nbytes)
            intra_reduce = max(intra_reduce, f + b)
            f, b = self._bcast_terms(sub, g[0], nbytes)
            intra_bcast = max(intra_bcast, f + b)
        f, b = self._allreduce_terms(self._leader_comm(), nbytes, tree=True)
        return intra_reduce + f + b + intra_bcast

    def allgather_duration(self, total_nbytes: int) -> float:
        if not self.is_hierarchical or self.size <= 1:
            return super().allgather_duration(total_nbytes)
        # uniform-payload approximation: each node contributes its
        # member share of the gathered bytes.
        intra_gather = 0.0
        intra_bcast = 0.0
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            node_bytes = total_nbytes * len(g) // self.size
            f, b = self._gather_terms(sub, node_bytes)
            intra_gather = max(intra_gather, f + b)
            f, b = self._bcast_terms(sub, g[0], total_nbytes - node_bytes)
            intra_bcast = max(intra_bcast, f + b)
        f, b = self._gather_terms(self._leader_comm(), total_nbytes)
        return intra_gather + f + b + intra_bcast

    def allreduce(
        self,
        tensors: Mapping[int, DeviceTensor],
        op: str = "sum",
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allreduce",
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().allreduce(tensors, op, streams, deps_by_rank, name)
        if op not in ("sum", "mean"):
            raise CommunicationError(f"unsupported allreduce op {op!r}")
        self._check_uniform(tensors, name)

        def compute() -> None:
            arrays = [
                tensors[r].data for r in self.ranks if tensors[r].data is not None
            ]
            if not arrays:
                return
            total = arrays[0].copy()
            for a in arrays[1:]:
                total += a
            if op == "mean":
                total /= self.size
            for r in self.ranks:
                if tensors[r].data is not None:
                    np.copyto(tensors[r].data, total)

        compute()
        ref = tensors[self.ranks[0]]
        nbytes = ref.nbytes
        count = ref.size
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # phase 1: ring reduce to each node's leader
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._reduce_terms(sub, nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_reduce",
                    self._phase_deps(deps_by_rank, g, consumed),
                    None,
                    nbytes,
                    None,
                    flops=(sub.size - 1) / sub.size * count,
                )
            )
        # phase 2: tree allreduce among the node leaders (NIC tier)
        leader_comm = self._leader_comm()
        n_leaders = leader_comm.size
        leader_flops = (n_leaders - 1) / n_leaders * count
        if op == "mean":
            leader_flops += count / n_leaders
        fixed, bw_time = self._allreduce_terms(leader_comm, nbytes, tree=True)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                None,
                nbytes,
                compute,
                flops=leader_flops,
            )
        )
        # phase 3: ring broadcast of the reduced buffer back down
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._bcast_terms(sub, g[0], nbytes)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_bcast",
                    {},
                    None,
                    nbytes,
                    None,
                )
            )
        return events

    def allgather(
        self,
        srcs: Mapping[int, DeviceTensor],
        dsts: Mapping[int, DeviceTensor],
        row_offsets: Optional[Mapping[int, int]] = None,
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allgather",
    ) -> Dict[int, Event]:
        if not self.is_hierarchical:
            return super().allgather(
                srcs, dsts, row_offsets, streams, deps_by_rank, name
            )
        self._check_rendezvous(
            name,
            {
                r: ((srcs[r].cols,) if r in srcs and r in dsts else None)
                for r in self.ranks
            },
        )
        total_rows = sum(srcs[r].rows for r in self.ranks)
        offsets: Dict[int, int] = {}
        if row_offsets is None:
            cursor = 0
            for r in self.ranks:
                offsets[r] = cursor
                cursor += srcs[r].rows
        else:
            offsets = dict(row_offsets)
        for r in self.ranks:
            dst = dsts[r]
            if dst.rows != total_rows:
                raise CommunicationError(
                    f"allgather: rank {r} dst has {dst.rows} rows, need {total_rows}"
                )

        compute = allgather_copy(self.ranks, srcs, dsts, offsets)
        compute()
        total_bytes = sum(srcs[r].nbytes for r in self.ranks)
        node_bytes = {
            tuple(g): sum(srcs[r].nbytes for r in g) for g in self.groups
        }
        deps_by_rank = deps_by_rank or {}
        consumed: set = set()
        events: Dict[int, Event] = {}
        # phase 1: gather each node's rows on every member (ring allgather)
        for g in self.groups:
            if len(g) == 1:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._gather_terms(sub, node_bytes[tuple(g)])
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_gather",
                    self._phase_deps(deps_by_rank, g, consumed),
                    None,
                    node_bytes[tuple(g)],
                    None,
                )
            )
        # phase 2: node leaders exchange the per-node aggregates (NIC tier)
        leader_comm = self._leader_comm()
        fixed, bw_time = self._gather_terms(leader_comm, total_bytes)
        events.update(
            leader_comm._rendezvous(
                leader_comm._streams(streams),
                fixed,
                bw_time,
                f"{name}/inter",
                self._phase_deps(deps_by_rank, leader_comm.ranks, consumed),
                None,
                total_bytes,
                compute,
            )
        )
        # phase 3: broadcast the remote rows inside each node
        for g in self.groups:
            if len(g) == 1:
                continue
            remote = total_bytes - node_bytes[tuple(g)]
            if remote <= 0:
                continue
            sub = self._node_comms[tuple(g)]
            fixed, bw_time = self._bcast_terms(sub, g[0], remote)
            events.update(
                sub._rendezvous(
                    sub._streams(streams),
                    fixed,
                    bw_time,
                    f"{name}/intra_bcast",
                    {},
                    None,
                    remote,
                    None,
                )
            )
        return events
