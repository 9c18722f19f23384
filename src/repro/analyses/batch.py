"""Batched slicing engine: all-nodes cost/HRAC/HRAB in one pass each.

The per-node reference functions (:func:`~repro.analyses.cost.abstract_cost`,
:func:`~repro.analyses.relative.hrac`, :func:`~repro.analyses.relative.hrab`)
re-run a fresh BFS per query, so ranking every allocation site is
O(queries x edges).  This module answers *all* queries from one
precomputed reachability index, the standard batching used by offline
slicers:

1. :meth:`~repro.profiler.graph.DependenceGraph.freeze` snapshots the
   adjacency into CSR arrays;
2. the stop-flagged nodes (heap reads for HRAC, heap writes for HRAB)
   are masked out and the remaining subgraph is condensed into strongly
   connected components with an iterative Tarjan;
3. reachable-SCC sets are propagated through the condensation in
   reverse-topological order as Python big-int bitsets — one OR per
   condensation edge, so every set is materialized exactly once, and
   each SCC's weighted closure sum is maintained alongside by
   extracting only the delta bits each merged child contributes;
4. a query from an unmasked node is then a precomputed O(1) lookup;
   masked starts union their neighbors' closures the same delta-only
   way.

A node carrying a stop flag is still a valid query start (the paper's
definitions always include the slice criterion itself): it is answered
by unioning the closures of its unmasked neighbors and adding its own
frequency.  The per-node functions remain in the codebase as the
executable reference; the equivalence suite in
``tests/test_batch_engine.py`` pins this engine to them bit-for-bit.
"""

from __future__ import annotations

import time
from array import array

from ..observability.telemetry import current as _current_telemetry
from ..profiler.graph import (F_HEAP_READ, F_HEAP_WRITE, F_NATIVE,
                              F_PREDICATE, DependenceGraph)

INFINITE = float("inf")

#: byte value -> tuple of set-bit offsets, for weighted popcounts.
_BYTE_BITS = [tuple(b for b in range(8) if value >> b & 1)
              for value in range(256)]


class ReachabilityIndex:
    """Weighted transitive closure over one direction of a frozen graph.

    ``offsets``/``targets`` is one CSR adjacency half (``bwd`` for
    backward cost queries, ``fwd`` for forward benefit queries);
    ``allowed`` masks out stop-flagged nodes; ``mark`` (optional, one
    byte per node) tags nodes whose presence in a closure must be
    reported — the F_NATIVE infinite-benefit bit.

    After construction, :meth:`query` answers "sum of frequencies over
    the closure of ``node``, and does the closure contain a marked
    node?" in (amortized) the cost of one weighted popcount.
    """

    def __init__(self, num_nodes, offsets, targets, allowed, freq,
                 mark=None, name="index"):
        self.n = num_nodes
        self.offsets = offsets
        self.targets = targets
        self.allowed = allowed
        self.freq = freq
        self.node_mark = mark
        #: Telemetry label for the build-phase timings.
        self.name = name
        #: node id -> SCC id (-1 for masked-out nodes).
        self.comp = [-1] * num_nodes
        #: SCC id -> big-int bitset of SCCs in its closure (itself incl).
        self.comp_bits = []
        #: SCC id -> summed frequency of its own member nodes.
        self.comp_weight = []
        #: SCC id -> summed frequency over the whole closure (the
        #: Definition-4 answer for every member node), maintained
        #: incrementally during construction so allowed-node queries
        #: are O(1).
        self.comp_cost = []
        #: SCC id -> does the closure contain a marked node?
        self.comp_mark = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        """Iterative Tarjan; closures are completed at SCC pop time.

        Tarjan emits SCCs in reverse topological order of the
        condensation: every SCC reachable from C is finished before C
        itself pops.  So the closure bitset of C is its own bit OR'd
        with the (already final) closures of the components its member
        edges leave into — each condensation edge contributes exactly
        one big-int OR, and no node is ever double-counted because a
        set bit identifies a whole SCC exactly once.

        When the telemetry hub is enabled, the SCC-discovery and
        closure-propagation shares of the build are timed separately
        (one clock pair per *popped SCC*, never per node or edge) and
        reported as a ``batch.index`` event plus
        ``batch.scc[...]`` / ``batch.propagation[...]`` timers.
        """
        hub = _current_telemetry()
        clock = time.perf_counter if hub.enabled else None
        build_start = clock() if clock else 0.0
        prop_seconds = 0.0
        n = self.n
        offsets = self.offsets
        targets = self.targets
        allowed = self.allowed
        freq = self.freq
        node_mark = self.node_mark
        comp = self.comp
        comp_bits = self.comp_bits
        comp_weight = self.comp_weight
        comp_mark = self.comp_mark

        index = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        scc_stack = []
        vstack = []       # DFS call stack: nodes
        pstack = []       # DFS call stack: next edge pointer per node
        counter = 0

        for root in range(n):
            if index[root] != -1 or not allowed[root]:
                continue
            index[root] = low[root] = counter
            counter += 1
            scc_stack.append(root)
            on_stack[root] = 1
            vstack.append(root)
            pstack.append(offsets[root])
            while vstack:
                v = vstack[-1]
                ptr = pstack[-1]
                if ptr < offsets[v + 1]:
                    pstack[-1] = ptr + 1
                    w = targets[ptr]
                    if not allowed[w]:
                        continue
                    if index[w] == -1:
                        index[w] = low[w] = counter
                        counter += 1
                        scc_stack.append(w)
                        on_stack[w] = 1
                        vstack.append(w)
                        pstack.append(offsets[w])
                    elif on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                    continue
                vstack.pop()
                pstack.pop()
                if vstack and low[v] < low[vstack[-1]]:
                    low[vstack[-1]] = low[v]
                if low[v] != index[v]:
                    continue
                # v roots a finished SCC: pop members, then seal its
                # closure from the already-sealed downstream SCCs.
                cid = len(comp_bits)
                members = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = 0
                    comp[w] = cid
                    members.append(w)
                    if w == v:
                        break
                if clock:
                    seal_start = clock()
                weight = 0
                mark = False
                children = set()
                for m in members:
                    weight += freq[m]
                    if node_mark is not None and node_mark[m]:
                        mark = True
                    for e in range(offsets[m], offsets[m + 1]):
                        c2 = comp[targets[e]]
                        if c2 >= 0 and c2 != cid:
                            children.add(c2)
                ubits, ucost, umark = self._union(children)
                comp_bits.append(ubits | 1 << cid)
                comp_weight.append(weight)
                self.comp_cost.append(weight + ucost)
                comp_mark.append(mark or umark)
                if clock:
                    prop_seconds += clock() - seal_start

        if clock:
            total = clock() - build_start
            scc_seconds = max(total - prop_seconds, 0.0)
            hub.metrics.observe(f"batch.scc[{self.name}]", scc_seconds)
            hub.metrics.observe(f"batch.propagation[{self.name}]",
                                prop_seconds)
            hub.event("batch.index", index=self.name, nodes=n,
                      sccs=len(comp_bits), dur=round(total, 6),
                      scc_s=round(scc_seconds, 6),
                      propagation_s=round(prop_seconds, 6))

    # -- queries ------------------------------------------------------------

    def weighted(self, bits: int) -> int:
        """Sum of member frequencies over the SCCs set in ``bits``."""
        return self._extract(bits)

    def _extract(self, bits: int) -> int:
        """Weighted popcount of a raw bitset via the per-byte table."""
        total = 0
        comp_weight = self.comp_weight
        data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        byte_bits = _BYTE_BITS
        for i, byte in enumerate(data):
            if byte:
                base = i << 3
                for offset in byte_bits[byte]:
                    total += comp_weight[base + offset]
        return total

    def _union(self, comps):
        """(bitset, weighted sum, mark) over a union of SCC closures.

        Starts from the widest closure (its precomputed ``comp_cost``
        is reused wholesale) and folds the rest in by extracting only
        the *delta* bits each one adds — for the chain-shaped unions
        that dominate real dependence graphs this touches a handful of
        bits instead of re-walking the full closure per query.
        """
        if not comps:
            return 0, 0, False
        comp_bits = self.comp_bits
        comp_mark = self.comp_mark
        if len(comps) == 1:
            c0, = comps
            return comp_bits[c0], self.comp_cost[c0], comp_mark[c0]
        c0 = max(comps, key=lambda c: comp_bits[c].bit_count())
        bits = comp_bits[c0]
        total = self.comp_cost[c0]
        mark = comp_mark[c0]
        for c in comps:
            if c == c0:
                continue
            if comp_mark[c]:
                mark = True
            cb = comp_bits[c]
            delta = cb & ~bits
            if delta:
                total += self._extract(delta)
                bits |= cb
        return bits, total, mark

    def union_cost(self, comps):
        """(weighted sum, mark) over the union of the given closures."""
        _, total, mark = self._union(comps)
        return total, mark

    def query(self, node: int):
        """(closure frequency sum, closure contains a marked node?).

        Matches ``backward_reachable``/``forward_reachable`` with the
        index's stop mask: the start node is always included, even when
        it is itself masked out.
        """
        if self.allowed[node]:
            cid = self.comp[node]
            return self.comp_cost[cid], self.comp_mark[cid]
        mark = bool(self.node_mark[node]) if self.node_mark is not None \
            else False
        offsets = self.offsets
        targets = self.targets
        comp = self.comp
        allowed = self.allowed
        comps = set()
        for e in range(offsets[node], offsets[node + 1]):
            w = targets[e]
            if allowed[w]:
                comps.add(comp[w])
        total, union_mark = self.union_cost(comps)
        return self.freq[node] + total, mark or union_mark


def _allowed_mask(flags, stop_flags: int) -> bytearray:
    if not stop_flags:
        return bytearray(b"\x01" * len(flags)) if flags else bytearray()
    return bytearray(0 if f & stop_flags else 1 for f in flags)


def _flag_mask(flags, which: int):
    return bytearray(1 if f & which else 0 for f in flags)


class BatchSliceEngine:
    """One-pass batched replacement for the per-query slicing BFS.

    Freezes the graph on construction and lazily builds one
    :class:`ReachabilityIndex` per query family:

    * ``abstract_cost`` — backward, no stop flags (Definition 4);
    * ``hrac`` — backward, stopping at heap reads (Definition 5);
    * ``hrab`` — forward, stopping at heap writes, tracking the
      F_NATIVE infinite-benefit bit (Definition 6).

    Results are bit-identical to the reference functions; the
    equivalence is asserted over every workload by
    ``tests/test_batch_engine.py``.
    """

    def __init__(self, graph: DependenceGraph):
        self.graph = graph
        hub = _current_telemetry()
        if hub.enabled:
            with hub.span("batch.freeze", nodes=graph.num_nodes,
                          edges=graph.num_edges,
                          cached=graph.frozen):
                self.csr = graph.freeze()
        else:
            self.csr = graph.freeze()
        self._cost_index = None
        self._hrac_index = None
        self._hrab_index = None
        # Validity checksums managed by engine_for().
        self._freq_sum = None
        self._flag_sum = None

    # -- index plumbing ------------------------------------------------------

    def cost_index(self) -> ReachabilityIndex:
        if self._cost_index is None:
            csr = self.csr
            self._cost_index = ReachabilityIndex(
                csr.num_nodes, csr.bwd_offsets, csr.bwd_targets,
                _allowed_mask(self.graph.flags, 0), self.graph.freq,
                name="cost")
        return self._cost_index

    def hrac_index(self) -> ReachabilityIndex:
        if self._hrac_index is None:
            csr = self.csr
            self._hrac_index = ReachabilityIndex(
                csr.num_nodes, csr.bwd_offsets, csr.bwd_targets,
                _allowed_mask(self.graph.flags, F_HEAP_READ),
                self.graph.freq, name="hrac")
        return self._hrac_index

    def hrab_index(self) -> ReachabilityIndex:
        if self._hrab_index is None:
            csr = self.csr
            flags = self.graph.flags
            self._hrab_index = ReachabilityIndex(
                csr.num_nodes, csr.fwd_offsets, csr.fwd_targets,
                _allowed_mask(flags, F_HEAP_WRITE), self.graph.freq,
                mark=_flag_mask(flags, F_NATIVE), name="hrab")
        return self._hrab_index

    # -- per-node queries (same contracts as the reference functions) --------

    def abstract_cost(self, node_id: int) -> int:
        """Definition 4; equals ``cost.abstract_cost(graph, node_id)``."""
        return self.cost_index().query(node_id)[0]

    def abstract_costs(self):
        """Definition-4 cost of every node, as a list indexed by id."""
        index = self.cost_index()
        comp = index.comp
        comp_cost = index.comp_cost
        # The cost index has no stop mask, so every node has a SCC.
        return [comp_cost[comp[node]] for node in range(self.csr.num_nodes)]

    def hrac(self, node_id: int) -> int:
        """Definition 5; equals ``relative.hrac(graph, node_id)``."""
        return self.hrac_index().query(node_id)[0]

    def hrab(self, node_id: int, native_benefit: str = "infinite"):
        """Definition 6; equals ``relative.hrab(graph, node_id, ...)``."""
        total, reaches_native = self.hrab_index().query(node_id)
        if native_benefit == "infinite" and reaches_native:
            return INFINITE
        return total

    # -- batched field aggregates --------------------------------------------

    def field_racs(self):
        """(alloc_key, field) -> RAC; equals ``relative.field_racs``."""
        index = self.hrac_index()
        racs = {}
        for field_key, stores in self.graph.field_stores().items():
            total = sum(index.query(node)[0] for node in stores)
            racs[field_key] = total / len(stores)
        return racs

    def field_rabs(self, native_benefit: str = "infinite"):
        """(alloc_key, field) -> RAB; equals ``relative.field_rabs``."""
        index = self.hrab_index()
        infinite = native_benefit == "infinite"
        rabs = {}
        for field_key, loads in self.graph.field_loads().items():
            total = 0
            saw_native = False
            for node in loads:
                benefit, reaches_native = index.query(node)
                if infinite and reaches_native:
                    saw_native = True
                    break
                total += benefit
            rabs[field_key] = INFINITE if saw_native \
                else total / len(loads)
        return rabs

    # -- consumer reachability (ultimately-dead values) ----------------------

    def consumer_reachability(self):
        """For every node: (reaches a native?, reaches a predicate?).

        Same fixpoint as ``deadvalues._consumer_reachability`` but
        walked over the frozen CSR arrays instead of per-node sets.
        """
        csr = self.csr
        n = csr.num_nodes
        flags = self.graph.flags
        reach_native = bytearray(n)
        reach_pred = bytearray(n)
        worklist = []
        for node in range(n):
            f = flags[node]
            if f & F_NATIVE:
                reach_native[node] = 1
                worklist.append(node)
            if f & F_PREDICATE:
                reach_pred[node] = 1
                worklist.append(node)
        offsets = csr.bwd_offsets
        targets = csr.bwd_targets
        while worklist:
            node = worklist.pop()
            native = reach_native[node]
            pred = reach_pred[node]
            for e in range(offsets[node], offsets[node + 1]):
                p = targets[e]
                changed = False
                if native and not reach_native[p]:
                    reach_native[p] = 1
                    changed = True
                if pred and not reach_pred[p]:
                    reach_pred[p] = 1
                    changed = True
                if changed:
                    worklist.append(p)
        return reach_native, reach_pred


class MethodLocalCostIndex:
    """Batched §3.2 return-value costs: heap-bounded, method-confined.

    The reference (``methodcost._method_local_cost``) BFSes backward
    from each return-producing node, expanding only predecessors that
    are heap-read-free *and* belong to the query method.  Because every
    expansion step preserves the method, the union of all per-method
    searches lives inside one global subgraph whose edges connect
    same-method nodes only — so a single condensation of that subgraph
    answers every method's queries.

    The start node may belong to a *different* method than the query
    (a returned value produced by a callee): it is then answered by the
    masked-start path — its own frequency plus the closures of its
    query-method predecessors, which cannot contain the start itself
    since closures never leave the query method.
    """

    def __init__(self, graph: DependenceGraph, iid_to_method):
        self.graph = graph
        csr = graph.freeze()
        self.csr = csr
        n = csr.num_nodes
        keys = graph.node_keys
        name_ids = {}
        mid = array("q", bytes(8 * n))
        for node in range(n):
            name = iid_to_method.get(keys[node][0])
            if name is None:
                mid[node] = -1
                continue
            nid = name_ids.get(name)
            if nid is None:
                nid = name_ids[name] = len(name_ids)
            mid[node] = nid
        self.mid = mid
        self._name_ids = name_ids
        allowed = _allowed_mask(graph.flags, F_HEAP_READ)
        self.allowed = allowed
        # Backward adjacency filtered to same-method edges.
        offsets = array("q", bytes(8 * (n + 1)))
        targets = array("q")
        bwd_offsets = csr.bwd_offsets
        bwd_targets = csr.bwd_targets
        for v in range(n):
            m = mid[v]
            for e in range(bwd_offsets[v], bwd_offsets[v + 1]):
                p = bwd_targets[e]
                if mid[p] == m:
                    targets.append(p)
            offsets[v + 1] = len(targets)
        self.index = ReachabilityIndex(n, offsets, targets, allowed,
                                       graph.freq, name="method_local")

    def cost(self, node: int, method: str) -> int:
        """Equals ``_method_local_cost(graph, node, method, mapping)``."""
        m = self._name_ids.get(method, -2)
        if self.allowed[node] and self.mid[node] == m:
            return self.index.query(node)[0]
        # Masked or foreign-method start: one manual hop over the
        # *unfiltered* predecessors into the query method's closures.
        index = self.index
        offsets = self.csr.bwd_offsets
        targets = self.csr.bwd_targets
        allowed = self.allowed
        mid = self.mid
        comp = index.comp
        comps = set()
        for e in range(offsets[node], offsets[node + 1]):
            p = targets[e]
            if allowed[p] and mid[p] == m:
                comps.add(comp[p])
        return self.graph.freq[node] + index.union_cost(comps)[0]


def engine_for(graph: DependenceGraph) -> BatchSliceEngine:
    """The cached engine for ``graph``, rebuilt when the graph moved on.

    Validity covers adjacency (CSR snapshot identity) plus cheap
    checksums of the live ``freq``/``flags`` vectors, which can change
    without adding nodes or edges (frequency bumps, flag accumulation)
    and are baked into the engine's indexes at build time.
    """
    engine = getattr(graph, "_batch_engine", None)
    freq_sum = sum(graph.freq)
    flag_sum = sum(graph.flags)
    if (engine is not None and engine.csr is graph.freeze()
            and engine._freq_sum == freq_sum
            and engine._flag_sum == flag_sum):
        return engine
    engine = BatchSliceEngine(graph)
    engine._freq_sum = freq_sum
    engine._flag_sum = flag_sum
    graph._batch_engine = engine
    return engine
