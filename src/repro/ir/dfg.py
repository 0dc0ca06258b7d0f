"""Per-basic-block data-flow graphs.

Following the paper's formalization (Sec III-A), a basic block
``b = (Vd, Vo, E)`` has *data nodes* ``Vd``, *operation nodes* ``Vo``
and flow edges.  We realise this as an explicit bipartite structure:

- a :class:`DataNode` is produced either by an operation, by a constant
  (resident in the tile's constant register file), or by a *symbol
  input* (the value a cross-block symbol variable has on block entry);
- an :class:`OperationNode` consumes data nodes and (usually) produces
  exactly one data node.

Cross-block dataflow goes exclusively through symbol variables: a block
declares *symbol outputs* (name -> data node valid on block exit).  The
mapper turns symbol variables into register-file location constraints,
exactly as in the paper.
"""

from __future__ import annotations

from repro.errors import IRError, ValidationError
from repro.ir import opcodes
from repro.ir.opcodes import Opcode


class DataNode:
    """A value edge-endpoint in the DFG.

    ``kind`` is one of ``"op"`` (result of an operation), ``"const"``
    (constant register file resident) or ``"symbol"`` (cross-block
    symbol variable read at block entry).
    """

    __slots__ = ("uid", "kind", "producer", "value", "symbol", "name")

    def __init__(self, uid, kind, producer=None, value=None, symbol=None, name=None):
        self.uid = uid
        self.kind = kind
        self.producer = producer
        self.value = value
        self.symbol = symbol
        self.name = name or f"d{uid}"

    @property
    def is_const(self):
        return self.kind == "const"

    @property
    def is_symbol(self):
        return self.kind == "symbol"

    def __repr__(self):
        if self.is_const:
            return f"DataNode({self.name}=const {self.value})"
        if self.is_symbol:
            return f"DataNode({self.name}=symbol {self.symbol})"
        return f"DataNode({self.name})"


class OperationNode:
    """An operation in the DFG (maps to one context-memory instruction).

    ``region`` names the data-memory region a LOAD/STORE touches (None
    for non-memory ops or untagged addresses).  ``order_after`` lists
    operations that must execute at a strictly earlier cycle — memory
    ordering edges that carry no value and therefore need no routing.
    """

    __slots__ = ("uid", "opcode", "operands", "result", "name", "region",
                 "order_after")

    def __init__(self, uid, opcode, operands, result=None, name=None,
                 region=None):
        self.uid = uid
        self.opcode = opcode
        self.operands = list(operands)
        self.result = result
        self.name = name or f"{opcode.value}{uid}"
        self.region = region
        self.order_after = []

    def __repr__(self):
        ins = ", ".join(d.name for d in self.operands)
        out = f" -> {self.result.name}" if self.result is not None else ""
        return f"Op({self.name}: {self.opcode.value} {ins}{out})"


class DFG:
    """Data-flow graph of one basic block.

    The graph is append-only; operations are stored in creation order,
    which is guaranteed to be a topological order (operands must exist
    before the operation that consumes them).
    """

    def __init__(self, block_name=""):
        self.block_name = block_name
        self.ops = []
        self.data = []
        self.symbol_inputs = {}
        self.symbol_outputs = {}
        self._const_cache = {}
        self._uid = 0
        # Memory-ordering bookkeeping: per region, the last STORE and
        # the LOADs issued since it.  The pseudo-region None conflicts
        # with every region (conservative for untagged addresses).
        self._last_store = {}
        self._loads_since_store = {}

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------
    def _next_uid(self):
        self._uid += 1
        return self._uid

    def new_const(self, value):
        """Return the (deduplicated) constant data node for ``value``."""
        value = opcodes.wrap32(int(value))
        node = self._const_cache.get(value)
        if node is None:
            node = DataNode(self._next_uid(), "const", value=value,
                            name=f"c{value}")
            self._const_cache[value] = node
            self.data.append(node)
        return node

    def new_symbol_input(self, symbol):
        """Return the (unique) entry-value data node for a symbol."""
        node = self.symbol_inputs.get(symbol)
        if node is None:
            node = DataNode(self._next_uid(), "symbol", symbol=symbol,
                            name=f"s_{symbol}")
            self.symbol_inputs[symbol] = node
            self.data.append(node)
        return node

    def add_op(self, opcode, operands, name=None, region=None):
        """Append an operation; returns its result data node (or None).

        Memory operations receive ordering edges automatically: a LOAD
        must follow the last STORE that may alias it, a STORE must
        follow every memory operation that may alias it.
        """
        if not isinstance(opcode, Opcode):
            raise IRError(f"expected Opcode, got {opcode!r}")
        expected = opcodes.arity(opcode)
        if len(operands) != expected:
            raise IRError(
                f"{opcode} expects {expected} operands, got {len(operands)}")
        for operand in operands:
            if not isinstance(operand, DataNode):
                raise IRError(f"operand {operand!r} is not a DataNode")
            if operand.uid > self._uid:
                raise IRError("operand does not belong to this DFG")
        op = OperationNode(self._next_uid(), opcode, operands, name=name,
                           region=region)
        if opcodes.has_result(opcode):
            result = DataNode(self._next_uid(), "op", producer=op)
            op.result = result
            self.data.append(result)
        if opcodes.is_memory(opcode):
            self._add_memory_ordering(op)
        self.ops.append(op)
        return op.result

    def _aliasing_regions(self, region):
        """Regions that may alias ``region`` (None aliases everything)."""
        if region is None:
            return set(self._last_store) | set(self._loads_since_store) | {None}
        return {region, None}

    def _add_memory_ordering(self, op):
        aliasing = self._aliasing_regions(op.region)
        if op.opcode is Opcode.LOAD:
            for region in aliasing:
                store = self._last_store.get(region)
                if store is not None and store not in op.order_after:
                    op.order_after.append(store)
            self._loads_since_store.setdefault(op.region, []).append(op)
        else:  # STORE
            for region in aliasing:
                store = self._last_store.get(region)
                if store is not None and store not in op.order_after:
                    op.order_after.append(store)
                for load in self._loads_since_store.get(region, []):
                    if load not in op.order_after:
                        op.order_after.append(load)
            self._last_store[op.region] = op
            self._loads_since_store[op.region] = []
            if op.region is None:
                # A wild store invalidates every region's history.
                for region in list(self._last_store):
                    self._last_store[region] = op
                for region in list(self._loads_since_store):
                    self._loads_since_store[region] = []

    def set_symbol_output(self, symbol, data_node):
        """Declare the value ``symbol`` carries on block exit."""
        if not isinstance(data_node, DataNode):
            raise IRError(f"{data_node!r} is not a DataNode")
        self.symbol_outputs[symbol] = data_node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def consumers(self, data_node):
        """All operations consuming ``data_node`` (with multiplicity 1)."""
        return [op for op in self.ops if data_node in op.operands]

    def consumer_count(self, data_node):
        """Fan-out of a data node, counting repeated operand slots."""
        return sum(op.operands.count(data_node) for op in self.ops)

    def op_by_uid(self, uid):
        for op in self.ops:
            if op.uid == uid:
                return op
        raise IRError(f"no operation with uid {uid}")

    @property
    def n_ops(self):
        return len(self.ops)

    def predecessors(self, op):
        """Ops that must precede ``op``: data producers + order edges."""
        seen = []
        for operand in op.operands:
            producer = operand.producer
            if producer is not None and producer not in seen:
                seen.append(producer)
        for earlier in op.order_after:
            if earlier not in seen:
                seen.append(earlier)
        return seen

    def successors(self, op):
        """Ops that must follow ``op``: data consumers + order edges."""
        seen = list(self.consumers(op.result)) if op.result is not None else []
        for other in self.ops:
            if op in other.order_after and other not in seen:
                seen.append(other)
        return seen

    def data_successors(self, op):
        """Only the value consumers of ``op`` (routing targets)."""
        if op.result is None:
            return []
        return self.consumers(op.result)

    def validate(self):
        """Structural checks; raises :class:`ValidationError`."""
        ids = set()
        for node in self.data:
            if node.uid in ids:
                raise ValidationError(f"duplicate data uid {node.uid}")
            ids.add(node.uid)
        for op in self.ops:
            if op.uid in ids:
                raise ValidationError(f"duplicate op uid {op.uid}")
            ids.add(op.uid)
            for operand in op.operands:
                if operand not in self.data:
                    raise ValidationError(
                        f"{op} consumes foreign data node {operand}")
            if op.result is not None and op.result.producer is not op:
                raise ValidationError(f"{op} result backlink broken")
            if opcodes.is_memory(op.opcode) and op.opcode is Opcode.LOAD:
                if op.result is None:
                    raise ValidationError(f"LOAD {op} lacks a result")
        for symbol, node in self.symbol_outputs.items():
            if node not in self.data:
                raise ValidationError(
                    f"symbol output {symbol} bound to foreign node")
        return True

    def __repr__(self):
        return (f"DFG({self.block_name!r}: {len(self.ops)} ops, "
                f"{len(self.data)} data)")
