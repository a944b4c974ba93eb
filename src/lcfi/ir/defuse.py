"""Def-use graph over indexed instructions."""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import IrModule
from .validate import operand_refs


class IndicesMissing(Exception):
    pass


@dataclass(frozen=True)
class UseGraph:
    """Edges (producer index, consumer index) within single functions.

    Branch targets and phi incoming labels are not operands, so control-flow
    edges never appear here; a phi's value operands do.
    """

    edges: frozenset[tuple[int, int]]
    opcode_of: dict[int, str] = field(compare=False, default_factory=dict)

    def __post_init__(self):
        # Each index's consumers and producers in ascending order, built once.
        succ: dict[int, list[int]] = {}
        pred: dict[int, list[int]] = {}
        for p, c in sorted(self.edges):
            succ.setdefault(p, []).append(c)
            pred.setdefault(c, []).append(p)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)

    def successors(self, index: int) -> list[int]:
        return list(self._succ.get(index, ()))

    def predecessors(self, index: int) -> list[int]:
        return list(self._pred.get(index, ()))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def build_def_use(module: IrModule) -> UseGraph:
    """Build the module's def-use graph; every instruction must carry an index."""
    edges: set[tuple[int, int]] = set()
    opcode_of: dict[int, str] = {}
    for fn in module.functions:
        producer: dict[str, int] = {}
        for ins in fn.instructions():
            if ins.index is None:
                raise IndicesMissing(
                    f"unindexed instruction in @{fn.name}; run assign_indices first")
            opcode_of[ins.index] = ins.opcode
            if ins.result is not None:
                producer[ins.result] = ins.index
        for ins in fn.instructions():
            for v in ins.operands:
                for ref in operand_refs(v):
                    if ref.kind == "reg" and ref.name in producer:
                        edges.add((producer[ref.name], ins.index))
    return UseGraph(frozenset(edges), opcode_of)
