"""Line Brauer trees, Green walks, the syzygy action on walk positions and
the weight-one block labeling.

Two shapes appear:

  * kind "B": a path with 2*ell + 1 nodes labeled ell+, ..., 1+, 0, 1-, ...,
    ell-, all of multiplicity one; the Green walk has length 4*ell.
  * kind "A": a path 0 - 1 - ... - ell whose node 0 is exceptional of
    multiplicity two (it carries the character pair 0+, 0-); the walk has
    length 2*ell.

A walk entry is reported as the tuple of character names attached to the
node, so the exceptional node contributes its pair sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .abacus import ell
from .exceptions import DomainError
from .partitions import Partition, is_odd_partition
from .rouquier import _rho_extension, rouquier_core


@dataclass(frozen=True)
class BrauerTree:
    kind: str  # "A" | "B"
    ell: int
    path: tuple  # node names in path order

    def edges(self) -> list[tuple]:
        return [(self.path[t], self.path[t + 1]) for t in range(len(self.path) - 1)]

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.path)

    def multiplicity(self, node: str) -> int:
        return 2 if self.kind == "A" and node == "0" else 1

    def node_characters(self, node: str) -> tuple:
        if node not in self.node_set:
            raise DomainError(f"{node} is not a node of this tree")
        if self.kind == "A" and node == "0":
            return ("0+", "0-")
        return (node,)


@dataclass(frozen=True)
class GreenWalk:
    tree: BrauerTree
    nodes: tuple  # node sequence v_0 ... v_{L-1}

    def __len__(self):
        return len(self.nodes)

    def characters(self) -> tuple:
        return tuple(self.tree.node_characters(v) for v in self.nodes)


# `tree walk --kind B --ell 100000` prints its 4*10^5 nodes in about 1 s
ELL_MAX = 10**5


def build(kind: str, ell: int) -> BrauerTree:
    if ell < 1:
        raise ValueError("ell must be positive")
    if ell > ELL_MAX:
        raise DomainError(f"ell must be at most {ELL_MAX}: {ell}")
    if kind == "B":
        path = tuple(
            [f"{i}+" for i in range(ell, 0, -1)]
            + ["0"]
            + [f"{i}-" for i in range(1, ell + 1)]
        )
        return BrauerTree("B", ell, path)
    if kind == "A":
        return BrauerTree("A", ell, tuple(str(i) for i in range(ell + 1)))
    raise ValueError(f"kind must be A or B: {kind!r}")


def walk(tree: BrauerTree) -> GreenWalk:
    """The Green walk: from one end of the path to the other and back,
    phased to start at the node ell+ (kind B) or ell (kind A)."""
    path = tree.path
    if tree.kind == "B":
        return GreenWalk(tree, path + path[-2:0:-1])
    return GreenWalk(tree, path[::-1] + path[1:-1])


def heller(tree: BrauerTree, start, n: int) -> list[tuple]:
    """Walk entries n syzygy steps ahead of every occurrence of `start`.

    `start` may be a walk index or a node name; the result lists the
    character tuples guaranteed at offset n (one per occurrence of the start
    on the walk, deduplicated in walk order).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = walk(tree)
    if isinstance(start, int):
        if not 0 <= start < len(w):
            raise DomainError(f"walk index out of range: {start}")
        positions = [start]
    else:
        positions = [t for t, v in enumerate(w.nodes) if v == start]
        if not positions:
            raise DomainError(f"{start!r} does not occur on the walk")
    out = []
    for t in positions:
        entry = tree.node_characters(w.nodes[(t + n) % len(w)])
        if entry not in out:
            out.append(entry)
    return out


@dataclass(frozen=True)
class WeightOneTree:
    """Brauer tree of a weight-one block over a 1-Rouquier core.

    Nodes carry sign-refined block characters (lam, sign): for an even core
    the shape is "B" with node j+- holding (rho^j, +-1) and the center
    holding rho^0; for an odd core the shape is "A" with the exceptional
    node holding the pair over rho^0.
    """

    rho: Partition
    p: int
    tree: BrauerTree
    node_chars: tuple  # ((node, ((lam, sign), ...)), ...)

    def edge_sums(self) -> list[tuple]:
        """Projective characters: for each edge the refined block labels."""
        d = dict(self.node_chars)
        return [d[a] + d[b] for a, b in self.tree.edges()]


def weight_one_map(rho: Partition, p: int) -> WeightOneTree:
    rho = rouquier_core(rho, p, 1)
    L = ell(p)
    ext = {j: _rho_extension(rho, p, j) for j in range(L + 1)}
    assignment = {}
    if is_odd_partition(rho):
        tree = build("A", L)
        assignment["0"] = ((ext[0], 1), (ext[0], -1))
        for j in range(1, L + 1):
            assignment[str(j)] = ((ext[j], 0),)
    else:
        tree = build("B", L)
        assignment["0"] = ((ext[0], 0),)
        for j in range(1, L + 1):
            assignment[f"{j}+"] = ((ext[j], 1),)
            assignment[f"{j}-"] = ((ext[j], -1),)
    return WeightOneTree(rho, p, tree, tuple(sorted(assignment.items())))
