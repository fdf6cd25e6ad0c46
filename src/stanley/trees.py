"""
Transition trees for Stanley symmetric functions.

Three variants share one node type: the classical tree recurses through
maximal transitions until every leaf is Grassmannian, the modified tree
expands the largest pivoted box of the Rothe pipedream until every leaf
is dominant, and the pipedream tree decorates the modified tree with the
droops realizing each transition.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .permutations import (
    Perm,
    apply_transposition,
    embed_left,
    format_permutation,
    is_dominant,
    is_grassmannian,
    last_descent_step,
    up_pivots,
    up_slots,
)
from .pipedreams import (
    BumplessPipedream,
    droop,
    is_eg,
    max_pivot_box,
    render,
    rothe,
    rothe_diagram,
)


@dataclass
class TreeNode:
    id: int
    parent: int | None
    perm: Perm
    move: tuple[int, int, int] | None
    pipedream: BumplessPipedream | None = None
    children: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def leaf(self) -> bool:
        return not self.children


@dataclass
class TransitionTree:
    kind: str
    nodes: list[TreeNode]

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def leaves(self) -> list[TreeNode]:
        return [node for node in self.nodes if node.leaf]

    def add_child(
        self, node: TreeNode, perm: Perm, move: tuple[int, int, int] | None
    ) -> TreeNode:
        """Append a new last child of node and return it."""
        child = TreeNode(len(self.nodes), node.id, perm, move)
        self.nodes.append(child)
        node.children.append(child.id)
        return child


# The EG tree of a permutation, for as long as some caller holds it.  A
# tree is stored only after every check of its build has passed.
_EG_TREES: weakref.WeakValueDictionary[Perm, TransitionTree] = weakref.WeakValueDictionary()


def maximal_transition(w: Perm) -> tuple[int, int, frozenset[int], frozenset[Perm]]:
    """
    The transition at the last descent r of w: s marks the last position
    with w_s < w_r, and the returned permutations all have length l(w)
    and sum to the same Stanley symmetric function as w.

    The pivot set I is reported for w itself; when it is empty, the
    permutations come from the transition of the embedded permutation
    1 x w instead and live in a larger symmetric group.
    """
    r, s, v, pivots = last_descent_step(w)
    if pivots:
        children = frozenset(apply_transposition(v, i, r) for i in pivots)
        return r, s, frozenset(pivots), children
    _, _, _, children = maximal_transition(embed_left(w))
    return r, s, frozenset(), children


def mls_tree(w: Perm) -> TransitionTree:
    """
    The modified transition tree: every node keeps the ambient size of w
    and every leaf is dominant.  A node u expands max_pivot_box(u) =
    (p, q), and its children are the transition covers of u t_pq at p.

    >>> [format_permutation(v.perm) for v in mls_tree((2, 3, 1, 6, 5, 4)).leaves()]
    ['431256', '423156', '342156', '324516']
    """
    tree = TransitionTree("mls", [TreeNode(0, None, w, None)])
    stack = [tree.root]
    while stack:
        node = stack.pop()
        u = node.perm
        if is_dominant(u):
            continue
        p, q = max_pivot_box(u)
        if node.move is not None:
            pp, pq, _ = node.move
            # Each expansion moves strictly up the box order.
            assert (p, u[q - 1]) < (pp, tree.nodes[node.parent].perm[pq - 1]), (u, p, q)
        v = apply_transposition(u, p, q)
        pivots = up_pivots(v, p)
        assert pivots, (u, p, q)
        assert {apply_transposition(v, p, j) for j in up_slots(v, p)} == {u}, (u, p, q)
        children = []
        for i in pivots:
            child_perm = apply_transposition(v, i, p)
            assert len(child_perm) == len(w), (u, child_perm)
            children.append(tree.add_child(node, child_perm, (p, q, i)))
        stack.extend(reversed(children))
    return tree


def eg_tree(w: Perm) -> TransitionTree:
    """
    The modified transition tree with each node carrying the bumpless
    pipedream obtained by drooping along the node's transition; leaves
    carry the EG-pipedreams of w.  The nodes are listed parents first, so
    one pass over them droops every child from its parent's pipedream.

    While any caller holds the tree of w, every call for w returns that
    same object instead of building it again, so it must not be mutated.

    >>> w = (2, 3, 1, 6, 5, 4)
    >>> [is_eg(v.pipedream) for v in eg_tree(w).leaves()]
    [(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]
    >>> eg_tree(w) is eg_tree(w)
    True
    """
    tree = _EG_TREES.get(w)
    if tree is not None:
        return tree
    tree = TransitionTree("eg", mls_tree(w).nodes)
    tree.root.pipedream = rothe(w)
    for node in tree.nodes:
        if node.move is not None:
            parent = tree.nodes[node.parent]
            u, (p, q, i) = parent.perm, node.move
            node.pipedream = droop(parent.pipedream, (i, u[i - 1]), (p, u[q - 1]))
            assert frozenset(node.pipedream.empty_boxes()) == rothe_diagram(
                node.perm
            ), (u, node.perm)
        if node.leaf:
            assert is_eg(node.pipedream) is not None, node.perm
    _EG_TREES[w] = tree
    return tree


def ls_tree(w: Perm) -> TransitionTree:
    """
    The classical transition tree: nodes with an empty pivot set gain a
    single embedded child 1 x w (with a larger ambient size and no move
    metadata), and every leaf is Grassmannian.

    A branch only ends once its Grassmannian permutation arrives through
    the smallest pivot of its parent's transition; one reached through a
    larger pivot is resolved further.  Those extra steps run through
    singleton transitions, so they leave the leaf shapes untouched and
    always settle.

    >>> [format_permutation(v.perm) for v in ls_tree((2, 3, 1, 6, 5, 4)).leaves()]
    ['351246', '2361457', '2451367', '2346157']
    """
    tree = TransitionTree("ls", [TreeNode(0, None, w, None)])
    # Each entry is a node still to resolve, the number of embeddings in
    # a row that led to it, and whether a Grassmannian node may end its
    # branch there: at the root and at the first child of a transition.
    stack = [(tree.root, 0, True)]
    while stack:
        node, embed_run, may_end = stack.pop()
        u = node.perm
        if may_end and is_grassmannian(u):
            continue
        if embed_run > 2 * len(w):
            raise RuntimeError(f"embedding guard exceeded at {u}")
        r, s, v, pivots = last_descent_step(u)
        if not pivots:
            child = tree.add_child(node, embed_left(u), None)
            stack.append((child, embed_run + 1, False))
            continue
        children = [
            tree.add_child(node, apply_transposition(v, i, r), (r, s, i)) for i in pivots
        ]
        stack.extend((child, 0, child is children[0]) for child in reversed(children))
    return tree


def leaf_path(tree: TransitionTree, leaf: TreeNode | int) -> list[TreeNode]:
    """Root-first path down to a leaf, move metadata included.  Raises
    ValueError for an id outside the tree or a node that is not a leaf."""
    if isinstance(leaf, int) and not 0 <= leaf < len(tree.nodes):
        raise ValueError(f"no node {leaf}: the ids run from 0 to {len(tree.nodes) - 1}")
    node = tree.nodes[leaf] if isinstance(leaf, int) else leaf
    if not node.leaf:
        raise ValueError(f"node {node.id} ({format_permutation(node.perm)}) is not a leaf")
    path = [node]
    while node.parent is not None:
        node = tree.nodes[node.parent]
        path.append(node)
    return path[::-1]


def to_json(tree: TransitionTree) -> dict:
    return {
        "schema": 1,
        "kind": tree.kind,
        "nodes": [
            {
                "id": node.id,
                "parent": node.parent,
                "perm": list(node.perm),
                "n": node.n,
                "move": None if node.move is None else dict(zip("pqi", node.move)),
                "pipedream": None if node.pipedream is None else render(node.pipedream),
                "leaf": node.leaf,
            }
            for node in tree.nodes
        ],
    }


def render_ascii(tree: TransitionTree) -> str:
    def label(node: TreeNode) -> str:
        text = format_permutation(node.perm)
        if node.move is not None:
            p, q, i = node.move
            text += f"  p={p} q={q} i={i}"
        elif node.parent is not None:
            text += "  embedded"
        return text

    # Each entry is a node still to print, the start of its line and the
    # start of its children's lines; children are pushed in reverse so
    # that they pop in order.  An explicit stack, not a recursive closure,
    # so that nothing here is a reference cycle.
    lines: list[str] = []
    stack = [(tree.root, "", "")]
    while stack:
        node, lead, prefix = stack.pop()
        lines.append(lead + label(node))
        for pos in reversed(range(len(node.children))):
            last = pos == len(node.children) - 1
            stack.append((
                tree.nodes[node.children[pos]],
                prefix + ("└─ " if last else "├─ "),
                prefix + ("   " if last else "│  "),
            ))
    return "\n".join(lines)
