"""The tests' differential oracle for the inclusion order.

`extends_bounded` searches a bounded universe exhaustively for a node
in T2 but not in T1.  The library decides `extends` exactly; the suites
check that the oracle never finds such a node where `extends` says YES.
"""

from __future__ import annotations

from genco.conditions import HechlerCondition, Node, _contains, _floor_at, is_prefix


def extends_bounded(
    T2: HechlerCondition, T1: HechlerCondition, depth: int, width: int
) -> Node | None:
    """First node (depth-first preorder, ascending steps) of length <=
    depth with entries <= width lying in T2 but not in T1; None if the
    bounded universe is consistent with T2 <= T1.

    Exact over the bounded universe: subtrees where both conditions are
    atom-free and T2's floor dominates T1's are skipped wholesale.
    """
    s2 = T2.stem

    def t1_admits(u: Node) -> bool:
        v, z = u[:-1], u[-1]
        if is_prefix(u, T1.stem):
            return True
        if not is_prefix(T1.stem, u):
            return False
        return T1.admits_step(v, z)

    def subtree_included(v: Node) -> bool:
        # sound prune: below v both trees are atom-free on the T1 side
        # and T2's floor admits only steps T1's floor admits too
        if not (is_prefix(s2, v) and is_prefix(T1.stem, v)):
            return False
        if any(is_prefix(v, k) for k, _ in T1.exclusions):
            return False
        return all(
            _floor_at(T2.floor, n) >= _floor_at(T1.floor, n)
            for n in range(len(v), depth)
        )

    def dfs(v: Node) -> Node | None:
        if len(v) >= depth or subtree_included(v):
            return None
        for z in (z for z in range(width + 1) if T2.admits_step(v, z)):
            u = v + (z,)
            if not t1_admits(u):
                return u
            found = dfs(u)
            if found is not None:
                return found
        return None

    # prefixes of the stem come first in preorder along the unique path
    for i in range(min(len(s2), depth) + 1):
        u = s2[:i]
        if any(e > width for e in u):
            return None
        if not _contains(T1, u):
            return u
    if len(s2) > depth or any(e > width for e in s2):
        return None
    return dfs(s2)
