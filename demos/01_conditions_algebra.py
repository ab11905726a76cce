"""Tour of the symbolic tree conditions.

A condition is a finite description of an infinite tree of finite
sequences: a stem everything must pass through, exclusion atoms that
forbid single steps at single nodes, and a floor rule forcing steps
above the stem to be large.  Run with:  python3 demos/01_conditions_algebra.py
"""

from genco import (
    FULL_TREE,
    FloorRule,
    HechlerCondition,
    contains,
    excluded_successors,
    extends,
    meet,
    render_condition,
    restrict,
)

T = HechlerCondition(stem=(1,), exclusions={(1,): {0, 2}})
print("condition:", render_condition(T))
print("contains (1,3)?", contains(T, (1, 3)))
print("contains (1,2)?", contains(T, (1, 2)), " (2 is excluded at [1])")
print("contains (0,)?", contains(T, (0,)), " (incomparable with the stem)")
print("excluded first steps at [1]:", excluded_successors(T, (1,)))

print()
print("restricting to the node (1,3) absorbs the exclusion into the stem:")
R = restrict(T, (1, 3))
print("  ", render_condition(R))

print()
print("floors intersect by pointwise max, staying table+affine:")
F1 = HechlerCondition(floor=FloorRule((), 0, 2))  # steps must exceed 2
F2 = HechlerCondition(floor=FloorRule((), 1, 0))  # steps must exceed the level
M = meet(F1, F2)
print("  ", render_condition(M))
print("   floor values at levels 0..5:", [M.floor.value(n) for n in range(6)])

print()
print("inclusion is decided exactly: yes, or no with a witness node:")
print("   extends(R, T):", extends(R, T).verdict.value)
bad = extends(FULL_TREE, HechlerCondition(exclusions={(): {4}}))
print("   full tree vs atom at root:", bad.verdict.value, "witness", bad.witness)
# a lower floor at the stem, with every step it lets through excluded by atoms
masked = HechlerCondition(exclusions={(): {1, 2, 3, 4, 5}}, floor=FloorRule((0,), 0, 0))
print("   atoms masking a lower floor at the stem:",
      extends(masked, HechlerCondition(floor=FloorRule((5,), 0, 0))).verdict.value)
