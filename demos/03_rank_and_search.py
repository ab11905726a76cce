"""Reachability ranks and the help-avoiding meet.

A stem-based dense set knows which stems witness membership and which
first steps make progress.  The rank of a node counts the progress
steps still needed; the search walks them, always taking the least
legal step that stays outside the help set, so dense sets are met
without planting unintended labels.
Run with:  python3 demos/03_rank_and_search.py
"""

from genco import (
    FULL_TREE,
    DominateSet,
    Evens,
    FloorRule,
    HechlerCondition,
    StemHitsSet,
    StemLengthSet,
    extend_in_A,
    rank_bounded,
    render_condition,
)

D = StemLengthSet(3)
print("ranks toward 'stem at least 3 long':")
for t in ((), (7,), (7, 7), (1, 2, 3)):
    print(f"   node {t}: rank {rank_bounded(D, t, max_rank=16, width=64)}")

print("\nranks toward 'some stem entry >= 5':")
D2 = StemHitsSet(5)
for t in ((), (4, 4), (9,)):
    print(f"   node {t}: rank {rank_bounded(D2, t, max_rank=16, width=64)}")

A = Evens()
print("\nmeeting dense sets while avoiding the evens:")
R = extend_in_A(FULL_TREE, StemLengthSet(2), A)
print("   stem-length 2:", render_condition(R), "(least odd steps)")

T = HechlerCondition(exclusions={(): {5}})
R = extend_in_A(T, StemHitsSet(4), A)
print("   hit >= 4 with 5 excluded:", render_condition(R))

D3 = DominateSet(FloorRule((), 0, 4))
R = extend_in_A(FULL_TREE, D3, A)
print("   dominate b=4 prunes in place:", render_condition(R))
print("   member verdict:", "yes" if D3.member(R) else "no")
