"""Tour of the braid fan: quotient coordinates, flags, and balancing.

Points live in R^E modulo the all-ones line; we pin the coordinate of
element 0 to zero, so a point on n+1 elements is a tuple of length n.
Cones are flags of proper nonempty subsets, and a weighted fan is balanced
when around every codimension-one face the weighted extra rays sum into
the span of that face.
"""

from matchow import (
    Matroid,
    braid_cone_of,
    complete_graph_k4,
    e_image,
    is_balanced,
    matroid_fan,
)


def show(label, value):
    print(f"{label:44s} {value}")


print("== quotient coordinates ==")
show("e_{1} on 4 elements", e_image(4, {1}))
show("e_{0} on 4 elements (note the pinning)", e_image(4, {0}))
show("e_{0,2} on 4 elements", e_image(4, {0, 2}))
print()

print("== locating points in the braid fan ==")
# full coordinates (0, -1, -2): strictly decreasing, a full flag
show("cone of (0,-1,-2)", braid_cone_of(3, (-1, -2)))
# a tie merges two levels and drops the flag one step
show("cone of (0, 0,-1)", braid_cone_of(3, (0, -1)))
show("cone of the origin", braid_cone_of(3, (0, 0)))
print()

print("== the fan of a matroid ==")
u23 = Matroid.uniform(2, 3)
fan = matroid_fan(u23)
print(f"uniform(2,3): {fan}")
for cone in fan.cones():
    rays = [sorted(s) for s in cone]
    print(f"  flag {rays}  weight {fan.weight(cone)}")
ok, cert = is_balanced(fan)
print(f"balanced: {ok}")
print()

print("== a corrupted weight fails with a certificate ==")
bad = fan.reweighted((frozenset({0}),), 2)
ok, cert = is_balanced(bad)
print(f"weights (2,1,1) balanced: {ok}")
print(f"certificate (the violating face): {cert!r}")
print("the three rays sum to e_0 + e_1 + e_2 + e_0 = e_0 != 0,")
print("so the weighted rays no longer cancel around the origin")
print()

print("== a bigger fan ==")
k4 = complete_graph_k4()
fan = matroid_fan(k4)
print(f"k4: {fan}")
ok, _ = is_balanced(fan)
print(f"balanced: {ok}")
assert ok
