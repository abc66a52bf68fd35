"""The small side of the story: a union of hyperspheres of every radius
that still fits inside the null quadric.

A hypersphere is a sphere intersected with a hyperplane.  Taking, for
each point a of nonzero norm, the hypersphere through the origin cut out
by ||x - a|| = -||a|| and a.(x - a) = 0 produces one of every nonzero
radius while every point of the union satisfies ||x|| = 0.  In fact the
union is exactly the null quadric minus the origin, {x != 0 : ||x|| = 0}
(the proof is in the docstring of hypersphere_union), which keeps the
size near q^(n-1) instead of q^n / 2.
"""

from ffkakeya import hypersphere_union, make_field, prime_power_decompose

print(f"{'q':>3} {'n':>2} {'size':>6} {'upper':>6} {'null quadric':>13} {'space':>7}")
for q in (3, 5, 7):
    for n in (3, 4):
        field = make_field(*prime_power_decompose(q))
        res = hypersphere_union(field, n)
        assert res.witness_valid and res.bound_met
        print(f"{q:>3} {n:>2} {res.size:>6} {int(res.bound):>6} "
              f"{res.accounting['nullQuadricSize']:>13} {q**n:>7}")
print()
print("the witness stores one hypersphere per radius; each is checked to")
print("lie inside the set, and the set never exceeds q^(n-1) + q^(n//2) - q^((n-1)//2)")
