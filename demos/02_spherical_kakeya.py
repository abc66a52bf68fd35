"""Build the two spherical Kakeya sets and compare them to the lower bound.

A radius-kakeya set contains a full sphere of every nonzero radius; a
center-kakeya set contains, for every value c, a full sphere centered at
a point with first coordinate c.  Both live in F_q^n and both get close
to half the space, which the lower bound says is unavoidable.
"""

import time

from ffkakeya import (
    center_spherical,
    exact_str,
    make_field,
    radius_spherical,
    spherical_kakeya_lower_bound,
    verify_center_kakeya,
    verify_radius_kakeya,
)

print("radius construction: union of spheres S_r centered at (r, 0, ..., 0)")
print(f"{'q':>3} {'n':>2} {'size':>6} {'bound':>6} {'space':>7}")
for q, n in [(3, 4), (5, 4), (7, 4), (9, 4)]:
    p = 3 if q == 9 else q
    k = 2 if q == 9 else 1
    field = make_field(p, k)
    res = radius_spherical(field, n)
    bound = spherical_kakeya_lower_bound(q, n)
    assert verify_radius_kakeya(res.points, res.witness)
    print(f"{q:>3} {n:>2} {res.size:>6} {exact_str(bound.value):>6} {q**n:>7}")
print()
print("any two of those spheres meet in a single hyperplane and no three")
print("share a point, so inclusion-exclusion gives the size exactly:")
res = radius_spherical(make_field(5), 3)
acct = res.accounting
print(f"  q=5 n=3: {acct['sumSphereSizes']} - {acct['sumPairwiseIntersectionsOrdered']}/2 "
      f"= {res.size}")
print()

print("no certificate needed: the exhaustive check counts the points outside")
print("every sphere, one coordinate at a time")
res = radius_spherical(make_field(11), 4)
start = time.perf_counter()
verdict = verify_radius_kakeya(res.points)
print(f"  q=11 n=4: every radius found by the exhaustive check: {verdict} "
      f"({time.perf_counter() - start:.2f} s)")
print()

print("center construction: keep (x, y) whenever r - ||y|| is a square")
for q, n in [(5, 5), (7, 5), (11, 5)]:
    field = make_field(q)
    res = center_spherical(field, n)
    assert verify_center_kakeya(res.points, res.witness)
    main = (q**n + q**(n - 1)) // 2
    print(f"  q={q} n={n}: size {res.size}, main terms {main}, "
          f"gap {res.size - main} (order q^{n - 2} = {q**(n - 2)})")
