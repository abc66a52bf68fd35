"""How small can a circular Kakeya set actually be?

For q up to 13 the exact minimum is computed by a normalized DFS, which
certifies it by exhausting every smaller size.  Past that, a greedy pass
still gives a working cover quickly.
"""

from ffkakeya import (
    circular_lower_bounds,
    greedy_circular,
    make_field,
    minimal_circular_exact,
    prime_power_decompose,
)

print("exact minima (certified):")
print(f"{'q':>3} {'kind':>7} {'lower':>5} {'min':>4}  example")
for q in (3, 5, 7, 9, 11, 13):
    field = make_field(*prime_power_decompose(q))
    dmin, smin = circular_lower_bounds(q)
    for kind, lower in (("radius", dmin), ("center", smin)):
        out = minimal_circular_exact(field, kind)
        print(f"{q:>3} {kind:>7} {lower:>5} {out.size:>4}  {list(out.example)}")
print()
print("q = 7 radius is a perfect difference set: all of F_7 from 3 elements")
print()

print("greedy covers beyond the exact limit:")
for q in (17, 25, 27, 49):
    field = make_field(*prime_power_decompose(q))
    for kind in ("radius", "center"):
        out = greedy_circular(field, kind)
        print(f"  q={q:>2} {kind:>6}: size {out.size}, set {list(out.example)}")
