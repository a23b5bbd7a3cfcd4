"""Build minimal syndrome trellises and read their structure.

A stabilizer code's normalizer group has a minimal trellis: a layered
graph whose paths are exactly the group elements written site by site.
Its size at each depth is fixed by the past/future dimensions of a
trellis-oriented generating set, so the profile can be computed before
building anything.  This walkthrough builds the trellis for the
[[5,1,3]] code, checks the profile against the built graph, and then
compares orderings for a distance-5 rotated surface code.
"""
from __future__ import annotations

import numpy as np

from qtrellis import builtin, build, census, validate
from qtrellis.code import css_split, greedy_numbering, permute, profile

# ---------------------------------------------------------------------------
# The [[5,1,3]] code: profile prediction vs. the built trellis
# ---------------------------------------------------------------------------
code = builtin("five_one_three")
prof = profile(code.normalizer_tof())
print("[[5,1,3]] normalizer trellis profile")
print("  vertices per depth:", prof.v_count)
print("  edges per section: ", prof.e_count)
print("  in/out degrees:    ", prof.deg_in, prof.deg_out)
print("  totals: |V| =", prof.total_vertices, " |E| =", prof.total_edges)

t = build(code)
assert t.total_vertices == prof.total_vertices == 42
assert t.total_edges == prof.total_edges == 104
assert not validate(t), "a freshly built trellis has no structural defects"

# The paths of the trellis are the 2^(n+k) = 64 normalizer elements.
# Count them forward: a vertex's path count is the sum over its in-edges
# of their sources' counts.
count = np.ones(1)
for sec in t.sections:
    count = np.bincount(sec.target, weights=count[sec.source])
assert count[0] == 2 ** (code.n + code.k) == 64
print("  root-to-sink paths:", int(count[0]), "(= 2^(n+k))")

# The edge census classifies only a trellis that validate accepts: each
# section a union of complete bipartite blocks.  It groups sections by
# (starts, ends, overlap), and on such a trellis
# |mergers| = |expansions| = |E| - |V| + 1.
c = census(t)
print("  section configurations:", len(c.counts))
print("  expansions:", c.expansions, " mergers:", c.mergers,
      " |E|-|V|+1 =", t.total_edges - t.total_vertices + 1)

# ---------------------------------------------------------------------------
# Qudit ordering matters: the d=5 rotated surface code under three orders
# ---------------------------------------------------------------------------
print("\nrotated surface code, d = 5, X-stabilizer part")
surface = builtin("rotated_surface", 5)
x_part, _ = css_split(surface)

for label, source in (
    ("row-major order", x_part),
    ("greedy order", css_split(permute(surface, greedy_numbering(surface)))[0]),
):
    pr = profile(source.tof())
    print(f"  {label:16s} |V| = {pr.total_vertices:5d}  |E| = {pr.total_edges:5d}")

# A scrambled order is strictly worse; the profile alone shows it without
# paying for the build.
rng = np.random.default_rng(7)
scrambled = list(rng.permutation(surface.n) + 1)
pr = profile(css_split(permute(surface, scrambled))[0].tof())
print(f"  {'random order':16s} |V| = {pr.total_vertices:5d}  |E| = {pr.total_edges:5d}")
