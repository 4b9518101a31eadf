"""A tower of levels: one ascent map, one squeeze per floor.

Integer payloads live on levels 1, 2, 3, ...  The ascent F moves a
point up one level (payload + 1); the squeeze P_j acts only on level j
(payload -> 2*payload - j).  Ascending commutes with squeezing one
floor up: F o P_j == P_{j+1} o F.  The rules are three integers -- the
ascent's step s, the squeeze's factor a and constant e -- and the
squeeze's level coefficient c = s*(1 - a) is derived, since the square
commutes exactly for that value.  Words therefore normalize to
"squeezes, then ascents", and the completion adds floors below level 1
with rational payloads.
"""

from pseudoquotients import Tower, TowerConfig, TowerMap, TowerPoint

inst = Tower()
F = TowerMap((), 1)
P1 = TowerMap(((1, 1),), 0)
P2 = TowerMap(((2, 1),), 0)

pt = TowerPoint(2, 5)
print("ascend (2,5)        ->", inst.apply(F, pt))
print("squeeze level 2     ->", inst.apply(P2, pt))
print("F o P2 == P3 o F    ->",
      inst.compose(F, P2) == inst.compose(TowerMap(((3, 1),), 0), F))

# Other rules: ascent x -> x + 2 and squeeze x -> 3x + c*j, where the
# derived c = 2*(1 - 3) = -4 makes the square commute at every point.
custom = TowerConfig(ascend_add=2, squeeze_mul=3)
up_then_in = custom.squeeze(custom.ascend(pt))
print("c for s=2, a=3      ->", custom.squeeze_level_coeff)
print("P3 F == F P2 there  ->", up_then_in == custom.ascend(custom.squeeze(pt)), up_then_in)

# Powers are closed forms, so a ten-million-floor ascent costs one step.
print("F^10000000 (2,5)    ->", inst.apply(TowerMap((), 10_000_000), pt))

# Solving F(xi) = (2,5) descends a floor; solving P1(xi) = (1,3)
# inverts the squeeze; mixing them can leave the integer tower
# entirely -- level 0, rational payload.
print("solve F(xi)=(2,5)   ->", inst.canonical_value(inst.solve(F, pt)))
print("solve P1(xi)=(1,3)  ->", inst.canonical_value(inst.solve(P1, TowerPoint(1, 3))))
deep = inst.solve(inst.compose(P1, inst.compose(P1, F)), TowerPoint(1, 2))
print("solve P1^2 F = (1,2)->", inst.canonical_value(deep))

# A subtlety worth seeing once: P1 o F and F agree on every point
# (nothing on level 1 survives an ascent), yet they are different
# elements -- and genuinely different on the completion, where classes
# with denominator F reach level 0.
p1f, f = inst.compose(P1, F), F
sample = TowerPoint(3, 7)
print("P1 F == F on points ->", inst.apply(p1f, sample) == inst.apply(f, sample))
print("P1 F == F as maps?  ->", p1f == f)
below = inst.solve(F, TowerPoint(1, 4))       # a class at level 0
print("they differ at x/F  ->",
      inst.canonical_value(inst.extend_apply(p1f, below)),
      "vs",
      inst.canonical_value(inst.extend_apply(f, below)))
