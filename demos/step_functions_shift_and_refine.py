"""Step functions under shifting and refining: a dense slice of L1.

Points are rational step functions on unit intervals [k, k+1).  The
generator t shifts right by one; d halves the value while doubling the
interval.  They do not commute -- refining a shifted function shifts it
twice as far -- and the single relation d o t == t^2 o d gives every
word the normal form t^m d^n.  The completion holds step functions on
arbitrarily fine dyadic grids, extending left of zero, with exact
integrals and norms.
"""

from fractions import Fraction

from pseudoquotients import DyadicStepMap, DyadicSteps, StepFunction, frac_inverse

inst = DyadicSteps()
t = DyadicStepMap(1, 0)
d = DyadicStepMap(0, 1)

box = StepFunction((Fraction(3), Fraction(1)))  # 3 on [0,1), 1 on [1,2)

print("box               ->", [str(c) for c in box.coefficients])
print("shifted (t)       ->", [str(c) for c in inst.apply(t, box).coefficients])
print("refined (d)       ->", [str(c) for c in inst.apply(d, box).coefficients])

# the defining relation, as normal forms and on a concrete function
print("d o t == t^2 d    ->", inst.compose(d, t) == DyadicStepMap(2, 1))
print("on the box        ->",
      inst.apply(inst.compose(d, t), box) == inst.apply(inst.compose(inst.compose(t, t), d), box))

# Solving d(xi) = box needs a finer grid than any point offers: the
# canonical value lives on cells of width 1/2 with doubled values.
sharp = inst.canonical_value(inst.solve(d, box))
print("solve d(xi)=box   ->", inst.canonical_json(sharp))

# Solving t(xi) = box pushes support left of the origin.
early = inst.canonical_value(inst.solve(t, box))
print("solve t(xi)=box   ->", inst.canonical_json(early))

# Undoing a refinement via the fraction group: d~^-1 applied to a class.
sharper = inst.frac_apply(frac_inverse(inst.frac_from_element(d)), inst.embed(box))
print("d~^-1 embed(box)  ->", inst.canonical_value(sharper) == sharp)

# Both generators preserve the integral and the L1 norm, so classes
# inherit them exactly from any numerator.
p = inst.solve(DyadicStepMap(4, 3), box)
print("integral of class ->", inst.integral(p), "   (box integrates to", str(box.integral()) + ")")
print("L1 norm of class  ->", inst.l1_norm(p))
