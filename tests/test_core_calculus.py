"""The derived calculus, exercised uniformly across every built-in instance.

Each property here holds for structural reasons in the underlying
construction; the tests sample representatives and check the exact
statements, with related pairs built through `pq_left_multiply` chains so
that both the positive and the negative branches occur.
"""

from pseudoquotients import GroupFraction, Pseudoquotient, frac_inverse

TRIALS = 60


def related_pair(instance, rng):
    p = instance.random_pseudoquotient(rng)
    q = instance.pq_left_multiply(p, instance.random_element(rng))
    return p, q


def test_equivalence_reflexive(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(p, p)


def test_equivalence_symmetric(instance, rng):
    for _ in range(TRIALS):
        p, q = related_pair(instance, rng)
        r = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(p, q) and instance.pq_equivalent(q, p)
        assert instance.pq_equivalent(p, r) == instance.pq_equivalent(r, p)


def test_equivalence_transitive(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        q = instance.pq_left_multiply(p, instance.random_element(rng))
        r = instance.pq_left_multiply(q, instance.random_element(rng))
        assert instance.pq_equivalent(p, r)


def test_scaled_representatives_agree(instance, rng):
    # (f x) / f and (g x) / g always name the embedded point
    for _ in range(TRIALS):
        x = instance.random_point(rng)
        f, g = instance.random_element(rng), instance.random_element(rng)
        pf = Pseudoquotient(instance.apply(f, x), f)
        pg = Pseudoquotient(instance.apply(g, x), g)
        assert instance.pq_equivalent(pf, pg)
        assert instance.pq_equivalent(pf, instance.embed(x))


def test_numerator_determined_by_equivalence(instance, rng):
    # if (f x) / f is equivalent to y / g then y is exactly g x
    for _ in range(TRIALS):
        x = instance.random_point(rng)
        f, g = instance.random_element(rng), instance.random_element(rng)
        p = Pseudoquotient(instance.apply(f, x), f)
        candidates = [instance.apply(g, x), instance.apply(g, instance.random_point(rng))]
        for y in candidates:
            if instance.pq_equivalent(p, Pseudoquotient(y, g)):
                assert y == instance.apply(g, x)


def test_embedding_injective(instance, rng):
    for _ in range(TRIALS):
        x, y = instance.random_point(rng), instance.random_point(rng)
        assert instance.pq_equivalent(instance.embed(x), instance.embed(y)) == (x == y)


def test_left_multiply_preserves_class(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        h = instance.random_element(rng)
        assert instance.pq_equivalent(p, instance.pq_left_multiply(p, h))


def test_left_multiply_respects_equivalent_partners(instance, rng):
    # p ~ q stays true when q is rescaled by any h
    for _ in range(TRIALS):
        p, q = related_pair(instance, rng)
        h = instance.random_element(rng)
        assert instance.pq_equivalent(p, instance.pq_left_multiply(q, h))


def test_left_multiply_composes(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        g, h = instance.random_element(rng), instance.random_element(rng)
        twice = instance.pq_left_multiply(instance.pq_left_multiply(p, g), h)
        once = instance.pq_left_multiply(p, instance.compose(h, g))
        assert twice == once


def test_witness_independence(instance, rng):
    # a second witness, built by left-multiplying the first, decides identically
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        q = (
            instance.pq_left_multiply(p, instance.random_element(rng))
            if rng.random() < 0.5
            else instance.random_pseudoquotient(rng)
        )
        f, g = p.denominator, q.denominator
        w = instance.ore_complete(f, g)
        h = instance.random_element(rng)
        lifted_f = instance.compose(h, w.f_prime)
        lifted_g = instance.compose(h, w.g_prime)
        assert instance.compose(lifted_f, g) == instance.compose(lifted_g, f)
        first = instance.apply(w.f_prime, q.numerator) == instance.apply(w.g_prime, p.numerator)
        second = instance.apply(lifted_f, q.numerator) == instance.apply(lifted_g, p.numerator)
        assert first == second == instance.pq_equivalent(p, q)


def test_extension_well_defined_across_witnesses(instance, rng):
    # extend with the canonical witness and with a lifted one: same class
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        g = instance.random_element(rng)
        h = instance.random_element(rng)
        w = instance.ore_complete(p.denominator, g)
        out = instance.extend_apply(g, p)
        lifted = Pseudoquotient(
            instance.apply(instance.compose(h, w.g_prime), p.numerator),
            instance.compose(h, w.f_prime),
        )
        assert instance.pq_equivalent(out, lifted)


def test_extension_well_defined_across_representatives(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        q = instance.pq_left_multiply(p, instance.random_element(rng))
        g = instance.random_element(rng)
        assert instance.pq_equivalent(instance.extend_apply(g, p), instance.extend_apply(g, q))


def test_extension_extends_the_action(instance, rng):
    for _ in range(TRIALS):
        x = instance.random_point(rng)
        g = instance.random_element(rng)
        assert instance.pq_equivalent(
            instance.extend_apply(g, instance.embed(x)),
            instance.embed(instance.apply(g, x)),
        )


def test_extension_bijective(instance, rng):
    for _ in range(TRIALS):
        p = instance.random_pseudoquotient(rng)
        g = instance.random_element(rng)
        assert instance.pq_equivalent(
            instance.extend_inverse_apply(g, instance.extend_apply(g, p)), p
        )
        assert instance.pq_equivalent(
            instance.extend_apply(g, instance.extend_inverse_apply(g, p)), p
        )


def test_solve_inverts_extension(instance, rng):
    for _ in range(TRIALS):
        f = instance.random_element(rng)
        x = instance.random_point(rng)
        solution = instance.solve(f, x)
        assert instance.pq_equivalent(instance.extend_apply(f, solution), instance.embed(x))


def test_solve_with_designated_identity(instance, rng):
    e = instance.designated_element
    for _ in range(TRIALS // 4):
        x = instance.random_point(rng)
        assert instance.pq_equivalent(instance.solve(e, x), instance.embed(x))


def test_solutions_unique(instance, rng):
    for _ in range(TRIALS):
        f = instance.random_element(rng)
        x = instance.random_point(rng)
        p1 = instance.solve(f, x)
        p2 = instance.pq_left_multiply(p1, instance.random_element(rng))
        assert instance.pq_equivalent(instance.extend_apply(f, p2), instance.embed(x))
        assert instance.pq_equivalent(p1, p2)


def test_canonical_value_decides_equivalence(instance, rng):
    for _ in range(TRIALS):
        if rng.random() < 0.5:
            p, q = related_pair(instance, rng)
        else:
            p = instance.random_pseudoquotient(rng)
            q = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(p, q) == (
            instance.canonical_value(p) == instance.canonical_value(q)
        )


# ---------------------------------------------------------------------
# the fraction group
# ---------------------------------------------------------------------


def frac_agree(instance, rng, first, second, samples=100):
    for _ in range(samples):
        p = instance.random_pseudoquotient(rng)
        if not instance.pq_equivalent(
            instance.frac_apply(first, p), instance.frac_apply(second, p)
        ):
            return False
    return True


def test_frac_from_element_acts_like_extension(instance, rng):
    for _ in range(TRIALS):
        g = instance.random_element(rng)
        p = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(
            instance.frac_apply(instance.frac_from_element(g), p),
            instance.extend_apply(g, p),
        )


def test_frac_from_element_is_multiplicative(instance, rng):
    for _ in range(TRIALS // 2):
        g, h = instance.random_element(rng), instance.random_element(rng)
        composed = instance.frac_compose(
            instance.frac_from_element(g), instance.frac_from_element(h)
        )
        direct = instance.frac_from_element(instance.compose(g, h))
        assert instance.frac_equal(composed, direct)


def test_frac_identity_and_inverse(instance, rng):
    for _ in range(TRIALS):
        frac = instance.random_fraction(rng)
        identity = instance.frac_identity()
        assert instance.frac_equal(instance.frac_compose(identity, frac), frac)
        assert instance.frac_equal(instance.frac_compose(frac, identity), frac)
        assert instance.frac_equal(
            instance.frac_compose(frac, frac_inverse(frac)), identity
        )
        assert instance.frac_equal(
            instance.frac_compose(frac_inverse(frac), frac), identity
        )
        assert frac_inverse(frac_inverse(frac)) == frac


def test_equal_sided_frac_is_identity(instance, rng):
    for _ in range(TRIALS // 2):
        f, g = instance.random_element(rng), instance.random_element(rng)
        assert instance.frac_equal(GroupFraction(f, f), GroupFraction(g, g))
        p = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(instance.frac_apply(GroupFraction(f, f), p), p)


def test_frac_equal_reflexive(instance, rng):
    for _ in range(TRIALS // 2):
        frac = instance.random_fraction(rng)
        assert instance.frac_equal(frac, frac)


def test_frac_associativity(instance, rng):
    for _ in range(TRIALS // 2):
        f1, f2, f3 = (instance.random_fraction(rng) for _ in range(3))
        left = instance.frac_compose(f1, instance.frac_compose(f2, f3))
        right = instance.frac_compose(instance.frac_compose(f1, f2), f3)
        assert instance.frac_equal(left, right)


def test_frac_compose_matches_action(instance, rng):
    for _ in range(TRIALS // 2):
        f1, f2 = instance.random_fraction(rng), instance.random_fraction(rng)
        composed = instance.frac_compose(f1, f2)
        for _ in range(6):
            p = instance.random_pseudoquotient(rng)
            assert instance.pq_equivalent(
                instance.frac_apply(composed, p),
                instance.frac_apply(f1, instance.frac_apply(f2, p)),
            )


def test_frac_equal_matches_action_sampling(instance, rng):
    for _ in range(TRIALS // 3):
        f1 = instance.random_fraction(rng)
        if rng.random() < 0.5:
            padding = instance.random_element(rng)
            f2 = instance.frac_compose(GroupFraction(padding, padding), f1)
        else:
            f2 = instance.random_fraction(rng)
        assert instance.frac_equal(f1, f2) == frac_agree(instance, rng, f1, f2)


def test_frac_roundtrip_on_classes(instance, rng):
    for _ in range(TRIALS // 2):
        frac = instance.random_fraction(rng)
        p = instance.random_pseudoquotient(rng)
        assert instance.pq_equivalent(
            instance.frac_apply(frac_inverse(frac), instance.frac_apply(frac, p)), p
        )


def test_group_common_multiples_via_inverses(instance, rng):
    # fraction groups have common left multiples trivially: pad with inverses
    for _ in range(TRIALS // 3):
        f1, f2 = instance.random_fraction(rng), instance.random_fraction(rng)
        f1_prime = instance.frac_compose(f1, frac_inverse(f2))
        f2_prime = instance.frac_identity()
        assert instance.frac_equal(
            instance.frac_compose(f1_prime, f2), instance.frac_compose(f2_prime, f1)
        )


def test_group_right_cancellation_via_roundtrip(instance, rng):
    for _ in range(TRIALS // 3):
        a, c = instance.random_fraction(rng), instance.random_fraction(rng)
        assert instance.frac_equal(
            instance.frac_compose(instance.frac_compose(a, c), frac_inverse(c)), a
        )


def ore_equal(instance, first, second):
    """The Ore rule of ``frac_equal`` without its structural fast path."""
    w = instance.ore_complete(second.den, first.den)
    return instance.compose(w.f_prime, first.num) == instance.compose(w.g_prime, second.num)


def test_reduce_fraction_keeps_the_bijection(instance, rng):
    # random fractions, and chains of up to four: reduced by frac_compose
    # where the instance reduces, so reduce_fraction meets its own output
    for _ in range(TRIALS // 3):
        frac = instance.random_fraction(rng)
        for _ in range(4):
            reduced = instance.reduce_fraction(frac)
            assert ore_equal(instance, reduced, frac) and ore_equal(instance, frac, reduced)
            assert instance.reduce_fraction(reduced) == reduced
            frac = instance.frac_compose(frac, instance.random_fraction(rng))


def test_frac_equal_agrees_with_the_ore_rule(instance, rng):
    for _ in range(TRIALS // 3):
        f1 = instance.random_fraction(rng)
        padding = instance.random_element(rng)
        same = instance.frac_compose(GroupFraction(padding, padding), f1)
        for f2 in (f1, same, instance.random_fraction(rng)):
            assert instance.frac_equal(f1, f2) == ore_equal(instance, f1, f2)
