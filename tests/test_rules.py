import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulestorm.errors import ConfigError
from rulestorm.membership import LabeledDataset
from rulestorm.rules import (
    Rule,
    RuleSet,
    RuleSetShape,
    decode,
    encode,
    genotype_bounds,
    match_mask,
    with_weights,
)


def ld_from(labels, classes, p, c):
    return LabeledDataset(
        labels=np.array(labels, dtype=int),
        classes=np.array(classes, dtype=int),
        p=p,
        c=c,
    )


class TestDecode:
    def test_worked_example(self):
        shape = RuleSetShape(m=3, p=3, c=2, r=2)
        genes = np.array(
            [-0.4, 1.2, 3.9, 1.7, 0.2,  # rounds to (0,1,3), class 2, AND
             1.0, 0.0, 0.0, 1.0, 0.7]   # (1,0,0), class 1, OR
        )
        rs = decode(genes, shape)
        assert rs.rules[0] == Rule((0, 1, 3), 2, "AND")
        assert rs.rules[1] == Rule((1, 0, 0), 1, "OR")

    def test_connective_threshold(self):
        shape = RuleSetShape(m=1, p=2, c=2, r=2)
        genes = np.array([1, 1, 0.49, 1, 2, 0.5])
        rs = decode(genes, shape)
        assert rs.rules[0].connective == "AND"
        assert rs.rules[1].connective == "OR"

    def test_class_gene_clamped(self):
        shape = RuleSetShape(m=1, p=2, c=2, r=2)
        genes = np.array([1, 0.2, 0, 1, 9.9, 0])
        rs = decode(genes, shape)
        assert rs.rules[0].consequent == 1
        assert rs.rules[1].consequent == 2

    def test_all_zero_rule_forced_by_position(self):
        shape = RuleSetShape(m=3, p=3, c=2, r=3)
        genes = np.array(
            [0.1, -0.2, 0.3, 1.0, 0.0,   # rule 0 all dont-care
             1.0, 0.0, 0.0, 2.0, 0.0,
             0.2, 0.2, -0.3, 2.0, 0.0]   # rule 2 all dont-care
        )
        rs = decode(genes, shape)
        assert rs.rules[0].antecedents == (1, 0, 0)  # position 0 mod 3
        assert rs.rules[2].antecedents == (0, 0, 1)  # position 2 mod 3

    def test_missing_class_reassigns_lowest_index_rule(self):
        shape = RuleSetShape(m=2, p=2, c=2, r=3)
        genes = np.array([1, 1, 2, 0, 1, 2, 2, 0, 2, 1, 2, 0])
        rs = decode(genes, shape)
        assert [r.consequent for r in rs.rules] == [1, 2, 2]

    def test_two_missing_classes(self):
        shape = RuleSetShape(m=2, p=2, c=3, r=3)
        genes = np.array([1, 1, 2, 0, 1, 2, 2, 0, 2, 1, 2, 0])
        rs = decode(genes, shape)
        assert [r.consequent for r in rs.rules] == [1, 3, 2]

    def test_every_class_covered_after_repair(self):
        shape = RuleSetShape(m=4, p=3, c=3, r=5)
        rng = np.random.default_rng(5)
        lower, upper = genotype_bounds(shape)
        for _ in range(50):
            genes = rng.uniform(lower, upper)
            rs = decode(genes, shape)
            assert {r.consequent for r in rs.rules} == {1, 2, 3}
            for rule in rs.rules:
                assert any(a != 0 for a in rule.antecedents)

    def test_rule_count_below_class_count_rejected(self):
        with pytest.raises(ConfigError):
            RuleSetShape(m=2, p=2, c=3, r=2)


class TestEncode:
    def test_connective_encoding(self):
        shape = RuleSetShape(m=2, p=3, c=2, r=2)
        rs = RuleSet(
            rules=(Rule((1, 0), 1, "AND"), Rule((0, 2), 2, "OR")),
            m=2, p=3, c=2,
        )
        genes = encode(rs)
        assert genes.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 2.0, 1.0]
        assert decode(genes, shape) == rs

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 5),
        p=st.integers(2, 4),
        c=st.integers(2, 3),
        extra=st.integers(0, 4),
        seed=st.integers(0, 2**31),
    )
    def test_decode_encode_identity_and_repair_idempotence(
        self, m, p, c, extra, seed
    ):
        shape = RuleSetShape(m=m, p=p, c=c, r=c + extra)
        lower, upper = genotype_bounds(shape)
        genes = np.random.default_rng(seed).uniform(lower, upper)
        rs = decode(genes, shape)
        again = decode(encode(rs), shape)
        assert again == rs


class TestGenotypeBounds:
    def test_layout(self):
        shape = RuleSetShape(m=2, p=3, c=2, r=2)
        lower, upper = genotype_bounds(shape)
        assert lower.shape == upper.shape == (8,)
        assert lower.tolist() == [-0.49, -0.49, 0.51, 0.0, -0.49, -0.49, 0.51, 0.0]
        assert upper.tolist() == [3.49, 3.49, 2.49, 1.0, 3.49, 3.49, 2.49, 1.0]


class TestMatching:
    # three fuzzified records over two attributes, labels in 1..3
    LD = ld_from([[1, 3], [1, 1], [2, 3]], [1, 2, 1], p=3, c=2)

    def brute_force(self, rule, ld):
        hits = 0
        for row in ld.labels:
            nz = [(j, a) for j, a in enumerate(rule.antecedents) if a != 0]
            if not nz:
                hits += 1
            elif rule.connective == "AND":
                hits += all(row[j] == a for j, a in nz)
            else:
                hits += any(row[j] == a for j, a in nz)
        return hits

    def test_and_rule(self):
        rule = Rule((1, 3), 1, "AND")
        mask = match_mask(rule, self.LD)
        assert mask.tolist() == [True, False, False]
        assert self.brute_force(rule, self.LD) == 1

    def test_or_rule(self):
        rule = Rule((1, 3), 1, "OR")
        assert match_mask(rule, self.LD).sum() == 3
        assert self.brute_force(rule, self.LD) == 3

    def test_dont_care_positions_ignored(self):
        rule = Rule((0, 3), 1, "AND")
        assert match_mask(rule, self.LD).tolist() == [True, False, True]

    def test_no_match(self):
        rule = Rule((3, 2), 1, "AND")
        assert match_mask(rule, self.LD).sum() == 0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 4),
        p=st.integers(2, 3),
        seed=st.integers(0, 2**31),
    )
    def test_matches_brute_force(self, n, m, p, seed):
        rng = np.random.default_rng(seed)
        ld = ld_from(
            rng.integers(1, p + 1, size=(n, m)),
            rng.integers(1, 3, size=n),
            p=p,
            c=2,
        )
        ants = tuple(int(a) for a in rng.integers(0, p + 1, size=m))
        conn = "AND" if rng.random() < 0.5 else "OR"
        rule = Rule(ants, 1, conn)
        assert match_mask(rule, ld).sum() == self.brute_force(rule, ld)


def weight_of(rule, ld, decimals=None):
    """The weight that with_weights gives the rule in a one-rule set."""
    rs = RuleSet(rules=(rule,), m=len(rule.antecedents), p=ld.p, c=ld.c)
    return with_weights(rs, ld, decimals).rules[0].weight


class TestRuleWeight:
    def test_all_dont_care_rule_has_weight_one(self):
        ld = ld_from([[1, 2], [2, 1]], [1, 2], p=2, c=2)
        assert weight_of(Rule((0, 0), 1, "AND"), ld) == 1.0

    def test_full_length_never_matching_rule_has_weight_zero(self):
        ld = ld_from([[1, 1]], [1], p=2, c=2)
        assert weight_of(Rule((2, 2), 1, "AND"), ld) == 0.0

    def test_worked_example_third(self):
        # six attributes, four antecedents, matches one record of three:
        # W = 0.5 * ((1 - 4/6) + 1/3) = 1/3
        ld = ld_from(
            [[1, 2, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1], [2, 1, 2, 2, 1, 1]],
            [1, 1, 2],
            p=2,
            c=2,
        )
        rule = Rule((1, 2, 1, 1, 0, 0), 1, "AND")
        assert weight_of(rule, ld) == pytest.approx(1 / 3)
        assert round(weight_of(rule, ld), 4) == 0.3333

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 10),
        m=st.integers(2, 5),
        seed=st.integers(0, 2**31),
    )
    def test_bounds_and_brevity_monotonicity(self, n, m, seed):
        rng = np.random.default_rng(seed)
        ld = ld_from(
            rng.integers(1, 3, size=(n, m)), rng.integers(1, 3, size=n), p=2, c=2
        )
        ants = [int(a) for a in rng.integers(1, 3, size=m)]
        rule = Rule(tuple(ants), 1, "AND")
        w = weight_of(rule, ld)
        assert 0.0 <= w <= 1.0
        relaxed = list(ants)
        relaxed[rng.integers(0, m)] = 0
        w2 = weight_of(Rule(tuple(relaxed), 1, "AND"), ld)
        assert w2 >= w + 1 / (2 * m) - 1e-12

    def test_with_weights_rounds_as_python_round(self):
        # W = 0.5 * ((1 - 1/5) + 1/16) = 0.43125: round() gives 0.4313,
        # np.round gives 0.4312
        ld = ld_from([[2, 1, 1, 1, 1]] + [[1, 1, 1, 1, 1]] * 15, [1] * 16, p=2, c=2)
        assert weight_of(Rule((2, 0, 0, 0, 0), 1, "AND"), ld, 4) == 0.4313

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 6),
        p=st.integers(2, 4),
        r=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_with_weights_equals_rule_by_rule_formula(self, n, m, p, r, seed):
        # the weight formula in plain Python floats, over the rule-by-rule
        # match_mask, rounded as model.json stores it
        rng = np.random.default_rng(seed)
        ld = ld_from(rng.integers(1, p + 1, size=(n, m)), rng.integers(1, 3, size=n), p=p, c=2)
        ants = np.where(rng.random((r, m)) < 0.4, 0, rng.integers(1, p + 1, size=(r, m)))
        rules = tuple(
            Rule(tuple(ants[i].tolist()), int(rng.integers(1, 3)), "AND" if rng.random() < 0.5 else "OR")
            for i in range(r)
        )
        weighted = with_weights(RuleSet(rules=rules, m=m, p=p, c=2), ld, 4)
        for rule, got in zip(rules, weighted.rules):
            k = rule.antecedent_count()
            coverage = int(match_mask(rule, ld).sum()) / n
            assert got.weight == round(0.5 * ((1 - k / m) + coverage), 4)
            assert type(got.weight) is float
