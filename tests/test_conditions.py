"""Condition trees: derivation, periodic families, coherence checks."""
import pytest

from gda import (
    ArityError,
    CoherenceViolation,
    Condition,
    DiffKind,
    Factor,
    Index,
    Monomial,
    SymbolRegistry,
    Term,
    check_coherence,
    collapse_signature,
    derive_tree,
    make_condition,
    render_tree,
    signature_label,
    standard_start,
    tree_to_json,
)

D = DiffKind.delta


def gen_term(reg, name, n, m, kappa=0):
    return Term.from_factor(Factor(reg.declare(name, Index(n, m, kappa))))


def test_make_condition_reads_bare_and_parenthesized_patterns():
    reg = SymbolRegistry()
    phis = [gen_term(reg, name, 0, 0) for name in ("a", "b", "c")]
    bare = make_condition("I0I", None, phis)
    assert bare.label == "(I0I)"
    assert make_condition("(I0I)", None, phis) == bare
    assert bare.equation == "0 = (a.d, b, c.d)"
    for bad in ("(I0I", "((I0I))", "I2", "()", ""):
        with pytest.raises(ArityError, match="invalid choice pattern"):
            make_condition(bad, None, phis)


def test_collapse_signature_only_with_differentiated_slot():
    assert collapse_signature("I00") == "I0"
    assert collapse_signature("0I00I") == "0I0I"
    # a pure-0 signature is left alone
    assert collapse_signature("000") == "000"


def test_signature_label_merges_monomials():
    reg = SymbolRegistry()
    a = reg.declare("a", Index(1, 0, 0))
    b = reg.declare("b", Index(0, 1, 0))
    t = Term.from_monomial(Monomial((Factor(a, (D,)), Factor(b))))
    assert signature_label(t) == "(I0)"
    assert signature_label(Term.zero()) == "(-)"


def test_make_condition_orthogonality():
    reg = SymbolRegistry()
    a = gen_term(reg, "a", 1, 0)
    b = gen_term(reg, "b", -1, 0)
    cond = make_condition("(00)", None, [a, b])
    assert cond.kind == "orthogonality"
    assert cond.equation == "0 = (a, b)"
    assert cond.expected_index == Index(0, 0, 0)


def test_make_condition_differential_side():
    reg = SymbolRegistry()
    g = gen_term(reg, "g", -1, 1)
    a = gen_term(reg, "a", 1, 0)
    b = gen_term(reg, "b", -1, 0)
    cond = make_condition("(I0)", g, [a, b])
    assert cond.kind == "differential"
    assert cond.equation == "g.d = (a.d, b)"
    assert cond.expected_index == Index(0, 0, 0)


def test_make_condition_rejects_arity_mismatch():
    reg = SymbolRegistry()
    a = gen_term(reg, "a", 1, 0)
    with pytest.raises(ArityError):
        make_condition("(00)", None, [a])


def test_coherence_passes_on_consistent_condition():
    reg = SymbolRegistry()
    a = gen_term(reg, "a", 1, 0)
    b = gen_term(reg, "b", -1, 0)
    cond = make_condition("(00)", None, [a, b])
    check_coherence(cond)


def test_coherence_flags_bad_expected_index():
    reg = SymbolRegistry()
    a = gen_term(reg, "a", 1, 0)
    b = gen_term(reg, "b", -1, 0)
    rhs = Term.from_monomial(Monomial((Factor(reg.get("a")), Factor(reg.get("b")))))
    bad = Condition("(00)", Term.zero(), rhs, Index(5, 0, 0))
    with pytest.raises(CoherenceViolation) as err:
        check_coherence(bad)
    assert str(err.value) == "condition (00): n: 5 != 0 in (a, b)"


def test_standard_start_two_factor_names_and_index():
    reg = SymbolRegistry()
    cond = standard_start("(00)", reg)
    assert cond.equation == "0 = (Phi', Phi)"
    # the first index is solved so the product sits at the origin
    assert reg.get("Phi'").index + reg.get("Phi").index == Index(0, 0, 0)
    assert reg.get("Phi").index == Index(-1, 0, 0)


def test_standard_start_three_factor_names():
    reg = SymbolRegistry()
    cond = standard_start("(000)", reg)
    assert cond.equation == "0 = (Phi', phi, Phi)"
    total = (
        reg.get("Phi'").index + reg.get("phi").index + reg.get("Phi").index
    )
    assert total == Index(0, 0, 0)


def test_standard_start_collapses_long_zero_runs():
    reg = SymbolRegistry()
    cond = standard_start("(I000I)", reg)
    # interior zero runs collapse before the pattern is realized
    assert cond.label == "(I0I)"


def test_derive_tree_basics():
    reg = SymbolRegistry()
    start = standard_start("(00)", reg)
    tree = derive_tree(start, depth=8, registry=reg)
    assert tree.nodes[0].condition.equation == "0 = (Phi', Phi)"
    assert all(node.depth <= 8 for node in tree.nodes)
    edges = {node.edge for node in tree.nodes}
    assert "d" in edges and "start" in edges
    assert any(e.startswith("resolve") for e in edges)


def test_derive_tree_notes():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    notes = {node.note for node in tree.nodes if node.note}
    assert "zero" in notes
    assert "seen" in notes
    assert "0 or (II)" in notes


def test_seen_nodes_keep_their_equation_but_no_children():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    seen = [node for node in tree.nodes if node.note == "seen"]
    assert seen
    parents = {node.parent for node in tree.nodes}
    for node in seen:
        assert node.id not in parents
        assert node.condition.equation != ""


def test_seen_key_blanks_only_fresh_generators():
    # user names that look like fresh ones must not merge distinct equations
    def tree_for(names):
        reg = SymbolRegistry()
        indices = [Index(0, 1, 0), Index(1, 0, 0), Index(-1, -1, 0)]
        phis = [Term.from_factor(Factor(reg.declare(n, i))) for n, i in zip(names, indices)]
        start = make_condition("(000)", None, phis)
        return derive_tree(start, depth=2, registry=reg)

    lookalike = tree_for(["x_f1", "x_f2", "x_f3"])
    plain = tree_for(["xa", "xb", "xc"])
    assert len(lookalike.nodes) == len(plain.nodes) == 13
    assert [n.note for n in lookalike.nodes] == [n.note for n in plain.nodes]
    assert lookalike.nodes[7].edge == "resolve 2 right"
    assert lookalike.nodes[7].note is None


def test_periodic_family_detected_for_two_factor_start():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    fams = tree.families
    assert fams
    fam = fams[0]
    assert fam.relations() == [
        "0 = (alpha[k], beta[k])",
        "alpha[k].d = (alpha[k+1], beta[k])",
        "beta[k].d = (alpha[k], beta[k+1])",
    ]


def test_periodic_family_instantiation_is_coherent():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    fam = tree.families[0]
    conds = fam.instantiate(6)
    assert len(conds) == 3 * 6
    for cond in conds:
        check_coherence(cond)


def test_periodic_family_index_ladder():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    fam = tree.families[0]
    ladder = fam.indices(4)
    # each step divides the differentiated index between the fresh member
    # and its partner
    for k in range(1, 4):
        a_prev, b_prev = ladder[k - 1]
        assert ladder[k][0] == a_prev.shifted(D) - b_prev
        assert ladder[k][1] == b_prev.shifted(D) - a_prev
        assert ladder[k][0] + ladder[k - 1][1] == a_prev.shifted(D)


def test_render_tree_header_and_indent():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=8, registry=reg)
    text = render_tree(tree)
    lines = text.splitlines()
    assert lines[0] == "derive start=(00) depth=8 sign=paper d=delta"
    assert lines[1].startswith("[start] (00): 0 = (Phi', Phi)")
    assert any(line.startswith("  [d] ") for line in lines)
    assert any(line.startswith("family @node ") for line in lines)


def test_tree_to_json_shape():
    reg = SymbolRegistry()
    tree = derive_tree(standard_start("(00)", reg), depth=2, registry=reg)
    payload = tree_to_json(tree)
    assert set(payload) >= {"start", "depth", "edges"}
    assert payload["edges"]
    assert tree_to_json(None) == {"edges": []}
