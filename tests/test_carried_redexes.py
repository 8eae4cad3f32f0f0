"""The redex list the normalizer carries from head to head.

``Normalizer._term`` scans its first head once and derives every later
head's insertion redexes with ``carry_redexes``.  These tests check the
carried list against a full ``find_redexes`` scan at every step, and
the normal forms against the outermost-strategy oracle.
"""

import random

import pytest

from semistrict import insertion, rewriting
from semistrict.check import infer_term
from semistrict.syntax import (
    STAR, Arrow, Coh, Var, apply_sub_term, compose, id_sub,
)
from semistrict.trees import (
    ctx_len, disc, suspend_term, suspend_tree, tree_to_ctx, trunk_height,
)
from semistrict.unbiased import identity_term, unbiased_coh, unbiased_type
from semistrict.insertion import (
    branch_table, carry_redexes, exterior_sub, find_redexes, inserted_sub,
    inserted_tree,
)
from semistrict.rewriting import clear_caches, normalize, normalize_first_step
from semistrict.harness import (
    GenConfig, branch_at, canonical_branches, enumerate_insertion_points,
    enumerate_trees, gen_population, leaf_height,
)

from conftest import CHAIN2, comp_chain


@pytest.fixture
def carried(monkeypatch):
    """Every carried list, checked against a full scan of its head."""
    seen = []
    carry = insertion.carry_redexes

    def checked(redexes, before, term):
        out = carry(redexes, before, term)
        assert out == find_redexes(term), (redexes[0], before, term)
        seen.append(len(out))
        return out

    monkeypatch.setattr(rewriting, "carry_redexes", checked)
    return seen


def _agrees(t):
    clear_caches()
    nf = normalize(t)
    assert nf == normalize_first_step(t)
    return nf


def _inserts_at(s, p, t):
    """Whether a composite or an identity over t inserts at branch p of s:
    t has the leaf height, or is the disc one below it, and trunk enough."""
    lh = leaf_height(s, p)
    return (t.dim == lh or t == disc(lh - 1)) and trunk_height(t) >= len(p) - 1


def test_branch_positions_end_in_the_branch_variable():
    for s, p, t in enumerate_insertion_points(5):
        v, at = [(v, at) for q, v, _, at in branch_table(s) if q == p][0]
        assert at == branch_at(s, p, t)
        assert at[-1] == v and len(at) == 2 * len(p) + 1


def _one_insertion_squares():
    """(term, the tree of its context) for each one-insertion square: the
    argument at p is a composite or an identity, every other argument a
    variable."""
    for s, p, t in enumerate_insertion_points(6):
        if _inserts_at(s, p, t):
            at = branch_at(s, p, t)
            yield (Coh(s, unbiased_type(s.dim, s), exterior_sub(s, p, t, at)),
                   inserted_tree(s, p, t))


def _two_insertion_squares():
    """(term, the tree of its context) where two arguments insert, at pa
    before pb: the exterior substitution at pb (which leaves pa's path
    alone), then at pa in the tree it makes."""
    trees = list(enumerate_trees(5))
    for s in trees:
        branches = canonical_branches(s)
        for i, pa in enumerate(branches):
            for pb in branches[i + 1:]:
                for tb in trees:
                    if not _inserts_at(s, pb, tb):
                        continue
                    r = inserted_tree(s, pb, tb)
                    kb = exterior_sub(s, pb, tb, branch_at(s, pb, tb))
                    for ta in trees:
                        if _inserts_at(s, pa, ta):
                            yield (Coh(s, unbiased_type(s.dim, s),
                                       compose(kb, exterior_sub(r, pa, ta, branch_at(r, pa, ta)))),
                                   inserted_tree(r, pa, ta))


def test_carried_redexes_at_every_insertion_point(carried):
    cases = 0
    for term, r in _one_insertion_squares():
        infer_term(tree_to_ctx(r), term)
        _agrees(term)
        cases += 1
    assert cases == 1654 and carried


def test_carried_redexes_with_two_insertion_points(carried):
    cases = 0
    for term, r in _two_insertion_squares():
        infer_term(tree_to_ctx(r), term)
        _agrees(term)
        cases += 1
    assert cases == 1244 and max(carried) == 1


def _shape(t, redex):
    """(S, A, P, T): the head, the cell, the branch and the inserted tree."""
    return t.head, t.cell, redex[0], t.args[redex[1]].head


def _direct_insertion(t, redex):
    """The reduct as the paper writes it, with P's positions found afresh."""
    s, cell, p, ins = _shape(t, redex)
    at = branch_at(s, p, ins)
    return Coh(inserted_tree(s, p, ins), exterior_sub(s, p, ins, at, cell),
               inserted_sub(t.args, t.args[redex[1]].args, at))


def _found(t):
    return t, find_redexes(t)[0]


def _carried(t):
    # the first redex applied, and the next one carried to its reduct
    redexes = find_redexes(t)
    u = _direct_insertion(t, redexes[0])
    return u, carry_redexes(redexes, t, u)[0]


@pytest.mark.parametrize("squares, redex", [
    (_one_insertion_squares, _found),
    (_two_insertion_squares, _found),
    (_two_insertion_squares, _carried),
], ids=["one-found", "two-found", "two-carried"])
def test_a_remembered_reduct_head_is_the_one_a_step_builds(monkeypatch, squares, redex):
    # each shape (S, A, P, T) is built on its first step, then only looked
    # up, here over arguments renamed apart, which only splices them.  The
    # head cell is an unbiased composite's; a full coherence's one
    # dimension up, whose push builds the unbiased cell at the branch; or
    # x -> x, which no well-formed coherence has but which is the same
    # syntax over every tree, so that only S tells those shapes apart
    built, shapes = [], set()
    exterior = rewriting.exterior_sub

    def counted(*args):
        built.append(args)
        return exterior(*args)

    monkeypatch.setattr(rewriting, "exterior_sub", counted)
    clear_caches()
    cases = 0
    for term, r in squares():
        top = unbiased_coh(term.head.dim, term.head)
        shift = id_sub(ctx_len(r) + 1)[1:]
        for cell in (term.cell, Arrow(top, term.cell, top), Arrow(Var(0), STAR, Var(0))):
            for args in (term.args, compose(term.args, shift)):
                u, rdx = redex(Coh(term.head, cell, args))
                shape = _shape(u, rdx)
                built.clear()
                assert rewriting.apply_insertion(u, rdx) == _direct_insertion(u, rdx)
                assert len(built) == (shape not in shapes)
                shapes.add(shape)
            cases += 1
    assert cases == 3 * (1654 if squares is _one_insertion_squares else 1244)
    assert len(rewriting._HEADS) == len(shapes)


@pytest.mark.parametrize("dim", [1, 2])
def test_carried_redexes_along_comp_chains(carried, dim):
    rng = random.Random(dim)
    for n in range(2, 25):
        for shape in ("left", "right", "random", "random"):
            tree, t = comp_chain(n, shape, rng)
            if dim == 2:
                tree, t = suspend_tree(tree), suspend_term(t)
            assert _agrees(t) == unbiased_coh(dim, tree)
    assert carried


def test_carried_redexes_over_the_population(carried):
    for ctx, t in gen_population(GenConfig(seed=0), 500):
        _agrees(t)
    assert carried


def _comp(*args):
    return Coh(CHAIN2, unbiased_type(1, CHAIN2), args)


def test_a_scan_returns_rows_of_its_heads_branch_table(monkeypatch):
    # a found redex is no record of its own: it is the very row its head
    # keeps, which the term it was found in completes
    scan, found = insertion.find_redexes, []

    def checked(term):
        out = scan(term)
        rows = branch_table(term.head) if out else ()
        assert all(any(r is row for row in rows) for r in out), term
        found.extend(out)
        return out

    monkeypatch.setattr(rewriting, "find_redexes", checked)
    clear_caches()
    for _, t in gen_population(GenConfig(seed=0), 300):
        normalize(t)
    rng = random.Random(0)
    for n in range(2, 25):
        normalize(suspend_term(comp_chain(n, "random", rng)[1]))
    assert len(found) > 100


def test_an_inserted_identity_leaves_a_redex_in_its_block(carried):
    # an identity on c, a 2-cell, inserts as a 1-cell block whose one
    # branch holds c; c = comp g1 g2 then inserts in turn
    x, w, g1, y, g2, z, k, l, beta = map(Var, range(9))
    c = _comp(x, w, g1, y, g2)
    idc = identity_term(Arrow(x, STAR, y), c)
    s = (((),), ((),))
    t = apply_sub_term(unbiased_coh(2, s), (x, y, c, c, idc, z, k, l, beta))
    infer_term(tree_to_ctx(((), (), ((),))), t)
    clear_caches()
    log = []
    nf = normalize(t, trace=log.append)
    assert [(st.rule, st.path_str()) for st in log] == [
        ("insertion", "root"), ("insertion", "root"),
        ("insertion", "cell.src"), ("insertion", "cell.tgt")]
    assert log[1].detail == "S=[[],[[]]] P=[0] T=[[],[]] -> [[],[],[[]]]"
    assert nf.head == ((), (), ((),))
    assert nf == unbiased_coh(2, nf.head)
    assert nf == normalize_first_step(t)


def _whiskered(x, z, f, g, beta, y, m):
    """beta : f => g whiskered by m : z -> y, a 2-cell comp f m => comp g m
    whose tree has no trunk."""
    ta = (((),), ())
    return Coh(ta, unbiased_type(2, ta), (x, z, f, g, beta, y, m))


@pytest.mark.parametrize("identity_first", [False, True])
def test_a_removed_block_shortens_its_siblings_branch(carried, identity_first):
    # vertical composite of alpha and an identity, whiskered by k: taking
    # out the identity's block leaves alpha's parent with one child, so
    # alpha's branch shortens from [0, i] to [0], where its tree, with no
    # trunk, inserts
    x, z, f, g, beta, y, m, w, k = map(Var, range(9))
    big_f, big_g = _comp(x, z, f, y, m), _comp(x, z, g, y, m)
    alpha = _whiskered(x, z, f, g, beta, y, m)
    s = (((), ()), ())
    if identity_first:
        args = (x, y, big_f, big_f, identity_term(Arrow(x, STAR, y), big_f),
                big_g, alpha, w, k)
    else:
        args = (x, y, big_f, big_g, alpha, big_g,
                identity_term(Arrow(x, STAR, y), big_g), w, k)
    t = Coh(s, unbiased_type(2, s), args)
    r = (((),), (), ())
    infer_term(tree_to_ctx(r), t)
    assert [p for p, *_ in find_redexes(t)] == [(0, 0 if identity_first else 1)]
    nf = _agrees(t)
    assert nf == unbiased_coh(2, r)
    # the head after the identity's insertion carries alpha, at [0]
    assert carried[0] == 1


def test_normalizing_a_chain_examines_a_linear_number_of_rows(monkeypatch):
    # the branch rows the kernel looks at: every row of each scanned head,
    # and the one row an inserted identity leaves behind
    rows = [0]
    table, left_behind = insertion.branch_table, insertion._left_behind

    def scanned(s):
        out = table(s)
        rows[0] += len(out)
        return out

    def rescanned(*args):
        out = left_behind(*args)
        rows[0] += out is not None
        return out

    monkeypatch.setattr(insertion, "branch_table", scanned)
    monkeypatch.setattr(insertion, "_left_behind", rescanned)
    rng = random.Random(0)
    for n in (200, 400):
        for shape in ("left", "right"):
            _, t = comp_chain(n, shape, rng)
            clear_caches()
            rows[0] = 0
            normalize(t)
            assert rows[0] <= 5 * n, (n, shape, rows[0])
