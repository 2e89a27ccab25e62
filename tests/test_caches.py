"""The Koszul oracle's shortcuts give exactly what the direct work gives.

`smith_normal_form` skips the divisibility-chain scan where a known common
divisor of the remaining entries already answers it, and builds each
transform from its operation log when first read; `SmithForm` reads its
diagonal once, `localcoh._gens` is cached per (module, n, degree), the
Koszul oracle splits each stage into pieces by fine degree, keeps one memo
per piece shape with its H^s for every s, and settles every s from one
walk per pair of stages, with each transition step memoized per pair of
shapes (its pieces read the module action `localcoh._act`, which the
dense reference writes out kind by kind), the weight listing is memoized
per index range and built from its own shorter listings, quotient towers
share the stages of a common prefix of steps (each stage keeps the
cokernel and kernel layers of its last step, and stops reading its inputs
at the first that is not a trusted basis), and
`coefficients.degree_monomials` lists a degree's monomials once for the
E_2 page, the final page, the basic block and the full ring, from the
first a-exponent of nonnegative vbar weight, leaving out the monomials an
a-relation kills.  Each is checked here against the uncached computation
it replaces, and an n = 3 Koszul sweep, run in a fresh process, must
leave no memo larger than the weight listing; a Gorenstein sweep must
leave no `blocks` memo larger than two entries (one per block kind) per
listed block degree.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (basis_cached_two_listings, bb_cached_reference,
                     e2_basis_reference, e_infinity_basis_two_rounds,
                     koszul_complex_dense, koszul_layer_uncached,
                     lc_oracle_dense, module_gens_uncached,
                     smith_normal_form_full_rescan, tower_group_fresh,
                     truncation, weight_tuples_reference)
from realspectra import coefficients, hfpss, localcoh
from realspectra.abelian import Matrix, smith_normal_form, zeros
from realspectra.blocks import _bb_cached
from realspectra.coefficients import (QuotientIdeal, StabilizationFailure,
                                      _first_index_above, tower_group,
                                      weight_tuples)
from realspectra.grading import RHO, SIGMA, Degree, Window

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _matrices(entries):
    return st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(entries, min_size=n, max_size=n),
                     min_size=m, max_size=m),
            st.just(n))))


# a diagonal with coprime or non-dividing entries needs the chain fixed
_DIAGONAL = st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9]),
                     min_size=1, max_size=6).map(
    lambda ds: ([[ds[i] if i == j else 0 for j in range(len(ds))]
                 for i in range(len(ds))], len(ds)))


# even entries: pivots of 2 and 4 repeat, so the chain scan is skipped
_EVEN = st.sampled_from([-8, -4, -2, 0, 0, 0, 2, 4, 6, 12])


# one flaw each, so the full loop must run: a negative entry, a pair of
# diagonal entries where the first does not divide the second (diag(2, 1)),
# a zero before a nonzero, one entry off the diagonal
_FLAWS = ("negative", "not_dividing", "zero_first", "off_diagonal")


@st.composite
def _smith_shaped(draw, flaw=None):
    """A matrix already in Smith form (d_1 | d_2 | ... then zeros, any
    shape, 0 x n and n x 0 included), or one with the given flaw."""
    lo, rank_lo, spare = {None: (0, 0, 0), "negative": (1, 1, 0),
                          "not_dividing": (2, 2, 0),
                          "zero_first": (2, 1, 1),
                          "off_diagonal": (1, 0, 0)}[flaw]
    m, n = draw(st.integers(lo, 6)), draw(st.integers(lo, 6))
    if flaw == "off_diagonal" and m == n == 1:
        m = 2
    r = draw(st.integers(rank_lo, min(m, n) - spare))
    rows = [[0] * n for _ in range(m)]
    chain = 1
    for i in range(r):
        chain *= draw(st.sampled_from([1, 1, 2, 3]))
        rows[i][i] = chain
    if flaw == "negative":
        i = draw(st.integers(0, r - 1))
        rows[i][i] = -rows[i][i]
    elif flaw == "not_dividing":
        i = draw(st.integers(0, r - 2))
        rows[i][i], rows[i + 1][i + 1] = 2 * rows[i][i], rows[i][i]
    elif flaw == "zero_first":
        i = draw(st.integers(0, r - 1))
        rows[r][r], rows[i][i] = rows[i][i], 0
    elif flaw == "off_diagonal":
        i, j = draw(st.sampled_from([(i, j) for i in range(m)
                                     for j in range(n) if i != j]))
        rows[i][j] = draw(st.sampled_from([-3, -1, 1, 2, 5]))
    return rows, n


@settings(max_examples=400, deadline=None)
@given(st.one_of(_matrices(st.integers(-6, 6)), _matrices(_EVEN),
                 _DIAGONAL, _smith_shaped(),
                 st.sampled_from(_FLAWS).flatmap(_smith_shaped)))
@example(([[2, 0], [0, 3]], 2))
@example(([[2, 0], [0, 1]], 2))
@example(([[1, 0, 0], [0, 2, 0]], 3))
@example(([[0, 0], [0, 1]], 2))
@example(([[-1]], 1))
@example(([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3))
@example(([], 0))
@example(([], 4))
@example(([[], [], []], 0))
def test_smith_form_matches_full_rescan(shaped):
    rows, cols = shaped
    f = smith_normal_form(Matrix(rows, cols))
    want = smith_normal_form_full_rescan(rows, cols)
    got = (f.D.rows, f.S.rows, f.T.rows, f.S_inv.rows)
    assert got == want[:4]
    diagonal = (want[0][i][i] for i in range(min(len(rows), cols)))
    assert f.diagonal == tuple(x for x in diagonal if x)
    assert f.rank == len(f.diagonal)


@settings(max_examples=200, deadline=None)
@given(_smith_shaped())
@example(([], 3))
@example(([[], []], 0))
def test_input_in_smith_form_logs_no_operation(shaped):
    rows, cols = shaped
    f = smith_normal_form(Matrix(rows, cols))
    assert f._row_ops == [] and f._col_ops == []
    assert f.D.rows == rows and f.D.shape == (len(rows), cols)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FLAWS).flatmap(_smith_shaped))
@example(([[2, 0], [0, 1]], 2))
def test_near_miss_takes_the_full_loop(shaped):
    rows, cols = shaped
    f = smith_normal_form(Matrix(rows, cols))
    assert f._row_ops or f._col_ops


@settings(max_examples=200, deadline=None)
@given(st.one_of(_matrices(st.integers(-6, 6)), _DIAGONAL,
                 st.sampled_from(_FLAWS).flatmap(_smith_shaped)))
@example(([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3))
def test_transforms_read_out_of_order_and_twice(shaped):
    rows, cols = shaped
    want = smith_normal_form_full_rescan(rows, cols)
    f = smith_normal_form(Matrix(rows, cols))
    s_inv = f.S_inv
    assert s_inv.rows == want[3]
    assert f.S.rows == want[1]
    assert f.S_inv is s_inv and f.S_inv.rows == want[3]
    assert (f.T.rows, f.D.rows) == (want[2], want[0])
    assert (f.S.shape, f.T.shape) == ((len(rows), len(rows)), (cols, cols))


def test_diagonal_is_a_tuple_no_caller_can_alter():
    f = smith_normal_form(Matrix([[2, 0], [0, 3]], 2))
    with pytest.raises(AttributeError):
        f.diagonal.append(5)
    assert f.diagonal == (1, 6) and f.rank == 2
    assert smith_normal_form(zeros(2, 3)).diagonal == ()


def _modules():
    extra = (localcoh.ideal_z(3), localcoh.ideal_f2(0, 3),
             localcoh.dual_pbar(1), localcoh.dual_pbar(2),
             localcoh.p_module(shift=3 * RHO), localcoh.dual_p(-4 * RHO),
             localcoh.tower_f2(SIGMA * 2))
    mods = [m for row in localcoh.CATALOGUE.values() for m in row]
    return list(dict.fromkeys(mods + list(extra)))


@pytest.mark.parametrize("mod", _modules(), ids=lambda m: m.describe())
def test_module_gens_matches_uncached_listing(mod):
    for n in range(4):
        for k in range(-8, 9):
            for off in (-2, 0, 1):
                alpha = mod.shift + RHO * k + SIGMA * off
                want = module_gens_uncached(mod, n, alpha)
                assert localcoh.module_gens(mod, n, alpha) == want, \
                    (mod.describe(), n, alpha)
                assert localcoh.module_ranks(mod, n, alpha) == \
                    ((0, len(want)) if mod.torsion else (len(want), 0))


def test_module_gens_returns_a_private_copy():
    mod, alpha = localcoh.ideal_z(1), 6 * RHO
    first = localcoh.module_gens(mod, 2, alpha)
    assert isinstance(first, list) and first
    want = list(first)
    first.append(((9,), 1))
    first[0] = ((), 7)
    assert localcoh.module_gens(mod, 2, alpha) == want
    assert localcoh.module_ranks(mod, 2, alpha) == (len(want), 0)


@pytest.mark.parametrize("mod", _modules(), ids=lambda m: m.describe())
def test_koszul_layer_matches_uncached_listing(mod):
    # the pieces of a stage hold each generator of each uncached layer once,
    # in the slot it came from, and nothing else
    for n in range(1, 4):
        for e in (1, 2, 5):
            for k in range(-8, 9, 3):
                alpha = mod.shift + RHO * k
                got = {}
                for key, slots in localcoh._stage(mod, n, e, alpha).values():
                    assert key[2] == tuple(slots)
                    for subset, c in slots.items():
                        got.setdefault(subset, []).append(c)
                for j in range(n + 1):
                    summands, _ = koszul_layer_uncached(mod, n, e, j, alpha)
                    for subset, at, _ in summands:
                        want = [c for c, _ in module_gens_uncached(mod, n, at)]
                        assert sorted(got.pop(subset, [])) == sorted(want), \
                            (mod.describe(), n, e, subset, alpha)
                assert got == {}


def _rows_and_cols(mats):
    return [(m.rows, m.cols) for m in mats]


@pytest.mark.parametrize("mod", _modules(), ids=lambda m: m.describe())
def test_koszul_stage_matches_uncached_build(mod):
    # the pieces sum to the dense stage, and the certificate run piece by
    # piece settles where the dense one does, on the same answer
    shapes = set()
    for n in range(1, 4):
        for k in range(-6, 5):
            for off in (0, -1):
                alpha = mod.shift + RHO * k + SIGMA * off
                for e in (2, 4):
                    stage = koszul_complex_dense(mod, n, e, alpha)
                    pieces = localcoh._stage(mod, n, e, alpha)
                    shapes.update(key for key, _ in pieces.values())
                    got = localcoh._stage_homology(pieces, n)
                    for s in range(n + 1):
                        assert got[s] == stage.homology(s).group.summarize(), \
                            (mod.describe(), n, e, s, alpha)
                for s in range(n + 1):
                    assert localcoh.lc_oracle(mod, n, s, alpha) == \
                        lc_oracle_dense(mod, n, s, alpha), \
                        (mod.describe(), n, s, alpha)
    # readers left each memoized H^s as a fresh build makes it
    for key in shapes:
        kept = localcoh._piece_homology(key)
        fresh = localcoh._piece_homology.__wrapped__(key)
        assert len(kept) == len(fresh) == key[1] + 1, key
        for s, (h, want) in enumerate(zip(kept, fresh)):
            assert _rows_and_cols([h.cycles, h.group.rels]) == \
                _rows_and_cols([want.cycles, want.group.rels]), (key, s)


_MEMO_SIZES = """
import json, sys
sizes = {}
for key, module in list(sys.modules.items()):
    if key.startswith("realspectra."):
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and \\
                    getattr(value, "__module__", None) == key:
                sizes[f"{key}.{attr}"] = value.cache_info().currsize
print(json.dumps(sizes))
"""


def _memo_sizes(sweep: str) -> dict[str, int]:
    """Entries in each package memo after sweep runs in a fresh process."""
    done = subprocess.run([sys.executable, "-c", sweep + _MEMO_SIZES],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_koszul_sweep_keeps_no_memo_larger_than_the_weight_listing():
    # a memo keyed by what one stage exponent makes (each exponent tuple
    # moved by e) grows with the stages of every degree; the memos that
    # repay their traffic hold shapes and listings, never more entries
    # than the weight listing that the generators come from
    sizes = _memo_sizes(
        "from realspectra.localcoh import check_closed_form, p_module\n"
        "check_closed_form(p_module(), 3, -24, 24)")
    limit = sizes.pop("realspectra.coefficients.weight_tuples")
    assert limit > 0
    assert {name: size for name, size in sizes.items() if size > limit} \
        == {}


def test_gorenstein_sweep_keeps_block_memos_within_the_block_listings():
    # the blocks memos are keyed by a block degree, or by a diagonal: none
    # may hold more than one entry per block kind for each degree whose
    # basis the sweep listed
    sizes = _memo_sizes(
        "from realspectra.duality import verify_gorenstein\n"
        "from realspectra.grading import Window\n"
        "for n in (1, 2, 3, 4):\n"
        "    verify_gorenstein(n, Window.square(24))")
    listed = sizes["realspectra.blocks._bb_cached"]
    blocks = {name: size for name, size in sizes.items()
              if name.startswith("realspectra.blocks.")}
    assert listed > 0 and blocks["realspectra.blocks._block_ranks"] > 0
    assert {name: size for name, size in blocks.items()
            if size > 2 * listed} == {}


_TOWER_IDEALS = (QuotientIdeal(), truncation(0), truncation(1), truncation(2),
                 QuotientIdeal((2,)), QuotientIdeal((0, 1)),
                 QuotientIdeal((1, 2), tail=1))


@pytest.mark.parametrize("ideal", _TOWER_IDEALS, ids=repr)
def test_shared_tower_stages_match_fresh_towers(ideal):
    # a tail = 0 ideal's shared stages are the fresh tower's, layers and
    # all; a tail = 1 ideal's tower starts from BPR<m>, where the fresh
    # tail route rebuilds it from the ring, so there the two agree on the
    # group wherever the tail route answers, which some degrees of this
    # window leave known only as layers
    for t in range(-6, 7):
        for s in range(-3, 4):
            alpha = Degree(t, s)
            g = tower_group(ideal, alpha)
            try:
                want, layers = tower_group_fresh(ideal, alpha)
            except StabilizationFailure:
                assert ideal.tail, alpha
                continue
            if ideal.tail:
                if want.exact:
                    assert g.summarize() == want.summarize(), alpha
                continue
            assert g == want, alpha
            # the layer ranks and exactness against the sums of the
            # cokernel and kernel layers the fresh stage built
            sub, quot = layers
            assert (g.sub_summary, g.quot_summary) == layers, alpha
            assert g.exact == (quot == (0, 0) or sub[0] == quot[0] == 0), \
                alpha


@pytest.mark.parametrize("w", range(-2, 41))
def test_ranged_listing_matches_predicate(w):
    # the memoized listing against the brute force over exponent vectors,
    # order included, on every index range and on the ranges that
    # _first_index_above(k) starts for a^k
    for lo in range(1, 6):
        for hi in (*range(7), None):
            assert weight_tuples(w, lo, hi) == \
                weight_tuples_reference(w, lo, hi), (lo, hi)
    for k in range(0, 70):
        lo = _first_index_above(k)
        assert weight_tuples(w, lo) == weight_tuples_reference(w, lo), k


def test_one_index_listings_cost_one_memo_call_each():
    # at n = 1 every E_2 listing has one index, vbar_1: answered directly,
    # it costs one memo call per class, where a recursion over the
    # exponent costs a call per smaller exponent, quadratic in the cap
    weight_tuples.cache_clear()
    pages = hfpss.run_differentials(1, Window(0, 0, 0, 0), a_cap=4000)
    classes = len(pages[0].classes[Degree(0, 0)])
    info = weight_tuples.cache_info()
    assert classes == 1001
    assert info.hits + info.misses <= 2 * classes



# the unpruned listings: every E_2 monomial of the degree, killed ones
# included, read by the rule each product listing applies

def _bb_unpruned(n, alpha):
    d = alpha.triv - alpha.sgn
    entries = [hfpss.final_entry(n, x) for x in hfpss.e2_basis(n, alpha, d)
               if x.k >= d - 4 * (2 ** n - 1)]
    return sorted(filter(None, entries),
                  key=lambda e: (e.mono.l, e.mono.k, e.mono.c))


def _e_infinity_unpruned(n, alpha):
    bound = coefficients._a_exponent_bound(alpha, n)
    entries = []
    for x in hfpss.e2_basis(n, alpha, bound + 8):
        entry = hfpss.final_entry(n, x)
        if entry is None:
            continue
        if x.k > bound:
            raise StabilizationFailure(f"final-page classes at {alpha} "
                                       f"appear past filtration {bound}")
        entries.append(entry)
    return entries


def _basis_unpruned(alpha):
    return sorted(_e_infinity_unpruned(None, alpha))


def _listing_outcome(fn, *args):
    """("ok", listing as a tuple) from fn, or ("raised", message)."""
    try:
        return ("ok", tuple(fn(*args)))
    except StabilizationFailure as err:
        return ("raised", str(err))


_HEIGHTS = (None, 0, 1, 2, 3, 4)

# listing -> (the product listing, its references, the arguments to check)
_DEGREE_LISTINGS = {
    "bb_cached": (
        _bb_cached.__wrapped__, (bb_cached_reference, _bb_unpruned),
        lambda: ((n, alpha) for n in range(5)
                 for alpha in Window(-24, 24, -24, 24))),
    "e_infinity_basis": (
        hfpss.e_infinity_basis,
        (e_infinity_basis_two_rounds, _e_infinity_unpruned),
        lambda: ((n, alpha) for n in _HEIGHTS
                 for alpha in Window(-16, 16, -16, 16))),
    "basis_cached": (
        coefficients._basis_cached.__wrapped__,
        (basis_cached_two_listings, _basis_unpruned),
        lambda: ((alpha,) for alpha in Window(-30, 30, -30, 30))),
    "e2_basis": (
        hfpss.e2_basis, (e2_basis_reference,),
        lambda: ((n, alpha, a_cap) for n in _HEIGHTS
                 for alpha in Window(-24, 24, -24, 24)
                 for a_cap in (0, 4, 12, 40))),
}


@pytest.mark.parametrize("name", _DEGREE_LISTINGS)
def test_degree_listing_matches_references(name):
    # order included, and a StabilizationFailure with the same message
    listing, references, cases = _DEGREE_LISTINGS[name]
    outcomes = set()
    for args in cases():
        got = _listing_outcome(listing, *args)
        for reference in references:
            assert got == _listing_outcome(reference, *args), \
                (args, reference.__name__)
        outcomes.add(got[0])
    assert "ok" in outcomes
